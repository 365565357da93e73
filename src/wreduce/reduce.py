"""Symbolic reduction of the triple and double sums to Euler-sum bases.

The route mirrors how the values are proved reducible.  A double index
``(a, b)`` on two variables that only meet inside composite denominators
can be telescoped to its boundary columns; the binomial weights of that
telescoping drive three reductions:

* ``reduce_mt`` writes a double sum with one composite factor as a
  rational combination of depth-two Euler sums,
* ``reduce_unit_witten`` writes the unit-exponent triple sums
  ``W(a,b,1,d,0,1)`` as combinations of depth-three Euler sums,
* ``reduce_witten`` peels a general ``W(a,b,c,d,0,f)`` into single zetas
  times double sums, depth-three Euler sums, and one unit-exponent
  remainder that ``reduce_unit_witten`` finishes off.

``reduce_general_witten`` writes a triple sum with all three composite
exponents positive as triple sums with a vanishing composite exponent and
Euler sums, by partial fractions along the A3 root relations.

Two transcriptions of one binomial family inside the main reduction are
circulating; both are implemented behind ``variant`` ("eq22" and
"paper-final") so the probe in ``verify`` can show which one closes
numerically.  Every weight here is an integer, so the reduction of an
atom is an integer combination with Python ``int`` coefficients: exact
arithmetic, no ``Fraction`` and no floats.

The four-term exchange relation (``four_term_lhs`` / ``four_term_rhs``)
is exposed for the verifier: it is the engine behind the main reduction
and is checked as an identity in its own right.

``reduce_unit_witten``, its rows, ``reduce_mt``, the general rewrite and
the Euler-sum atoms are memoized per process, and every term is built
through ``exact.intern_term``: each depends only on its integers, so a
full reduction rewrites each remainder, row and double sum once, builds
each distinct atom and term once, and ``series.clear_caches`` keeps them.
``reduce_witten`` is one ``LinearCombination.combine`` of memoized pieces
of the same kind: the columns Z(i)*MT(a,b,k) (``_column``, per
``(i, a, b, k, expand_mt)``, already rewritten by ``reduce_mt`` when
``expand_mt`` is set), the Euler blocks of each i (``_euler_block``, per
``(i, w, a, b, variant)``) and the remainder, so a repeated reduction
with ``expand_remainder`` builds no atom and no term.  Callers share the
returned combinations, which no method of ``LinearCombination`` mutates.
"""

from __future__ import annotations

import functools
from typing import Optional

from .errors import (
    InadmissibleIndex,
    InadmissibleOutput,
    InternalNoncancellation,
    UnsupportedParams,
)
from .exact import (
    EulerSum,
    LinearCombination,
    MordellTornheim3,
    RationalLike,
    SingleZeta,
    Term,
    WittenSl4,
    binomial,
    intern_term,
)

VARIANTS = ("eq22", "paper-final")


def pair_recurrence_weights(
    a: int, b: int, p: RationalLike, q: RationalLike
) -> tuple[list[tuple[int, RationalLike]], list[tuple[int, RationalLike]]]:
    """Boundary weights of the two-index telescoping.

    For any family F obeying F(a,b,s) = p F(a-1,b,s+1) + q F(a,b-1,s+1),
    repeated substitution lands on the boundary:

        F(a,b,s) = sum_j left[j] * F(0,j,a+b+s-j)
                 + sum_j right[j] * F(j,0,a+b+s-j)

    Returned as (left, right) lists of (j, weight).  ``a, b >= 1``.
    """
    if a < 1 or b < 1:
        raise InadmissibleIndex("telescoping needs both exponents positive")
    left = [
        (j, p**a * q ** (b - j) * binomial(a + b - j - 1, a - 1)) for j in range(1, b + 1)
    ]
    right = [
        (j, p ** (a - j) * q**b * binomial(a + b - j - 1, b - 1)) for j in range(1, a + 1)
    ]
    return left, right


def pair_sum_weights(a: int, b: int) -> dict[int, int]:
    """{j: w_j} with sum_{m1+m2=u} m1^-a m2^-b = sum_j w_j u^-(a+b-j) P_j(u-1).

    P_j(n) = sum_{m<=n} m^-j.  Partial fractions of m1^-a (u-m1)^-b give
    w_j = C(a+b-j-1, b-1) [j<=a] + C(a+b-j-1, a-1) [j<=b], since both halves
    of the split sum to the same prefix; a zero exponent leaves P_{a+b}.
    """
    if a == 0 or b == 0:
        return {a + b: 1}
    return {
        j: binomial(a + b - j - 1, b - 1) * (j <= a) + binomial(a + b - j - 1, a - 1) * (j <= b)
        for j in range(1, max(a, b) + 1)
    }


@functools.cache
def _euler(indices: tuple[int, ...]) -> EulerSum:
    try:
        return EulerSum(indices)
    except InadmissibleIndex as exc:
        raise InadmissibleOutput(
            f"reduction produced a non-admissible Euler sum {indices}: {exc.message}"
        ) from exc


@functools.cache
def reduce_mt(atom: MordellTornheim3) -> LinearCombination:
    """Double sum with one composite factor as depth-two Euler sums.

    Splitting the lattice at m1 <=> m2 and telescoping each half gives

        MT(a,b,c) = sum_{j<=a} C(a+b-j-1, b-1) E(a+b+c-j, j)
                  + sum_{j<=b} C(a+b-j-1, a-1) E(a+b+c-j, j)

    for a, b >= 1.  The degenerate exponents have closed forms of their
    own: c = 0 factors into single zetas, a = 0 is itself an Euler sum,
    and a = b = 0 telescopes to a difference of single zetas.
    """
    a, b, c = atom.a, atom.b, atom.c
    if c == 0:
        return LinearCombination.from_term(intern_term((SingleZeta(a), SingleZeta(b))))
    if a == 0 and b == 0:
        return LinearCombination(
            [(intern_term((SingleZeta(c - 1),)), 1), (intern_term((SingleZeta(c),)), -1)]
        )
    if a == 0:
        return LinearCombination.from_atom(_euler((c, b)))
    return LinearCombination(
        [
            (intern_term((_euler((a + b + c - j, j)),)), w)
            for j, w in pair_sum_weights(a, b).items()
        ]
    )


# ---------------------------------------------------------------------------
# the four-term exchange relation
#
# Moving one exponent pair (a, b) between the lone-variable slots and the
# composite slots costs only zeta-times-double-sum corrections.  The lhs
# mixes four triple sums; the rhs is free of triple sums entirely, which
# is what the main reduction exploits.

def four_term_lhs(a: int, b: int, s: tuple[int, int, int]) -> LinearCombination:
    s1, s2, s3 = s
    return LinearCombination(
        [
            (intern_term((WittenSl4((s1, s2, a, s3, 0, b)),)), (-1) ** a),
            (intern_term((WittenSl4((s1, s2, b, s3, 0, a)),)), (-1) ** b),
            (intern_term((WittenSl4((a, 0, s2, s1, b, s3)),)), 1),
            (intern_term((WittenSl4((b, 0, s1, s2, a, s3)),)), 1),
        ]
    )


def four_term_rhs(a: int, b: int, s: tuple[int, int, int]) -> LinearCombination:
    """Triple-sum-free side of the exchange relation.

    The divergent single-zeta pieces produced by the two telescopings
    cancel against each other; they are tracked separately and their
    exact cancellation is asserted rather than assumed.
    """
    s1, s2, s3 = s
    if a < 1 or b < 1:
        raise InadmissibleIndex("exchange relation needs positive exponents to move")
    pairs: list[tuple[Term, int]] = []
    stray: dict = {}  # would-be zeta(1) coefficients, keyed by companion atom

    def add_column(i: int, coeff: int) -> None:
        mt = MordellTornheim3(s1, s2, s3 + a + b - i)
        if i == 1:
            stray[mt] = stray.get(mt, 0) + coeff
        else:
            pairs.append((intern_term((SingleZeta(i), mt)), coeff))

    for i in range(1, max(a, b) + 1):
        add_column(
            i, (binomial(a + b - i - 1, a - 1) + binomial(a + b - i - 1, b - 1)) * (-1) ** i
        )
    for i in range(1, a + 1):
        coeff = binomial(a + b - i - 1, b - 1)
        add_column(i, coeff)
        pairs.append((intern_term((MordellTornheim3(s1 + i, s2, s3 + a + b - i),)), -coeff))
        pairs.append((intern_term((MordellTornheim3(s1, s2, s3 + a + b),)), -coeff))
    for i in range(1, b + 1):
        coeff = binomial(a + b - i - 1, a - 1)
        add_column(i, coeff)
        pairs.append((intern_term((MordellTornheim3(s2 + i, s1, s3 + a + b - i),)), -coeff))
        pairs.append((intern_term((MordellTornheim3(s1, s2, s3 + a + b),)), -coeff))
    for mt, coeff in stray.items():
        if coeff != 0:
            raise InternalNoncancellation(
                f"divergent piece {coeff} * zeta(1) * {mt.render()} survived the exchange"
            )
    return LinearCombination(pairs)


# ---------------------------------------------------------------------------
# unit-exponent triple sums

def exchange_weights(a: int, b: int) -> list[tuple[int, int]]:
    """Combined boundary weights for W(a,b,1,d,0,1) -> W(i,0,1,*,0,1) rows.

    Both boundary columns fold onto the same row family (swapping the two
    collapsed variables fixes the sum when the middle composite is
    absent), so the two telescoping weight lists merge by column index:
    the merged weights are the pair-sum weights w_j of ``pair_sum_weights``.
    """
    if a < 1 or b < 1:
        raise InadmissibleIndex("telescoping needs both exponents positive")
    return sorted(pair_sum_weights(a, b).items())


def unit_tail_expand(alpha: int, cap: int) -> LinearCombination:
    """W(alpha,0,1,0,0,cap) as depth-three Euler sums, cap >= 2.

    Ordering the three variables by their partial sums turns the sum into
    E(cap, alpha, 1) plus the column sums E(cap, alpha+1-i, i).
    """
    if alpha < 1 or cap < 2:
        raise InadmissibleIndex("unit tail expansion needs alpha >= 1 and cap >= 2")
    pairs = [(intern_term((_euler((cap, alpha, 1)),)), 1)]
    pairs += [(intern_term((_euler((cap, alpha + 1 - i, i)),)), 1) for i in range(1, alpha + 1)]
    return LinearCombination(pairs)


def unit_pair_split(alpha: int, delta: int) -> tuple[WittenSl4, LinearCombination]:
    """W(alpha,0,1,delta,0,1) minus its absorbed tail, alpha, delta >= 1.

    Absorbing the middle composite into the total one leaves the tail
    triple sum W(alpha,0,1,0,0,delta+1) plus explicit Euler sums; the
    tail is returned separately so it can be checked before expansion.
    """
    if alpha < 1 or delta < 1:
        raise InadmissibleIndex("unit pair split needs alpha >= 1 and delta >= 1")
    tail = WittenSl4((alpha, 0, 1, 0, 0, delta + 1))
    rest = LinearCombination(
        [(intern_term((_euler((delta + 2 - i, i, alpha)),)), 1) for i in range(1, delta + 1)]
    )
    return tail, rest


@functools.cache
def _unit_row(alpha: int, delta: int) -> tuple[LinearCombination, LinearCombination]:
    """Row W(alpha,0,1,delta,0,1) as its split rest and its expanded tail."""
    _tail, rest = unit_pair_split(alpha, delta)
    return rest, unit_tail_expand(alpha, delta + 1)


@functools.cache
def reduce_unit_witten(a: int, b: int, d: int) -> LinearCombination:
    """W(a,b,1,d,0,1) as depth-three Euler sums.

    Telescopes (a, b) to boundary rows, then splits and expands each row.
    Either of a, b may be zero (the telescoping is skipped); d may be
    zero only when both are positive, since each boundary row needs a
    positive middle exponent.
    """
    if a < 0 or b < 0 or d < 0 or a + b < 1:
        raise InadmissibleIndex("unit reduction needs a+b >= 1 and no negative exponents")
    if a == 0 or b == 0:
        if d < 1:
            raise InadmissibleIndex("unit reduction with a boundary row needs d >= 1")
        return LinearCombination.combine((piece, 1) for piece in _unit_row(a + b, d))
    return LinearCombination.combine(
        (piece, wgt)
        for i, wgt in exchange_weights(a, b)
        for piece in _unit_row(i, a + b + d - i)
    )


# ---------------------------------------------------------------------------
# the main reduction

def reduce_witten(
    atom: WittenSl4,
    variant: str = "eq22",
    expand_remainder: bool = False,
    expand_mt: bool = False,
) -> LinearCombination:
    """W(a,b,c,d,0,f) over the terminal basis.

    The output mixes Z(i)*MT terms, depth-three Euler sums, and one
    unit-exponent remainder W(a,b,1,c+d+f-2,0,1).  ``expand_remainder``
    rewrites the remainder through ``reduce_unit_witten``;
    ``expand_mt`` additionally rewrites every double sum through
    ``reduce_mt``.  ``variant`` selects which published transcription of
    the inner binomial family to use; "eq22" is the one every
    cross-check in the verifier confirms.  The result sums the memoized
    columns, Euler blocks and remainder with their outer binomials.
    """
    if variant not in VARIANTS:
        raise UnsupportedParams(
            f"variant must be one of {VARIANTS!r}, got {variant!r}"
        )
    s = atom.s
    a, b, c, d, e5, f = s
    if e5 != 0:
        raise UnsupportedParams(
            "reduction covers the family with a vanishing fifth exponent only"
        )
    if a < 1 or b < 1:
        raise UnsupportedParams(
            "reduction needs positive exponents on both collapsed variables"
        )
    if c < 1 or f < 1:
        if f == 0 and c >= 2:
            # no total-sum factor: the third variable separates off
            return _column(c, a, b, d, expand_mt)
        raise UnsupportedParams(
            "reduction needs positive exponents on the third variable and the total sum"
        )

    if c == 1 and f == 1:
        # the peeling returns its input with coefficient one; go straight
        # to the unit reduction
        return reduce_unit_witten(a, b, d)

    w = a + b + c + d + f
    sign_c = (-1) ** c
    parts: list[tuple[LinearCombination, int]] = [
        (
            _column(i, a, b, c + d + f - i, expand_mt),
            binomial(c + f - i - 1, f - 1) * sign_c * (-1) ** i,
        )
        for i in range(2, c + 1)
    ]
    parts += [
        (_euler_block(i, w, a, b, variant), binomial(c + f - i - 1, c - 1) * sign_c)
        for i in range(2, f + 1)
    ]
    if expand_remainder:
        remainder = reduce_unit_witten(a, b, c + d + f - 2)
    else:
        remainder = LinearCombination.from_atom(WittenSl4((a, b, 1, c + d + f - 2, 0, 1)))
    parts.append((remainder, -sign_c * binomial(c + f - 2, c - 1)))
    return LinearCombination.combine(parts)


@functools.cache
def _column(i: int, a: int, b: int, k: int, expand_mt: bool) -> LinearCombination:
    """Z(i)*MT(a,b,k), with the double sum rewritten by ``reduce_mt`` when
    ``expand_mt`` is set."""
    out = LinearCombination.from_term(intern_term((SingleZeta(i), MordellTornheim3(a, b, k))))
    return out.substitute(_mt_rewrite) if expand_mt else out


@functools.cache
def _euler_block(i: int, w: int, a: int, b: int, variant: str) -> LinearCombination:
    """The depth-three Euler sums E(i, w-i-j, j) of column i, weighted by
    the inner binomials of ``variant``."""
    pairs = [
        (intern_term((_euler((i, w - i - j, j)),)), _variant_binomial(a, b, j, b - 1, variant))
        for j in range(1, a + 1)
    ]
    pairs += [
        (intern_term((_euler((i, w - i - j, j)),)), _variant_binomial(a, b, j, a - 1, variant))
        for j in range(1, b + 1)
    ]
    return LinearCombination(pairs)


def _variant_binomial(a: int, b: int, j: int, lower: int, variant: str) -> int:
    if variant == "eq22":
        return binomial(a + b - j - 1, lower)
    return binomial(a + b + j - 1, lower)


def _mt_rewrite(atom) -> Optional[LinearCombination]:
    """The double-sum expansion, as a rewrite for ``LinearCombination.substitute``."""
    return reduce_mt(atom) if isinstance(atom, MordellTornheim3) else None


# ---------------------------------------------------------------------------
# the general triple sum: partial fractions along the A3 root relations
#
# With x = m1+m2, y = m2+m3 and z = m1+m2+m3, the relations z = x + m3,
# z = m1 + y and z + m2 = x + y make x/z + m3/z, m1/z + y/z and
# x/z + y/z - m2/z equal to 1.  Multiplying the summand by one of them
# moves one unit of exponent onto z (e_i is the i-th unit vector):
#
#   A (s3, s4 >= 1):           W(s) = W(s-e4+e6) + W(s-e3+e6)
#   B (s3 = 0; s1, s5 >= 1):   W(s) = W(s-e1+e6) + W(s-e5+e6)
#   C (s1 = s3 = 0; s2 >= 1):  W(s) = W(s-e4+e6) + W(s-e5+e6) - W(s-e2+e6)
#
# Each piece is the summand times x/z, m3/z, m1/z, y/z or m2/z, all in
# (0, 1), so it converges whenever W(s) does.  Every step lowers
# s1 + ... + s5, and the rules stop once s4 or s5 is zero or at the
# triangle W(0,0,0,a,b,c).  The triangle sums x^-a y^-b z^-c over x, y < z
# with x + y > z: the full square by stuffle, less x + y <= z through the
# pair sum S_{a,b}(u) of u = x + y (Komori, Matsumoto and Tsumura treat
# zeta functions of root systems by such partial fractions).


def reduce_general_witten(atom: WittenSl4) -> LinearCombination:
    """W(s) with s4, s5, s6 >= 1 as an exact combination of triple sums with
    s4 = 0 or s5 = 0 and of depth-two and depth-three Euler sums."""
    s = atom.s
    if min(s[3:]) < 1:
        raise UnsupportedParams(f"W{s}: the general rewrite needs s4, s5, s6 >= 1")
    return _general_rewrite(s)


def _unit_shift(s: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s - e_(i+1) + e6."""
    t = list(s)
    t[i] -= 1
    t[5] += 1
    return tuple(t)


@functools.cache
def _general_rewrite(s: tuple[int, ...]) -> LinearCombination:
    s1, s2, s3, s4, s5, s6 = s
    if s4 == 0 or s5 == 0:
        return LinearCombination.from_atom(WittenSl4(s))
    if s1 == s2 == s3 == 0:
        return _triangle(s4, s5, s6)
    if s3:
        moves = ((3, 1), (2, 1))  # rule A
    elif s1:
        moves = ((0, 1), (4, 1))  # rule B
    else:
        moves = ((3, 1), (4, 1), (1, -1))  # rule C
    return LinearCombination.combine((_general_rewrite(_unit_shift(s, i)), c) for i, c in moves)


def _triangle(a: int, b: int, c: int) -> LinearCombination:
    """W(0,0,0,a,b,c) = E(c,a,b) + E(c,b,a) + E(c,a+b)
    - sum_j w_j [E(c,a+b-j,j) + E(c+a+b-j,j)], w_j of ``pair_sum_weights``."""
    pairs = [((c, a, b), 1), ((c, b, a), 1), ((c, a + b), 1)]
    for j, w in pair_sum_weights(a, b).items():
        pairs += [((c, a + b - j, j), -w), ((c + a + b - j, j), -w)]
    return LinearCombination([(intern_term((_euler(idx),)), coef) for idx, coef in pairs])


def reduce_any(
    lc: LinearCombination,
    variant: str = "eq22",
    expand_remainder: bool = False,
    expand_mt: bool = False,
) -> LinearCombination:
    """Reduce every reducible atom of a combination, term by term.

    Triple sums go through ``reduce_witten``; double sums through
    ``reduce_mt`` when ``expand_mt`` is set (and stay put otherwise);
    Euler sums and single zetas are already terminal.
    """

    def rewrite(atom) -> Optional[LinearCombination]:
        if isinstance(atom, WittenSl4):
            return reduce_witten(
                atom, variant=variant, expand_remainder=expand_remainder, expand_mt=expand_mt
            )
        return _mt_rewrite(atom) if expand_mt else None

    return lc.substitute(rewrite)
