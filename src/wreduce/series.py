"""Certified numerical evaluation of the series atoms.

Every evaluator returns an ``Evaluation`` with a midpoint and a radius such
that the true value of the series provably lies inside
``[midpoint - radius, midpoint + radius]``.  The radius accounts for

* truncation, bounded by enclosures of the dropped tails, and
* floating-point rounding, bounded by one model: an n-term reduction errs
  by at most gamma_n * sum |x_i y_i| in any summation order, BLAS included
  (``_gamma``, ``_dot``).  Running-sum tables carry a radius per entry,
  gamma_k * P[k] for entry k, and their consumers dot weights against it.

Every tail is carried as a "log-power" (LP) form: a dictionary mapping
``(p, k)`` to an interval coefficient, denoting ``sum coeff * u^-p * ln(u)^k``.
One tail engine sums such a form over ``u > U``, or turns it into the LP
form of ``u |-> sum_{y>u}``: Euler-Maclaurin of order ``EM_ORDER`` = 3
applied to each entry ``y^-p ln(y)^k`` (p > 1), with the integral, ``-f/2``,
the B_2, B_4 and B_6 derivative terms and the remainder bound
``|B_6|/6! * integral_u^inf |f^(6)|``, each in closed form and derived once
per entry.  The remainder is bounded entry by entry with ``ln >= 0``, so the
engine holds for integer ``u >= 1``.  The bracketing facts (harmonic
numbers, zeta tails, prefix power sums) are small LP forms composed with
interval arithmetic.  A form depends on its integers alone, so each
cached form is built once per process and shared, read-only, by every
later request; ``clear_caches()`` keeps it.  Forms are multiplied in one
loop, ``_lp_mul``, with the expressions of ``_imul`` inline, so a shared
form is bit for bit what a rebuild would give; ``_lp_tail``, which runs on
every rung, has the one other such loop.

Every sum but zeta's ends in one kernel, ``_outer_sum``: the 1-D sum over
u of u^-e T(u), cut by the ladder, with T(u) a certified table for the box
and an LP enclosure of T(u), shifted by e, for the tail.  Every function
of u that T is made of has a key: H_u, zeta(j), the zeta tail t_j(u), the
prefix power sum P_j(u-1), the shifted pair sum G_{c,f}(u) and the pair sum
S_{a,b}(u).  Its table (``_fn_table``) and its LP bracket (``_fn_lp``) are
both built from the key, and the partial fractions of G and of S (Huard,
Williams and Zhang, eq. 3) are written once, in ``_pieces``.  ``_fn_sum``
is the outer sum over one function or the product of two.  For MT, T is a
G; for the Euler sums of depth 2, a P_j(u-1).  Depth 3 sums a running sum
D of prefix power sums, whose tail is summed by parts: D(n) from the box
times a zeta tail, plus the terms of D past n, each times the zeta tail
past it.  The triple-sum evaluator picks T from the zero pattern of the
composite exponents.  With ``s5 = 0`` (or ``s4 = 0``, mirrored) it collapses
(m1, m2) to their sum u, and T is S times a G.  With ``s6 = 0``, m1 and m3
meet only through m2, and T is the product of two G.  The general case is
evaluated as the exact combination of ``reduce.reduce_general_witten``:
collapsed triple sums and Euler sums.  The slot order given is the slot
order summed; relabeling twins are computed by genuinely different loops,
which is what makes the symmetry check in ``verify`` meaningful.

The workspace is two dicts: ``_ATOMS``, one outcome per atom, and
``_TABLES``, the certified tables.  An atom's ladder stops at the first
cutoff whose tail radius is no larger than its box radius (or at the
fixed cap ``MAX_TERMS``).  That puts most atoms near 1e-14, well below the
1e-12 floor of the requests.  The value, or a refusal that no tolerance can
lift, is memoized under the atom alone, and the constants inside other
atoms (zetas in the tail forms and tables, the terminals of the general
rewrite) are those same values.
Terms and combinations are interval arithmetic on them, and the public
evaluators compare the result with the request's tolerance in one place,
``_checked``.  So a result never depends on which requests came before it,
and no private function is handed a ``SummationConfig``.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceUnverified,
    InternalNoncancellation,
    ToleranceUnreachable,
    UnsupportedParams,
    WreduceError,
)
from .exact import (
    Atom,
    EulerSum,
    LinearCombination,
    MordellTornheim3,
    SingleZeta,
    Term,
    WittenSl4,
)
from .reduce import pair_recurrence_weights, pair_sum_weights, reduce_general_witten

EPS = 2.3e-16  # one ulp of slack over float64 unit roundoff
EULER_GAMMA = 0.5772156649015329

TOLERANCE_FLOOR = 1e-12
# the cap on every cutoff: of zeta and of the outer sum that every other
# sum, triple sums included, comes down to
MAX_TERMS = 10**6


@dataclass(frozen=True)
class SummationConfig:
    """The target accuracy of a request.

    ``tolerance`` is the largest radius a request accepts.  It never steers
    an evaluation: each atom is evaluated once, and a result whose radius
    is above the tolerance is refused.  A tolerance that is not a real
    number (a bool included), is beyond the float64 range, is not positive
    or is below ``TOLERANCE_FLOOR`` is refused when the config is built;
    any other is stored as a float.
    """

    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise UnsupportedParams(f"tolerance {tol!r} is not a real number")
        try:
            object.__setattr__(self, "tolerance", float(tol))
        except OverflowError:
            raise UnsupportedParams(f"tolerance {tol!r} is beyond the float64 range") from None
        if not (self.tolerance > 0):
            raise ToleranceUnreachable(f"tolerance {self.tolerance} is not positive")
        if self.tolerance < TOLERANCE_FLOOR:
            raise ToleranceUnreachable(
                f"tolerance {self.tolerance} is below the float64 floor {TOLERANCE_FLOOR}"
            )


@dataclass(frozen=True)
class Evaluation:
    """A certified enclosure: value in [midpoint - radius, midpoint + radius].

    ``terms`` records the truncation cutoff of the dominant sum, so an
    independent checker can rerun a coarser or finer truncation.
    """

    midpoint: float
    radius: float
    terms: int = 0

    def __post_init__(self) -> None:
        # numpy scalars sneak in from vectorized paths; pin the builtin
        # type so repr-based serialization stays uniform
        object.__setattr__(self, "midpoint", float(self.midpoint))
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "terms", int(self.terms))


# ---------------------------------------------------------------------------
# interval and rounding helpers

Interval = tuple[float, float]  # (center, radius), radius >= 0


def _imul(a: Interval, b: Interval) -> Interval:
    am, ar = a
    bm, br = b
    return (am * bm, abs(am) * br + abs(bm) * ar + ar * br + EPS * abs(am * bm))


def _gamma(n):
    """gamma_n, the rounding factor of an n-term reduction (n may be an array).

    A sum of n products errs by at most gamma_n * sum |x_i y_i| in any order
    (sequential, pairwise, BLAS), gamma_n = n u / (1 - n u), u = 2^-53 (Higham,
    *Accuracy and Stability*, ch. 3; Jeannerod and Rump, SIAM J. Matrix Anal.
    Appl. 34, 2013).  EPS > 2u, so (n + 2) EPS also covers the bound's own
    rounding and two ulps of error in each input (numpy's pow stays within one).
    """
    return (n + 2) * EPS


def _dot(x: np.ndarray, y: np.ndarray, yrad: np.ndarray) -> Interval:
    """Enclosure of sum_i x_i y_i, each y_i known to within yrad_i: the radius
    is gamma_n * sum |x_i y_i| plus sum |x_i| yrad_i, itself inflated by gamma_n.
    """
    ax = np.abs(x)
    g = _gamma(x.size)
    rad = g * float(np.dot(ax, np.abs(y))) + (1.0 + g) * float(np.dot(ax, yrad))
    return float(np.dot(x, y)), rad


def _prefix_sums(x: np.ndarray, xrad=None) -> tuple[np.ndarray, np.ndarray]:
    """P[k] = sum_{i<=k} x_i for k = 0..n (P[0] = 0) and per-entry radii, x >= 0.

    Entry k is a k-term sum whatever order numpy takes, so its rounding is
    gamma_k P[k]; radii xrad of the x_i accumulate alongside.
    """
    P = np.concatenate(([0.0], np.cumsum(x)))
    g = _gamma(np.arange(P.size, dtype=float))
    rad = g * P
    if xrad is not None:
        rad += (1.0 + g) * np.concatenate(([0.0], np.cumsum(xrad)))
    return P, rad


# ---------------------------------------------------------------------------
# log-power (LP) forms: {(p, k): (center, radius)} meaning
#     sum over entries of  coeff * u^-p * ln(u)^k
# valid pointwise for every u in the domain the builder states (u >= 2
# unless noted).  Exponents are integers stored as floats, so p + 1 is
# exact; the entry functions are nonnegative for u >= 1, which is what lets
# an interval coefficient be charged against them.

LogPower = dict[tuple[float, int], Interval]

# ``_lp_mul`` multiplies intervals inline with ``_imul``'s expressions (lp1's
# coefficient first) into fresh (0.0, 0.0) entries, so each value and -0.0 is
# what ``_imul`` would give.  ``_lp_scale`` and ``_lp_resum`` call it.  It keeps
# its own loop because the builders run inside a request, where scalings
# summed by ``_lp_sum`` were slower; ``_lp_tail``, run on every rung, has one too.


def _lp_shift(lp: LogPower, dp: float) -> LogPower:
    return {(p + dp, k): c for (p, k), c in lp.items()}


def _lp_mul(lp1: LogPower, lp2: LogPower) -> LogPower:
    out: LogPower = {}
    for (p1, k1), (am, ar) in lp1.items():
        aam = abs(am)
        for (p2, k2), (bm, br) in lp2.items():
            m = am * bm
            r = aam * br + abs(bm) * ar + ar * br + EPS * abs(m)
            key = (p1 + p2, k1 + k2)
            om, orad = out.get(key, (0.0, 0.0))
            out[key] = (om + m, orad + r)
    return out


def _lp_scale(lp: LogPower, coef: Interval) -> LogPower:
    return _lp_mul(lp, {(0.0, 0): coef})


def _lp_sum(*lps: LogPower) -> LogPower:
    out: LogPower = {}
    for lp in lps:
        for key, (cm, cr) in lp.items():
            om, orad = out.get(key, (0.0, 0.0))
            out[key] = (om + cm, orad + cr)
    return out


def _lp_eval(lp: LogPower, u: float) -> Interval:
    """Enclosure of the LP form's value at u >= 1."""
    L = math.log(u)
    mid = absmid = rad = 0.0
    for (p, k), (cm, cr) in lp.items():
        g = u**-p * L**k
        mid += cm * g
        absmid += abs(cm * g)
        rad += cr * g
    # pow, log^k and the products cost a few ulps per entry
    return (mid, rad + EPS * (absmid + rad) * (len(lp) + 8))


# ---------------------------------------------------------------------------
# the tail engine: Euler-Maclaurin of order EM_ORDER
#
# For f(y) = y^-p ln(y)^k with p > 1 and integer u >= 1 (DLMF 2.10.1, 24.4),
#   sum_{y>u} f(y) = int_u^inf f - f(u)/2 - sum_{j<=m} B_2j/(2j)! f^(2j-1)(u) + R,
#   R = -int_u^inf f^(2m)(x) B_2m(x - floor x) dx / (2m)!,
#   |R| <= |B_2m|/(2m)! int_u^inf |f^(2m)|,
# since the periodic Bernoulli function never exceeds |B_2m|.  (Dropping the
# B_2m term instead would need up to twice that bound.)  Every derivative of f is
# a sum of y^-(p+i) ln(y)^(k-l) terms, so the whole right side is an LP form
# in u.  It is derived once per (p, k) in exact rational arithmetic;
# |f^(2m)| is bounded entry by entry (ln >= 0), so the remainder is a set of
# radius-only entries.

EM_ORDER = 3
_B2J = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66))

Exact = dict[tuple[int, int], Fraction]  # an LP form with exact coefficients


def _lp_deriv(f: Exact) -> Exact:
    """d/du of an exact LP form."""
    out: Exact = defaultdict(int)
    for (p, k), c in f.items():
        out[(p + 1, k)] -= p * c
        if k:
            out[(p + 1, k - 1)] += k * c
    return out


def _lp_integral(f: Exact) -> Exact:
    """u |-> int_u^inf of an exact LP form, entry by entry, with q = p - 1 > 0:

        int_u^inf y^-p ln(y)^k dy = u^-q sum_{i<=k} k!/(k-i)! ln(u)^(k-i) / q^(i+1)
    """
    out: Exact = defaultdict(int)
    for (p, k), c in f.items():
        if p <= 1:
            raise ConvergenceUnverified(f"tail exponent {p} (ln^{k}) is not summable")
        coef = Fraction(c, p - 1)
        for i in range(k + 1):
            out[(p - 1, k - i)] += coef
            coef = coef * (k - i) / (p - 1)
    return out


# U -> (p, k) -> the value at U of the form of _unit_resum; it depends on
# nothing else, so it outlives clear_caches()
_EM_TAILS: dict[int, dict[tuple[float, int], Interval]] = {}


@functools.cache
def _unit_resum(p: float, k: int) -> LogPower:
    """u |-> sum_{y>u} y^-p ln(y)^k as an LP form, valid for integer u >= 1."""
    if p != int(p):
        raise UnsupportedParams(f"tail exponent {p} is not an integer")
    derivs = [{(int(p), k): 1}]  # f, f', ..., f^(2m)
    for _ in range(2 * EM_ORDER):
        derivs.append(_lp_deriv(derivs[-1]))
    exact = _lp_integral(derivs[0])
    exact[(int(p), k)] -= Fraction(1, 2)
    for j in range(1, EM_ORDER + 1):
        for key, c in derivs[2 * j - 1].items():
            exact[key] -= _B2J[j - 1] / math.factorial(2 * j) * c
    w = abs(_B2J[EM_ORDER - 1]) / math.factorial(2 * EM_ORDER)
    rem = _lp_integral({key: w * abs(c) for key, c in derivs[-1].items()})
    # one correctly rounded conversion per coefficient, covered by EPS
    out: LogPower = {}
    for key in sorted(exact.keys() | rem.keys()):
        c, r = exact[key], rem[key]
        out[(float(key[0]), key[1])] = (float(c), float(r) + EPS * float(abs(c) + r))
    return out


def _lp_tail(lp: LogPower, U: int) -> Interval:
    """Enclosure of sum_{u>U} of the LP form, U >= 1."""
    unit_tails = _EM_TAILS.setdefault(U, {})  # (p, k) -> sum_{u>U} u^-p ln(u)^k
    mid = absmid = rad = 0.0
    for key, (am, ar) in lp.items():
        t = unit_tails.get(key)
        if t is None:
            t = unit_tails[key] = _lp_eval(_unit_resum(*key), U)
        bm, br = t
        m = am * bm
        r = abs(am) * br + abs(bm) * ar + ar * br + EPS * abs(m)
        mid += m
        absmid += abs(m)
        rad += r
    return (mid, rad + EPS * (absmid + rad) * (len(lp) + 2))


def _lp_resum(lp: LogPower) -> LogPower:
    """The LP form of u |-> sum_{y>u} f(y), where f is the given LP form."""
    return _lp_sum(*(_lp_scale(_unit_resum(*key), c) for key, c in lp.items()))


def _lp_harmonic() -> LogPower:
    """H_u = ln u + gamma + 1/(2u) - 1/(12u^2) + [0, 1/(120u^4)], u >= 1.

    The asymptotic series of H_u encloses: the error of a truncation has
    the sign of the first omitted term and is smaller in size.
    """
    return {
        (0.0, 1): (1.0, 0.0),
        (0.0, 0): (EULER_GAMMA, EPS),
        (1.0, 0): (0.5, 0.0),
        (2.0, 0): (-1.0 / 12.0, EPS),
        (4.0, 0): (1.0 / 240.0, 1.0 / 240.0 + EPS),
    }


# ---------------------------------------------------------------------------
# the workspace, certified tables, the cutoff ladder and the outer sum

_ATOMS: dict[tuple, object] = {}  # atom -> its value, or a refusal no tolerance lifts
_TABLES: dict[tuple, tuple] = {}  # (tag, integers) -> certified arrays


def clear_caches() -> None:
    """Empty the workspace, ``_ATOMS`` and ``_TABLES`` (used for cold timing
    runs).  Each entry is keyed by its atom or its integers alone, so until
    this is called a later request reads what an earlier one built.

    The partial fractions of ``_pieces``, the LP brackets of ``_fn_lp``,
    ``_lp_product`` and ``_lp_e3_parts``, the Euler-Maclaurin forms of
    ``_unit_resum`` and their values at each cutoff depend on their
    integers (and the cutoff) alone; the exact rewrites of
    ``reduce.reduce_general_witten``, ``reduce.reduce_unit_witten`` (and
    its rows) and ``reduce.reduce_mt``, the columns and Euler blocks
    ``reduce.reduce_witten`` combines, the interned Euler-sum atoms and
    terms, and the atom, term, coefficient and ``coef * term`` literals of
    ``exact.parse``, on their integers or literal alone.  They are kept,
    so a process that patches the engine (``EPS``, say) must do so before
    the first form is built.
    """
    _ATOMS.clear()
    _TABLES.clear()


# Every ladder stops by 256 on the default sweep, and numpy costs per call,
# not per entry, at that length: one build of this length serves them all.
_TABLE_LEN = 256


def _table(key: tuple, U: int, build) -> tuple[np.ndarray, ...]:
    """Entries 0..U of the cached arrays under ``key``; ``build(n)`` gives
    arrays of n + 1 entries (shared: do not mutate).

    Every table is prefix-stable, entry k the same whatever the length, so
    a longer cached table answers a shorter request and the rungs of a
    ladder read slices of one table.
    """
    hit = _TABLES.get(key)
    if hit is None or hit[0].size <= U:
        hit = _TABLES[key] = build(max(U, _TABLE_LEN))
    n = U + 1
    return tuple([a[:n] for a in hit])


def _power_array(U: int, e: int) -> np.ndarray:
    """[0, 1^-e, 2^-e, ..., U^-e] with an unused zero slot."""

    def build(n: int) -> tuple[np.ndarray]:
        arr = np.zeros(n + 1)
        arr[1:] = np.arange(1, n + 1, dtype=float) ** float(-e)
        return (arr,)

    return _table(("pow", e), U, build)[0]


def _cached_atom(kind: str, indices: tuple, compute) -> Evaluation:
    """The outcome of ``compute()`` memoized under ``(kind,) + indices``:
    its value, or its refusal, raised again on every later request."""
    key = (kind,) + indices
    hit = _ATOMS.get(key)
    if hit is None:
        try:
            hit = compute()
        except WreduceError as exc:
            # the class and message only: a traceback would pin the frames
            _ATOMS[key] = (type(exc), exc.message)
            raise
        _ATOMS[key] = hit
    if isinstance(hit, Evaluation):
        return hit
    kind, message = hit
    raise kind(message)


def _checked(ev: Evaluation, cfg: SummationConfig, what) -> Evaluation:
    """``ev`` if its radius is within the request's tolerance, else the
    refusal naming ``what()``: the one place a tolerance is compared."""
    if ev.radius > cfg.tolerance:
        raise ToleranceUnreachable(
            f"{what()}: certified radius {ev.radius:.3e} exceeds {cfg.tolerance:.3e}"
        )
    return ev


def _cutoff(tail_at, box_at, start: int = 32) -> Evaluation:
    """The sum cut at the first of start, 2 start, 4 start, ... whose tail
    radius is no larger than its box radius, or at ``MAX_TERMS``, which
    clamps the ladder.

    ``tail_at(n)`` and ``box_at(n)`` enclose the sum past n and up to n.  The
    box radius, the rounding of a longer sum, only grows with n, so a later
    cutoff would certify at least half of this radius.
    """
    n = start
    while True:
        tail = tail_at(n)
        box = box_at(n)
        if tail[1] <= box[1] or n >= MAX_TERMS:
            return Evaluation(box[0] + tail[0], tail[1] + box[1], n)
        n = min(2 * n, MAX_TERMS)


def _outer_sum(e: int, first: int, table, tail, start: int = 32) -> Evaluation:
    """sum_{u>=first} u^-e T(u), cut by ``_cutoff``: the outer sum that
    every sum but zeta's ends in.

    ``table(n)`` gives the (mid, rad) arrays of T(first..n), and ``tail(n)``
    encloses the sum past n.  The box is one ``_dot`` of those arrays
    against the powers u^-e.  With ``first = 0`` the unused zero slot of the
    powers weights T(0) by zero.
    """
    return _cutoff(
        tail, lambda n: _dot(_power_array(n, e)[first:], *table(n)), start=start
    )


# ---------------------------------------------------------------------------
# single zeta


def _zeta_value(s: int) -> Evaluation:
    """zeta(s) at its best value (no tolerance involved)."""
    return _cached_atom("Z", (s,), lambda: _zeta(s))


def _zeta(s: int) -> Evaluation:
    lp = {(float(s), 0): (1.0, 0.0)}

    def box_at(N: int) -> Interval:
        P, prad = _prefix_table(s, N)
        return P[N], prad[N]

    return _cutoff(lambda n: _lp_tail(lp, n), box_at)


def _prefix_table(j: int, U: int) -> tuple[np.ndarray, np.ndarray]:
    """(mid, rad) arrays of P_j[u] = sum_{m<=u} m^-j for u = 0..U."""

    def build(n: int) -> tuple[np.ndarray, np.ndarray]:
        if j == 0:
            return (np.arange(n + 1, dtype=float), np.zeros(n + 1))  # integers, exact
        return _prefix_sums(_power_array(n, j)[1:])

    return _table(("P", j), U, build)


# ---------------------------------------------------------------------------
# the functions of u that the outer sums weight
#
# Each is named by a key, and its two views are built from that key alone:
# ``_fn_table`` gives its certified table, ``_fn_lp`` its LP bracket.
#   ("H",)       H_u = sum_{m<=u} 1/m
#   ("Z", j)     the constant zeta(j), at its best value
#   ("t", j)     the zeta tail t_j(u) = sum_{m>u} m^-j
#   ("P-", j)    the prefix power sum P_j(u-1) = sum_{m<u} m^-j
#   ("G", c, f)  the shifted pair sum G_{c,f}(u) = sum_{m>=1} m^-c (u+m)^-f,
#                c, f >= 1; ``_g`` names G_{0,f} = t_f and G_{c,0} = zeta(c)
#   ("S", a, b)  the pair sum S_{a,b}(u) = sum_{m1+m2=u} m1^-a m2^-b
# G and S are sums of pieces coef * u^-pw * base(u) over the first four,
# their partial fractions (``_pieces``).  For G,
#   1/(m^c (u+m)^f) = sum_{j<=c} A_j/m^j + sum_{j<=f} B_j/(u+m)^j
#   A_j = (-1)^(c-j) C(c+f-j-1, f-1) u^-(c+f-j)
#   B_j = (-1)^c     C(c+f-j-1, c-1) u^-(c+f-j)
# The j = 1 pieces are individually divergent but pair into A_1 * H_u; the
# pairing is exact because the two binomials coincide, which is asserted.
# For S, those of m1^-a (u-m1)^-b (Huard, Williams and Zhang, eq. 3):
#   S_{a,b}(u) = sum_j w_j u^-(a+b-j) P_j(u-1)
# with the weights w_j of ``reduce.pair_sum_weights``: the unsigned G
# weights, since both halves of the split sum to the same prefix.

def _g_pf_coeffs(c: int, f: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    # x = 1/m and y = 1/(u+m) obey xy = (x - y)/u: x^c y^f telescopes at
    # (p, q) = (-1, 1), each step giving up one power of 1/u
    left, right = pair_recurrence_weights(c, f, -1, 1)
    A = [(w, c + f - j) for j, w in right]
    B = [(w, c + f - j) for j, w in left]
    if A[0][0] + B[0][0] != 0:
        raise InternalNoncancellation(
            f"pair-sum partial fractions for (c,f)=({c},{f}) leave a divergent piece"
        )
    return A, B


def _g(c: int, f: int) -> tuple:
    """The key of G_{c,f}, which must converge: every caller checks
    c + f >= 2, c >= 2 when f = 0 and f >= 2 when c = 0 first."""
    return ("t", f) if c == 0 else ("Z", c) if f == 0 else ("G", c, f)


@functools.cache
def _pieces(key: tuple) -> tuple[tuple[int, int, tuple], ...]:
    """G or S as (coef, pw, base): the sum of coef * u^-pw * base(u)."""
    tag, x, y = key
    if tag == "S":
        return tuple([(w, x + y - j, ("P-", j)) for j, w in pair_sum_weights(x, y).items()])
    A, B = _g_pf_coeffs(x, y)
    # A_1 H_u absorbs the divergent B_1 piece; the rest are zetas and zeta tails
    return (
        ((*A[0], ("H",)),)
        + tuple([(coef, pw, ("Z", x + y - pw)) for coef, pw in A[1:]])
        + tuple([(coef, pw, ("t", j)) for j, (coef, pw) in enumerate(B[1:], start=2)])
    )


def _fn_table(key: tuple, U: int) -> tuple[np.ndarray, np.ndarray]:
    """(mid, rad) arrays of the function ``key`` names for u = 0..U (shared:
    do not mutate).  Slot 0 of G is unused; P_j(-1) = 0, so S(0) = S(1) = 0
    exactly."""
    tag = key[0]
    if tag == "H":
        return _prefix_table(1, U)

    def build(n: int) -> tuple[np.ndarray, np.ndarray]:
        if tag == "Z":
            z = _zeta_value(key[1])
            return np.full(n + 1, z.midpoint), np.full(n + 1, z.radius)
        if tag == "t":
            z = _zeta_value(key[1])
            P, prad = _prefix_table(key[1], n)
            t = z.midpoint - P
            return t, z.radius + prad + EPS * np.abs(t)
        if tag == "P-":
            return tuple([np.concatenate(([0.0], a[:-1])) for a in _prefix_table(key[1], n)])
        u = np.arange(0, n + 1, dtype=float)
        u[0] = 1.0  # avoid 0^-k warnings; slot 0 is unused or weighs P_j(-1) = 0
        pieces = _pieces(key)
        mid, absmid, rad = np.zeros((3, n + 1))
        for coef, pw, base in pieces:
            pmid, prad = _fn_table(base, n)
            scale = coef * u ** float(-pw)
            term = scale * pmid
            mid += term
            absmid += np.abs(term)
            rad += np.abs(scale) * prad
        # G's signs alternate, so the rounding is charged against the pieces
        rad += _gamma(len(pieces)) * (absmid + rad)
        return mid, rad

    return _table(key, U, build)


# Each LP bracket is a pure function of its key (a zeta in it is that zeta's
# one certified value), so it is built once per process and shared,
# read-only, by every later request: do not mutate.  ``_lp_mul`` runs only
# inside these builders and ``_lp_e3_parts``.

@functools.cache
def _fn_lp(key: tuple) -> LogPower:
    """Two-sided LP enclosure of the function ``key`` names, valid for u >= 2."""
    tag = key[0]
    if tag == "H":
        return _lp_harmonic()
    if tag == "Z":
        z = _zeta_value(key[1])
        return {(0.0, 0): (z.midpoint, z.radius)}
    if tag == "t":
        return _lp_resum({(float(key[1]), 0): (1.0, 0.0)})
    if tag == "P-":
        j = key[1]
        if j == 0:
            return {(-1.0, 0): (1.0, 0.0), (0.0, 0): (-1.0, 0.0)}  # u - 1
        if j == 1:
            return _lp_sum(_fn_lp(("H",)), {(1.0, 0): (-1.0, 0.0)})  # H_{u-1} = H_u - 1/u
        tail_prev = _lp_sum(_fn_lp(("t", j)), {(float(j), 0): (1.0, 0.0)})  # t_j(u-1)
        return _lp_sum(_fn_lp(("Z", j)), _lp_scale(tail_prev, (-1.0, 0.0)))  # zeta(j) - t_j(u-1)
    return _lp_sum(*(
        _lp_scale(_lp_shift(_fn_lp(base), float(pw)), (float(coef), 0.0))
        for coef, pw, base in _pieces(key)
    ))


@functools.cache
def _lp_product(x: tuple, y: tuple) -> LogPower:
    """LP enclosure of the product of the functions ``x`` and ``y`` name."""
    return _lp_mul(_fn_lp(x), _fn_lp(y))


def _fn_sum(e: int, first: int, *keys: tuple) -> Evaluation:
    """sum_{u>=first} u^-e T(u), T the function one key names, or the product
    of the two that two keys name: the outer sum of E2, MT and the
    collapsed and hub W.  The tail sums T's LP bracket shifted by e."""
    lp = _lp_shift(_fn_lp(*keys) if len(keys) == 1 else _lp_product(*keys), float(e))

    def table(n: int) -> tuple[np.ndarray, np.ndarray]:
        (xm, xr), *other = [_fn_table(key, n) for key in keys]
        for ym, yr in other:
            # the interval product, entry by entry
            xm, xr = xm * ym, np.abs(xm) * yr + np.abs(ym) * xr + xr * yr
        return xm[first:], xr[first:]

    return _outer_sum(e, first, table, lambda n: _lp_tail(lp, n))


# ---------------------------------------------------------------------------
# Mordell-Tornheim double sums

def _mt(a: int, b: int, c: int) -> Evaluation:
    if c == 0:
        return _product([_zeta_value(a), _zeta_value(b)])
    # the outer sum over m2 of m2^-b G_{a,c}(m2); MT's own convergence
    # conditions are those of G_{a,c}
    return _fn_sum(b, 1, _g(a, c))


# ---------------------------------------------------------------------------
# Euler sums: the outer sums over x of x^-s1 P_{s2}(x-1) and x^-s1 D(x-1)

def _euler2(s1: int, s2: int) -> Evaluation:
    # P_{s2}(0) = 0, so the outer sum starts at x = 2
    return _fn_sum(s1, 2, ("P-", s2))


@functools.cache
def _lp_e3_parts(s1: int, s2: int, s3: int) -> LogPower:
    """LP form (in y) of y^-s2 P_{s3}(y-1) t_{s1}(y), t_j(y) = sum_{x>y} x^-j;
    every entry has p >= s1 + s2 - 1 >= 2 (shared: do not mutate)."""
    return _lp_shift(_lp_mul(_fn_lp(("P-", s3)), _fn_lp(("t", s1))), float(s2))


def _euler3(s1: int, s2: int, s3: int) -> Evaluation:
    def d_table(n: int) -> tuple[np.ndarray, np.ndarray]:
        # D(u) = sum_{y<=u} y^-s2 P_{s3}(y-1) for u = 0..n
        q, qrad = _prefix_table(s3, n)
        w = _power_array(n, s2)[1:]
        return _prefix_sums(w * q[:-1], w * qrad[:-1])

    unit = {(float(s1), 0): (1.0, 0.0)}
    parts = _lp_e3_parts(s1, s2, s3)

    def tail(n: int) -> Interval:
        # past n, D(x-1) = D(n) + sum_{n<y<x} y^-s2 P_{s3}(y-1), all terms
        # nonnegative, so by parts the tail is D(n) t_{s1}(n) plus the sum
        # over y > n of y^-s2 P_{s3}(y-1) t_{s1}(y)
        d, drad = (float(t[n]) for t in _table(("D", s2, s3), n, d_table))
        hm, hr = _imul((d, drad), _lp_tail(unit, n))
        pm, pr = _lp_tail(parts, n)
        return hm + pm, hr + pr + EPS * abs(hm + pm)

    # D(0) = D(1) = 0, so the outer sum starts at x = 3.  At 32 the tail
    # radius is above the box radius for all but 126 of the 2985 depth-3
    # sums of the THM22 full reductions, so the ladder starts one rung up
    return _outer_sum(
        s1, 3, lambda n: tuple([t[2:-1] for t in _table(("D", s2, s3), n, d_table)]),
        tail, start=64,
    )


# ---------------------------------------------------------------------------
# triple sums with a zero composite exponent: one outer sum of two factors
#
# With s5 = 0 and u = m1 + m2 the sum factors through the pair sum over
# (m1, m2) and the shifted pair sum over m3 (the collapsed path):
#   W = sum_u u^-s4 S_{s1,s2}(u) G_{s3,s6}(u).
# With s6 = 0, m1 and m3 meet only through m2 (the hub path):
#   W = sum_u u^-s2 G_{s1,s4}(u) G_{s3,s5}(u).

def _eval_w4_collapsed(s: tuple[int, ...]) -> Evaluation:
    s1, s2, s3, s4, _s5, s6 = s
    c, f = s3, s6
    if c + f < 2 or (f == 0 and c < 2) or (c == 0 and f < 2):
        raise ConvergenceUnverified(f"W{s}: the m3 direction cannot be certified")
    return _fn_sum(s4, 0, ("S", s1, s2), _g(c, f))


# ---------------------------------------------------------------------------
# triple-sum dispatch

def _witten4(atom: WittenSl4) -> Evaluation:
    s = atom.s
    s1, s2, s3, s4, s5, s6 = s
    if s1 + s4 + s6 == 0 or s2 + s4 + s5 + s6 == 0 or s3 + s5 + s6 == 0:
        raise ConvergenceUnverified(f"W{s}: a summation variable carries no weight")
    if s4 == 0 and s5 == 0 and s6 == 0:
        # no composite factor: a plain product of single zetas
        if min(s1, s2, s3) < 2:
            raise ConvergenceUnverified(f"W{s}: a factored direction diverges")
        return _product([_zeta_value(e) for e in (s1, s2, s3)])
    if s5 == 0:
        return _eval_w4_collapsed(s)
    if s4 == 0:
        # relabel m1 <-> m3 onto the collapsed form; never used by the
        # symmetry identity, whose tuples keep both composites positive
        return _eval_w4_collapsed(atom.mirror().s)
    # outside the collapsed family, certification is offered only on
    # the directional-exponent gate
    sigma1 = s1 + s4 + s6
    sigma2 = s2 + s4 + s5 + s6
    sigma3 = s3 + s5 + s6
    if min(sigma1, sigma2, sigma3) < 3 or sum(s) < 4:
        raise ConvergenceUnverified(
            f"W{s}: directional exponents {(sigma1, sigma2, sigma3)} "
            "below the certifiable range"
        )
    if s6 == 0:
        # the hub path; the gate (s1 + s4, s3 + s5 >= 3) makes both G converge
        return _fn_sum(s2, 0, _g(s1, s4), _g(s3, s5))
    if s1 == s2 == s3 == 0 and s6 < 2:
        # convergent, but its Euler sums would lead with a 1
        raise ToleranceUnreachable(f"W{s}: a triangle with s6 = 1 has no certified evaluator")
    # every composite exponent positive: the exact partial fractions, each
    # terminal at its best value
    return _combination(
        reduce_general_witten(atom),
        lambda term: _product([_atom_value(a) for a in term.factors]),
    )


# ---------------------------------------------------------------------------
# atoms, terms, combinations
#
# Each atom is evaluated once per workspace, to the radius its own
# ladder reaches; products and combinations are interval arithmetic on those
# values.  Only the public functions compare a result with the request's
# tolerance, so an atom or a term above it is refused by name before the
# combination that holds it.

def _atom_value(atom: Atom) -> Evaluation:
    """The atom's best certified value, or its refusal."""
    if isinstance(atom, SingleZeta):
        return _zeta_value(atom.s)
    if isinstance(atom, EulerSum):
        kernel = _euler2 if len(atom.indices) == 2 else _euler3
        return _cached_atom("E", atom.indices, lambda: kernel(*atom.indices))
    if isinstance(atom, MordellTornheim3):
        indices = (atom.a, atom.b, atom.c)
        return _cached_atom("MT", indices, lambda: _mt(*indices))
    if isinstance(atom, WittenSl4):
        return _cached_atom("W", atom.s, lambda: _witten4(atom))
    raise UnsupportedParams(f"unknown atom {atom!r}")


def _product(evs: list[Evaluation]) -> Evaluation:
    """The product of the factors' enclosures; 1 for no factor."""
    if not evs:
        return Evaluation(1.0, 0.0, 0)
    result = (evs[0].midpoint, evs[0].radius)
    for ev in evs[1:]:
        result = _imul(result, (ev.midpoint, ev.radius))
    return Evaluation(result[0], result[1], max(ev.terms for ev in evs))


def _combination(lc: LinearCombination, term_value) -> Evaluation:
    """Enclosure of sum c * term over ``lc``, each term given by ``term_value``."""
    entries = lc.items()
    mid = absmid = rad = 0.0
    terms = 0
    for term, coef in entries:
        try:
            c = float(coef)
        except OverflowError:
            # as a finite coefficient whose product overflows: radius inf
            raise ToleranceUnreachable(f"coefficient {coef} is beyond the float64 range") from None
        ev = term_value(term)
        mid += c * ev.midpoint
        absmid += abs(c * ev.midpoint)
        # gamma covers relative error only: below the normal range the
        # conversion of c errs by up to half a subnormal ulp, and each product
        # by as much again
        rad += abs(c) * ev.radius + math.ulp(0.0) * (abs(ev.midpoint) + ev.radius + 2.0)
        terms = max(terms, ev.terms)
    rad += _gamma(len(entries)) * (absmid + rad)
    return Evaluation(mid, rad, terms)


def eval_zeta(s: int, cfg: SummationConfig) -> Evaluation:
    return _checked(_zeta_value(s), cfg, lambda: f"zeta({s})")


def eval_euler(atom: EulerSum, cfg: SummationConfig) -> Evaluation:
    return _checked(_atom_value(atom), cfg, atom.render)


def eval_mt(atom: MordellTornheim3, cfg: SummationConfig) -> Evaluation:
    return _checked(_atom_value(atom), cfg, atom.render)


def eval_witten4(atom: WittenSl4, cfg: SummationConfig) -> Evaluation:
    return _checked(_atom_value(atom), cfg, atom.render)


def eval_atom(atom: Atom, cfg: SummationConfig) -> Evaluation:
    if isinstance(atom, SingleZeta):
        return eval_zeta(atom.s, cfg)
    if isinstance(atom, EulerSum):
        return eval_euler(atom, cfg)
    if isinstance(atom, MordellTornheim3):
        return eval_mt(atom, cfg)
    if isinstance(atom, WittenSl4):
        return eval_witten4(atom, cfg)
    raise UnsupportedParams(f"unknown atom {atom!r}")


def eval_term(term: Term, cfg: SummationConfig) -> Evaluation:
    return _checked(_product([eval_atom(f, cfg) for f in term.factors]), cfg, term.render)


def eval_lincomb(lc: LinearCombination, cfg: SummationConfig) -> Evaluation:
    ev = _combination(lc, lambda term: eval_term(term, cfg))
    return _checked(ev, cfg, lambda: f"combination of {len(lc)} terms")
