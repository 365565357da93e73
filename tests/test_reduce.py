"""Symbolic layer against the exact shell oracles.

Every reduction that is a shell-preserving rearrangement is compared to
the plain lattice shell sum in Fraction arithmetic: equality must hold
at every finite truncation, not just in the limit, so a single wrong
binomial coefficient shows up as a nonzero rational difference.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import oracles
from wreduce.errors import InadmissibleIndex, InadmissibleOutput, UnsupportedParams
from wreduce.exact import (
    EulerSum,
    LinearCombination,
    MordellTornheim3,
    SingleZeta,
    Term,
    WittenSl4,
    intern_term,
    parse,
    parse_atom,
    parse_term,
)
from wreduce.reduce import (
    VARIANTS,
    _euler,
    _unit_row,
    exchange_weights,
    four_term_lhs,
    four_term_rhs,
    pair_recurrence_weights,
    reduce_any,
    reduce_general_witten,
    reduce_mt,
    reduce_unit_witten,
    reduce_witten,
    unit_pair_split,
    unit_tail_expand,
)


def shell_value(lc: LinearCombination, K: int) -> Fraction:
    """Shell-evaluate a combination whose terms have known lattice shells.

    Joint products Z(i)*MT(a,b,c) live on the three-variable shell, like
    every other term produced by the triple-sum reductions.
    """
    tot = Fraction(0)
    for term, coeff in lc.items():
        fs = term.factors
        if len(fs) == 0:
            tot += coeff
        elif len(fs) == 1:
            f = fs[0]
            if isinstance(f, EulerSum):
                if len(f.indices) == 2:
                    tot += coeff * oracles.euler2_shell(*f.indices, K)
                else:
                    tot += coeff * oracles.euler3_shell(*f.indices, K)
            elif isinstance(f, MordellTornheim3):
                tot += coeff * oracles.mt_shell(f.a, f.b, f.c, K)
            elif isinstance(f, WittenSl4):
                tot += coeff * oracles.w4_shell(f.s, K)
            elif isinstance(f, SingleZeta):
                tot += coeff * sum(
                    Fraction(1, n**f.s) for n in range(1, K + 1)
                )
            else:
                raise AssertionError(f"unexpected factor {f!r}")
        elif len(fs) == 2 and isinstance(fs[0], SingleZeta) and isinstance(
            fs[1], MordellTornheim3
        ):
            z, mt = fs
            tot += coeff * oracles.zeta_mt_shell(z.s, mt.a, mt.b, mt.c, K)
        else:
            raise AssertionError(f"no shell rule for term {term.render()}")
    return tot


# ---------------------------------------------------------------------------
# the two-index telescoping weights

def _surrogate_total(a, b, s, p, q, x, y):
    z = x * y / (p * y + q * x)
    left, right = pair_recurrence_weights(a, b, p, q)
    tot = Fraction(0)
    for j, w in left:
        tot += w * x**0 * y**j * z ** (a + b + s - j)
    for j, w in right:
        tot += w * x**j * y**0 * z ** (a + b + s - j)
    return tot, x**a * y**b * z**s


@pytest.mark.parametrize(
    "p,q",
    [
        (Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(1)),
        (Fraction(2), Fraction(3)),
        (Fraction(1), Fraction(-2)),
    ],
)
def test_pair_recurrence_weights_telescope_exactly(p, q):
    x, y = Fraction(5, 2), Fraction(7, 3)
    for a in range(1, 7):
        for b in range(1, 7):
            for s in (0, 1, 4):
                got, want = _surrogate_total(a, b, s, p, q, x, y)
                assert got == want, (a, b, s, p, q)


def test_pair_recurrence_weights_reject_empty_sides():
    with pytest.raises(InadmissibleIndex):
        pair_recurrence_weights(0, 2, Fraction(1), Fraction(1))
    with pytest.raises(InadmissibleIndex):
        pair_recurrence_weights(2, 0, Fraction(1), Fraction(1))


# ---------------------------------------------------------------------------
# double-sum reduction

def test_reduce_mt_shell_exact():
    # a zero exponent takes the closed forms: a = 0 is E(c, b) and
    # a = b = 0 is Z(c-1) - Z(c), both exact on the shell
    K = 14
    for a in range(7):
        for b in range(7):
            for c in range(1, 7):
                if a + b + c > 8 or min(a, b) + c < 2 or a + b + c < 3:
                    continue
                out = reduce_mt(MordellTornheim3(a, b, c))
                assert shell_value(out, K) == oracles.mt_shell(a, b, c, K), (a, b, c)


def test_reduce_mt_factors_without_a_composite_exponent():
    # c = 0 is Z(a) Z(b), which the square box m1, m2 <= K truncates to
    # P_a(K) P_b(K)
    K = 9

    def prefix(s):
        return sum(Fraction(1, n**s) for n in range(1, K + 1))

    for a in range(2, 6):
        for b in range(2, 6):
            out = reduce_mt(MordellTornheim3(a, b, 0))
            ((term, coeff),) = out.items()
            assert coeff == 1 and all(isinstance(z, SingleZeta) for z in term.factors)
            got = prefix(term.factors[0].s) * prefix(term.factors[1].s)
            box = sum(
                Fraction(1, m1**a * m2**b) for m1 in range(1, K + 1) for m2 in range(1, K + 1)
            )
            assert got == box, (a, b)


def test_reduce_mt_outputs_are_admissible_depth_two():
    for (a, b, c) in [(1, 1, 1), (3, 2, 1), (2, 2, 2), (1, 4, 2)]:
        out = reduce_mt(MordellTornheim3(a, b, c))
        for term, coeff in out.items():
            assert coeff.denominator == 1
            (f,) = term.factors
            assert isinstance(f, EulerSum)
            assert len(f.indices) == 2
            assert f.indices[0] >= 2


def test_reduce_mt_pinned_instance():
    out = reduce_mt(MordellTornheim3(2, 2, 2))
    want = LinearCombination.from_term(
        Term((EulerSum((5, 1)),)), Fraction(4)
    ) + LinearCombination.from_term(Term((EulerSum((4, 2)),)), Fraction(2))
    assert out == want


# ---------------------------------------------------------------------------
# the four-term exchange relation

def test_four_term_strays_cancel_for_all_small_pairs():
    for a in range(1, 7):
        for b in range(1, 7):
            lhs = four_term_lhs(a, b, (2, 2, 2))
            rhs = four_term_rhs(a, b, (2, 2, 2))
            for lc in (lhs, rhs):
                for term, _ in lc.items():
                    for f in term.factors:
                        if isinstance(f, SingleZeta):
                            assert f.s >= 2
                        if isinstance(f, EulerSum):
                            assert f.indices[0] >= 2


def test_four_term_weight_homogeneous():
    lhs = four_term_lhs(2, 3, (2, 3, 2))
    rhs = four_term_rhs(2, 3, (2, 3, 2))
    assert {t.weight for t, _ in lhs.items()} == {12}
    assert {t.weight for t, _ in rhs.items()} == {12}


# ---------------------------------------------------------------------------
# unit-exponent reductions

def test_exchange_weights_match_unmerged_columns():
    for a in range(1, 6):
        for b in range(1, 6):
            left, right = pair_recurrence_weights(a, b, Fraction(1), Fraction(1))
            merged: dict[int, Fraction] = {}
            for j, w in left + right:
                merged[j] = merged.get(j, Fraction(0)) + w
            got = dict(exchange_weights(a, b))
            assert got == {j: w for j, w in merged.items() if w != 0}, (a, b)


def test_unit_row_exchange_shell_exact():
    K = 12
    for (a, b, d) in [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 1), (3, 1, 2)]:
        lhs = oracles.w4_shell((a, b, 1, d, 0, 1), K)
        rhs = Fraction(0)
        for i, w in exchange_weights(a, b):
            rhs += w * oracles.w4_shell((i, 0, 1, a + b + d - i, 0, 1), K)
        # the merged column weights rely on the swap symmetry
        # W(0,i,...) = W(i,0,...), itself shell-preserving
        assert oracles.lemma_unit_rows_shell(a, b, d, K) == lhs, (a, b, d)
        assert rhs == lhs, (a, b, d)


def test_unit_pair_split_shell_exact():
    K = 12
    for (a, d) in [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)]:
        tail, rest = unit_pair_split(a, d)
        assert tail == WittenSl4((a, 0, 1, 0, 0, d + 1))
        got = oracles.w4_shell(tail.s, K) + shell_value(rest, K)
        assert got == oracles.w4_shell((a, 0, 1, d, 0, 1), K), (a, d)


def test_unit_tail_expand_shell_exact():
    K = 12
    for (a, dd) in [(1, 2), (2, 2), (1, 3), (3, 2), (2, 4)]:
        out = unit_tail_expand(a, dd)
        assert shell_value(out, K) == oracles.w4_shell((a, 0, 1, 0, 0, dd), K), (a, dd)


def test_reduce_unit_witten_shell_exact_and_admissible():
    K = 12
    for a in range(1, 5):
        for b in range(1, 5):
            for d in range(1, 5):
                if a + b + d > 8:
                    continue
                out = reduce_unit_witten(a, b, d)
                assert shell_value(out, K) == oracles.w4_shell(
                    (a, b, 1, d, 0, 1), K
                ), (a, b, d)
                for term, coeff in out.items():
                    assert coeff.denominator == 1
                    (f,) = term.factors
                    assert isinstance(f, EulerSum)
                    assert len(f.indices) == 3
                    assert f.indices[0] >= 2


# ---------------------------------------------------------------------------
# the one-step depth reduction

def test_reduce_witten_shell_exact_eq22():
    K = 12
    grid = [
        (1, 1, 2, 1, 1), (2, 1, 2, 1, 2), (1, 2, 1, 1, 2), (2, 1, 1, 1, 2),
        (1, 1, 2, 2, 2), (2, 2, 2, 1, 1), (1, 1, 3, 1, 2), (3, 1, 2, 1, 1),
    ]
    for (a, b, c, d, f) in grid:
        out = reduce_witten(WittenSl4((a, b, c, d, 0, f)), variant="eq22")
        assert shell_value(out, K) == oracles.w4_shell(
            (a, b, c, d, 0, f), K
        ), (a, b, c, d, f)


def test_reduce_witten_matches_independent_rhs_transcription():
    K = 11
    for variant in VARIANTS:
        for (a, b, c, d, f) in [(2, 1, 2, 1, 2), (1, 2, 1, 1, 2), (2, 2, 2, 1, 1)]:
            out = reduce_witten(WittenSl4((a, b, c, d, 0, f)), variant=variant)
            assert shell_value(out, K) == oracles.w4_reduction_rhs_shell(
                a, b, c, d, f, K, variant
            ), (a, b, c, d, f, variant)


def test_rejected_variant_differs_at_discriminating_points():
    K = 11
    lhs = oracles.w4_shell((2, 1, 2, 1, 0, 2), K)
    good = shell_value(reduce_witten(WittenSl4((2, 1, 2, 1, 0, 2)), variant="eq22"), K)
    bad = shell_value(
        reduce_witten(WittenSl4((2, 1, 2, 1, 0, 2)), variant="paper-final"), K
    )
    assert good == lhs
    assert bad != lhs


def test_variants_coincide_when_binomial_lower_index_vanishes():
    # with a = b = 1 the inner binomials agree (C(1-j, 0) = C(1+j, 0) = 1
    # at j = 1), so these points cannot discriminate between the
    # transcriptions; with f = 1 the inner loop is empty outright
    for s in [(1, 1, 2, 1, 0, 2), (1, 1, 2, 1, 0, 1), (1, 1, 3, 2, 0, 1)]:
        atom = WittenSl4(s)
        assert reduce_witten(atom, variant="eq22") == reduce_witten(
            atom, variant="paper-final"
        ), s


def test_reduce_witten_unit_short_circuit():
    out = reduce_witten(WittenSl4((1, 1, 1, 1, 0, 1)))
    assert out == reduce_unit_witten(1, 1, 1)


def test_reduce_witten_factor_corner():
    out = reduce_witten(WittenSl4((2, 2, 3, 2, 0, 0)))
    assert out == LinearCombination.from_term(
        Term((SingleZeta(3), MordellTornheim3(2, 2, 2))), Fraction(1)
    )


def test_reduce_witten_domain_checks():
    with pytest.raises(UnsupportedParams):
        reduce_witten(WittenSl4((0, 1, 2, 1, 0, 1)))
    with pytest.raises(UnsupportedParams):
        reduce_witten(WittenSl4((1, 1, 2, 1, 1, 1)))  # live fifth exponent
    with pytest.raises(UnsupportedParams):
        reduce_witten(WittenSl4((1, 1, 0, 1, 0, 0)))


def test_full_expansion_is_terminal():
    for (a, b, c, d, f) in [(2, 2, 2, 2, 2), (1, 1, 2, 1, 1), (2, 1, 2, 1, 2)]:
        out = reduce_witten(
            WittenSl4((a, b, c, d, 0, f)),
            expand_remainder=True,
            expand_mt=True,
        )
        w = a + b + c + d + f
        for term, coeff in out.items():
            assert coeff.denominator == 1
            assert term.weight == w
            for fac in term.factors:
                assert not isinstance(fac, (WittenSl4, MordellTornheim3))
                if isinstance(fac, EulerSum):
                    assert fac.indices[0] >= 2
                if isinstance(fac, SingleZeta):
                    assert fac.s >= 2


def test_reduce_any_distributes_over_terms():
    lc = LinearCombination.from_atom(WittenSl4((1, 1, 1, 1, 0, 1))) + (
        LinearCombination.from_atom(MordellTornheim3(2, 2, 2)).scale(Fraction(3))
    )
    out = reduce_any(lc, expand_mt=True)
    direct = reduce_unit_witten(1, 1, 1) + reduce_mt(MordellTornheim3(2, 2, 2)).scale(
        Fraction(3)
    )
    assert out == direct


def test_expand_mt_keeps_the_unexpanded_remainder():
    atom = WittenSl4((2, 1, 2, 1, 0, 2))
    out = reduce_witten(atom, expand_remainder=False, expand_mt=True)
    atoms = [fac for term, _ in out.items() for fac in term.factors]
    assert not any(isinstance(fac, MordellTornheim3) for fac in atoms)
    assert [fac for fac in atoms if isinstance(fac, WittenSl4)] == [
        WittenSl4((2, 1, 1, 3, 0, 1))
    ]
    # substituting the remainder afterwards gives the complete reduction
    full = reduce_witten(atom, expand_remainder=True, expand_mt=True)
    assert reduce_any(out, expand_remainder=True, expand_mt=True) == full


# sha256 of the 792 renders below, joined by newlines, as produced by the
# term-by-term reference implementation; any change in a coefficient, a
# term or the rendering order changes it
FULL_REDUCTION_DIGEST = "ef0a6e6627c89d4ff0befd7a9833a4ee39eef4c067004e81c889dac5a694ef0d"


def test_full_reductions_render_golden():
    renders = [
        reduce_witten(
            WittenSl4((a, b, c, d, 0, f)), expand_remainder=True, expand_mt=True
        ).render()
        for a, b, c, d, f in itertools.product(range(1, 9), repeat=5)
        if a + b + c + d + f <= 12
    ]
    assert len(renders) == 792
    assert hashlib.sha256("\n".join(renders).encode()).hexdigest() == FULL_REDUCTION_DIGEST


# ---------------------------------------------------------------------------
# the memoized rewrites: shared results, same renders, errors not cached

_MEMOIZED = (
    reduce_unit_witten,
    _unit_row,
    reduce_mt,
    parse_atom,
    intern_term,
    _euler,
    parse_term,
)


def _full_render(params) -> str:
    a, b, c, d, f = params
    lc = reduce_witten(WittenSl4((a, b, c, d, 0, f)), expand_remainder=True, expand_mt=True)
    text = lc.render()
    assert parse(text) == lc, params
    return text


def test_memoized_rewrites_render_the_same_warm_as_cold():
    grid = [t for t in itertools.product(range(1, 9), repeat=5) if sum(t) <= 12]
    cold = {}
    for params in grid:
        for fn in _MEMOIZED:
            fn.cache_clear()
        cold[params] = _full_render(params)
    shuffled = list(grid)
    random.Random(15).shuffle(shuffled)
    warm = {params: _full_render(params) for params in shuffled}
    assert reduce_unit_witten.cache_info().hits > 0 and _unit_row.cache_info().hits > 0
    assert reduce_mt.cache_info().hits > 0 and parse_atom.cache_info().hits > 0
    assert intern_term.cache_info().hits > 0 and _euler.cache_info().hits > 0
    assert parse_term.cache_info().hits > 0
    assert warm == cold
    renders = "\n".join(cold[params] for params in grid)
    assert hashlib.sha256(renders.encode()).hexdigest() == FULL_REDUCTION_DIGEST


def test_memoized_results_survive_edits_of_their_items():
    calls = [
        lambda: reduce_unit_witten(2, 1, 3),
        lambda: reduce_unit_witten(0, 2, 2),
        lambda: reduce_mt(MordellTornheim3(2, 1, 3)),
        lambda: reduce_witten(WittenSl4((2, 1, 2, 1, 0, 2)), expand_remainder=True, expand_mt=True),
    ]
    for call in calls:
        want = call().render()
        items = call().items()
        items.append((Term((SingleZeta(2),)), Fraction(7)))
        assert call().render() == want
        call().items().clear()
        assert call().render() == want


def test_memoized_rewrites_raise_on_every_call():
    for _ in range(3):
        with pytest.raises(InadmissibleIndex):
            reduce_unit_witten(0, 0, 1)
        with pytest.raises(InadmissibleIndex):
            reduce_unit_witten(1, 0, 0)
        with pytest.raises(InadmissibleIndex):
            parse_atom("Z(1)")
        with pytest.raises(InadmissibleIndex):
            parse_atom("Q(2)")
        with pytest.raises(InadmissibleIndex):
            _unit_row(1, 0)
        with pytest.raises(InadmissibleIndex):
            parse_term("Z(1)*E(2,1)")
        with pytest.raises(InadmissibleIndex):
            parse_term("Z(2)*")
        with pytest.raises(InadmissibleOutput):
            _euler((1, 2))


def test_parse_atom_strips_before_the_cache_decides():
    assert parse_atom(" E(3,1) ") == parse_atom("E(3,1)") == EulerSum((3, 1))


# one tuple per rule of the general rewrite: A, A, C, B, triangle, triangle,
# A, C (the rule its first step takes)
_GENERAL_REWRITE_TUPLES = [
    (1, 1, 1, 1, 1, 1),
    (2, 1, 1, 1, 1, 1),
    (0, 1, 0, 1, 2, 1),
    (1, 0, 0, 2, 1, 1),
    (0, 0, 0, 1, 1, 3),
    (0, 0, 0, 2, 1, 3),
    (1, 2, 1, 3, 2, 1),
    (0, 2, 0, 1, 1, 2),
]


def test_general_rewrite_rules_are_shell_identities():
    K = 9
    for s in _GENERAL_REWRITE_TUPLES:
        want = oracles.w4_shell(s, K)
        if s[:3] == (0, 0, 0):
            assert oracles.triangle_shell(*s[3:], K) == want, s
        else:
            assert oracles.a3_rule_shell(s, K) == want, s


def test_general_rewrite_shell_exact_and_terminal():
    K = 9
    for s in _GENERAL_REWRITE_TUPLES:
        out = reduce_general_witten(WittenSl4(s))
        assert shell_value(out, K) == oracles.w4_shell(s, K), s
        for term, _ in out.items():
            (atom,) = term.factors
            assert isinstance(atom, EulerSum) or min(atom.s[3:5]) == 0, (s, term.render())


def test_general_rewrite_domain():
    with pytest.raises(UnsupportedParams):
        reduce_general_witten(WittenSl4((1, 1, 1, 1, 0, 1)))
    # a triangle with s6 = 1 would need Euler sums with a leading 1
    from wreduce.errors import InadmissibleOutput

    with pytest.raises(InadmissibleOutput):
        reduce_general_witten(WittenSl4((0, 0, 0, 2, 2, 1)))
