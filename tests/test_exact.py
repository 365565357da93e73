from fractions import Fraction

import pytest

from wreduce.errors import InadmissibleIndex, UnsupportedParams
from wreduce.exact import (
    EulerSum,
    LinearCombination,
    MordellTornheim3,
    SingleZeta,
    Term,
    WittenSl4,
    atom_key,
    canonicalize,
    parse,
    parse_atom,
    parse_term,
)


def test_atom_weights():
    assert SingleZeta(3).weight == 3
    assert EulerSum((4, 2)).weight == 6
    assert EulerSum((2, 1, 1)).weight == 4
    assert MordellTornheim3(2, 3, 4).weight == 9
    assert WittenSl4((1, 2, 3, 4, 5, 6)).weight == 21


def test_term_weight_and_render():
    t = Term((SingleZeta(2), MordellTornheim3(1, 1, 2)))
    assert t.weight == 6
    assert t.render() == "Z(2)*MT(1,1,2)"
    assert Term(()).render() == "1"
    assert Term(()).weight == 0


def test_term_factor_ordering_is_canonical():
    a = Term((SingleZeta(2), EulerSum((3, 1))))
    b = Term((EulerSum((3, 1)), SingleZeta(2)))
    assert a == b
    assert hash(a) == hash(b)


def test_mirror_is_an_involution():
    w = WittenSl4((2, 3, 4, 2, 3, 2))
    assert w.mirror() == WittenSl4((4, 3, 2, 3, 2, 2))
    assert w.mirror().mirror() == w
    for s in [(1, 1, 1, 1, 1, 1), (1, 2, 3, 4, 5, 6), (0, 0, 2, 2, 2, 2)]:
        assert WittenSl4(s).mirror().mirror() == WittenSl4(s)


def test_linear_combination_merges_duplicates_exactly():
    t = Term((SingleZeta(2),))
    lc = LinearCombination([(t, Fraction(1, 3))] * 3)
    assert lc.coefficient(t) == 1
    # exact cancellation drops the term entirely
    z = lc - LinearCombination.from_term(t, Fraction(1))
    assert z == LinearCombination.zero()
    assert z.render() == "0"


def test_non_rational_coefficients_are_refused():
    t = Term((SingleZeta(2),))
    x = LinearCombination.from_term(t, 3)
    builds = [
        lambda: LinearCombination([(t, 0.1)]),
        lambda: LinearCombination({t: 0.5}),
        lambda: LinearCombination.from_term(t, 0.1),
        lambda: LinearCombination.from_atom(SingleZeta(2), 2.0),
        lambda: LinearCombination.combine([(x, 0.1)]),
        lambda: x.scale(0.1),
        lambda: x.scale(0.0),
        lambda: x * 0.5,
        lambda: 0.5 * x,
        lambda: x.scale("1/2"),
    ]
    for build in builds:
        with pytest.raises(UnsupportedParams) as info:
            build()
        assert info.value.code == "UNSUPPORTED_PARAMS"
    assert x.scale(Fraction(1, 2)).render() == "3/2 * Z(2)"
    assert LinearCombination.combine([(x, 2), (x, Fraction(-1, 3))]).render() == "5 * Z(2)"


def test_bool_coefficient_is_stored_as_its_int():
    t = Term((SingleZeta(2),))
    lc = LinearCombination.from_term(t, True)
    assert lc.render() == "1 * Z(2)"
    missing = lc.coefficient(Term(()))
    assert type(lc.coefficient(t)) is int and type(missing) is int and missing == 0
    with pytest.raises(UnsupportedParams) as info:
        LinearCombination.from_term(t, 1.0)
    assert info.value.code == "UNSUPPORTED_PARAMS"


def test_linear_combination_algebra():
    x = LinearCombination.from_atom(SingleZeta(2))
    y = LinearCombination.from_atom(EulerSum((3, 1)))
    s = x + y
    assert s.coefficient(Term((SingleZeta(2),))) == 1
    assert (s - x) == y
    assert (-x).coefficient(Term((SingleZeta(2),))) == -1
    assert x.scale(Fraction(3, 2)).coefficient(Term((SingleZeta(2),))) == Fraction(3, 2)


def test_product_is_bilinear():
    x = LinearCombination.from_atom(SingleZeta(2))
    y = LinearCombination.from_atom(EulerSum((3, 1)))
    z = LinearCombination.from_atom(MordellTornheim3(1, 1, 2))
    lhs = (x + y).product(z)
    rhs = x.product(z) + y.product(z)
    assert lhs == rhs
    tz = Term((SingleZeta(2), MordellTornheim3(1, 1, 2)))
    assert lhs.coefficient(tz) == 1


def test_items_sorted_by_weight_then_structure():
    lc = (
        LinearCombination.from_atom(EulerSum((5, 3)))
        + LinearCombination.from_atom(SingleZeta(2))
        + LinearCombination.from_atom(EulerSum((2, 1)))
    )
    weights = [t.weight for t, _ in lc.items()]
    assert weights == sorted(weights)


def test_render_parse_round_trip():
    lc = (
        LinearCombination.from_term(
            Term((SingleZeta(3), MordellTornheim3(2, 2, 2))), Fraction(-7, 3)
        )
        + LinearCombination.from_term(Term((EulerSum((4, 1, 1)),)), Fraction(5))
        + LinearCombination.from_term(Term(()), Fraction(1, 2))
    )
    assert parse(lc.render()) == lc


def test_parse_round_trip_on_rendered_w():
    lc = LinearCombination.from_atom(WittenSl4((1, 2, 0, 3, 0, 4)))
    assert parse(lc.render()) == lc


def test_parse_accepts_w4_alias():
    assert parse_atom("W4(1,1,1,1,1,0)") == WittenSl4((1, 1, 1, 1, 1, 0))
    assert parse_atom("W(1,1,1,1,1,0)") == WittenSl4((1, 1, 1, 1, 1, 0))
    # rendering never emits the alias
    assert LinearCombination.from_atom(parse_atom("W4(1,2,3,4,5,6)")).render() == (
        "1 * W(1,2,3,4,5,6)"
    )


def test_parse_bare_term_gets_unit_coefficient():
    lc = parse("MT(2,2,2)")
    assert lc.coefficient(Term((MordellTornheim3(2, 2, 2),))) == 1


def test_parse_rejects_garbage():
    bad_inputs = ["Q(3)", "W(1,2)", "Z()", "E(2,1,1,1)", "MT(1,2)", "Z(2) *", "1/0 * Z(2)"]
    bad_inputs += ["x * Z(2)", "1.5 * Z(2)", "2 * Z(2) + 1/0 * Z(3)"]
    for _ in range(2):  # a refused literal is not memoized
        for bad in bad_inputs:
            with pytest.raises(InadmissibleIndex) as info:
                parse(bad)
            assert info.value.code == "INADMISSIBLE_INDEX"


def test_parse_reads_integral_literals_as_ints():
    lc = parse("4/2 * Z(2) + -3 * E(3,1) + 3/6 * E(2,1)")
    assert [type(c) for _, c in lc.items()] == [int, Fraction, int]
    assert lc.render() == "2 * Z(2) + 1/2 * E(2,1) + -3 * E(3,1)"


def test_parse_term_products():
    t = parse_term("Z(2)*E(3,1)")
    assert t == Term((SingleZeta(2), EulerSum((3, 1))))


def test_canonicalize_is_idempotent():
    lc = parse("2 * Z(2)*MT(1,1,2) + -1/2 * E(3,1,1)")
    assert canonicalize(lc) == canonicalize(canonicalize(lc))


def test_canonicalize_folds_relabeling_twins():
    w = WittenSl4((3, 1, 2, 2, 1, 4))
    twin = w.mirror()
    assert twin != w
    lc = canonicalize(LinearCombination.from_atom(w) + LinearCombination.from_atom(twin))
    assert len(lc) == 1
    ((term, coef),) = lc.items()
    assert term.factors == (min(w, twin, key=lambda a: a.s),)
    assert coef == 2


def test_iteration_and_repr():
    lc = parse("2 * Z(2)*MT(1,1,2) + -1/2 * E(3,1,1) + Z(3)")
    assert list(lc) == lc.items()
    assert repr(lc) == f"LinearCombination({lc.render()})"


# the bool-built atom is interned first, so an int-built twin interned after
# it would render the bool's text if atoms kept their indices as given
_BOOL_BUILT = [
    (lambda one: WittenSl4((one, 0, 1, 0, 0, 97)), "W(1,0,1,0,0,97)"),
    (lambda one: EulerSum((97, one)), "E(97,1)"),
    (lambda one: MordellTornheim3(one, 97, 2), "MT(1,97,2)"),
    (lambda one: MordellTornheim3(97, one, 3), "MT(1,97,3)"),
]


@pytest.mark.parametrize("make, text", _BOOL_BUILT)
def test_bool_indices_are_stored_as_ints(make, text):
    flagged = LinearCombination.from_atom(make(True))
    plain = LinearCombination.from_atom(make(1))
    assert make(True).render() == make(1).render() == text
    assert flagged.render() == plain.render() == f"1 * {text}"
    assert parse(flagged.render()) == flagged == plain
    assert [type(v) for v in atom_key(make(True))[1]] == [int] * len(atom_key(make(1))[1])


@pytest.mark.parametrize(
    "make",
    [
        lambda: SingleZeta(2.0),
        lambda: EulerSum((3, 1.0)),
        lambda: MordellTornheim3(1, "2", 2),
        lambda: WittenSl4((1, 0, 1, 0, 0, 2.5)),
    ],
)
def test_atoms_refuse_non_integer_indices(make):
    with pytest.raises(InadmissibleIndex):
        make()
