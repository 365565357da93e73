"""Algebraic laws of ``LinearCombination`` on random small combinations."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from wreduce.exact import (  # noqa: E402
    EulerSum,
    LinearCombination,
    MordellTornheim3,
    SingleZeta,
    Term,
    WittenSl4,
    intern_term,
    parse,
)
from wreduce.reduce import reduce_mt  # noqa: E402

given = hypothesis.given

atoms = st.one_of(
    st.integers(2, 6).map(SingleZeta),
    st.tuples(st.integers(2, 5), st.integers(1, 3)).map(EulerSum),
    st.tuples(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3)).map(EulerSum),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).map(
        lambda t: MordellTornheim3(*t)
    ),
    st.tuples(*[st.integers(0, 2)] * 6).map(WittenSl4),
)
factor_tuples = st.lists(atoms, max_size=4).map(tuple)
terms = st.lists(atoms, max_size=3).map(lambda fs: Term(tuple(fs)))
coefs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
combos = st.lists(st.tuples(terms, coefs), max_size=6).map(LinearCombination)


def _state(lc):
    return (lc.render(), dict(lc.items()))


@given(combos)
def test_additive_inverse_is_zero(x):
    z = x + (-x)
    assert z == LinearCombination.zero()
    assert len(z) == 0
    assert not z
    assert hash(z) == hash(LinearCombination.zero())
    assert x - x == LinearCombination.zero()


@given(combos, combos, combos)
def test_addition_commutes_and_associates(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x - y == x + (-y)


@given(combos, combos, coefs)
def test_scale_distributes_over_addition(x, y, k):
    assert (x + y).scale(k) == x.scale(k) + y.scale(k)
    assert x.scale(k) == k * x == x * k


@given(combos, combos, combos, coefs)
def test_product_is_bilinear(x, y, z, k):
    assert (x + y).product(z) == x.product(z) + y.product(z)
    assert z.product(x + y) == z.product(x) + z.product(y)
    assert x.scale(k).product(y) == x.product(y).scale(k) == x.product(y.scale(k))


@given(combos)
def test_render_parse_round_trip(x):
    assert parse(x.render()) == x


@given(combos, combos, coefs)
def test_operations_leave_operands_unchanged(x, y, k):
    before = (_state(x), _state(y))
    _ = (x + y, x - y, -x, x.scale(k), x.scale(0), x.product(y), y.product(x))
    assert (_state(x), _state(y)) == before


@given(factor_tuples, st.data())
def test_interned_term_is_the_fresh_term(fs, data):
    t = intern_term(fs)
    fresh = Term(fs)
    assert t == fresh and hash(t) == hash(fresh)
    assert t.sort_key() == fresh.sort_key()
    assert t.render() == fresh.render()
    assert t.weight == fresh.weight == sum(f.weight for f in fs)
    perm = tuple(data.draw(st.permutations(fs)))
    assert Term(perm) == t and intern_term(perm) is t


def _rewrite(atom):
    """Double sums to Euler sums, and an arbitrary two-term stand-in for Z(s)."""
    if isinstance(atom, MordellTornheim3):
        return reduce_mt(atom)
    if isinstance(atom, SingleZeta):
        return LinearCombination(
            [(intern_term((atom,)), Fraction(1, 2)), (intern_term((EulerSum((atom.s, 1)),)), -1)]
        )
    return None


@given(combos)
def test_substitute_ignores_insertion_order(x):
    y = LinearCombination(reversed(list(x._entries.items())))
    assert list(y._entries) == list(reversed(x._entries))
    sx, sy = x.substitute(_rewrite), y.substitute(_rewrite)
    assert sx == sy and sx.render() == sy.render()


def _int_when_integral(lc):
    """Integral coefficients are exactly ``int``, the others ``Fraction``."""
    return all(
        type(c) is (int if c.denominator == 1 else Fraction) for _, c in lc.items()
    )


def test_cancellation_drops_terms_and_keeps_fractions():
    t = Term((SingleZeta(2),))
    x = LinearCombination([(t, Fraction(1, 2)), (t, -1), (Term(()), 3)])
    assert x.coefficient(t) == Fraction(-1, 2)
    y = x + LinearCombination.from_term(t, Fraction(1, 2))
    assert len(y) == 1 and y.coefficient(t) == 0
    z = x + LinearCombination.from_term(t, Fraction(5, 2))
    assert z.coefficient(t) == 2
    assert type(x.coefficient(t)) is Fraction and type(z.coefficient(t)) is int
    assert all(_int_when_integral(lc) for lc in (x, y, z))


@given(combos, combos, st.one_of(coefs, st.integers(-4, 4)))
def test_integral_coefficients_are_ints(x, y, k):
    back = parse(x.render())
    assert back == x
    results = (
        x,
        x + y,
        x - y,
        x.scale(k),
        x.product(y),
        LinearCombination.combine([(x, k), (y, 1)]),
        x.substitute(_rewrite),
        back,
    )
    assert all(_int_when_integral(lc) for lc in results)
