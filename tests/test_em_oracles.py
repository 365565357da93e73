"""Closed-form oracles for the Euler-Maclaurin tail engine and its consumers.

Reference values come from mpmath at 40 digits, independent of every code
path in ``series``.
"""

import math
from fractions import Fraction

import pytest

from wreduce.exact import EulerSum, MordellTornheim3, SingleZeta, WittenSl4
from wreduce.series import (
    SummationConfig,
    _fn_lp,
    _fn_table,
    _g,
    _lp_eval,
    _lp_harmonic,
    _lp_tail,
    eval_atom,
)

mp = pytest.importorskip("mpmath").mp
mp.dps = 40


@pytest.mark.parametrize("U", [32, 1024])
@pytest.mark.parametrize("p,k", [(2, 0), (3, 1), (2, 2), (7, 2)])
def test_one_entry_tail_against_hurwitz(p, k, U):
    mid, rad = _lp_tail({(float(p), k): (1.0, 0.0)}, U)
    # d^k/ds^k zeta(s, a) = (-1)^k sum_n ln(n + a)^k (n + a)^-s
    ref = (-1) ** k * mp.zeta(p, U + 1, k)
    assert abs(mp.mpf(mid) - ref) <= rad
    assert rad <= 1e-3 * U**-p * math.log(U) ** k


def _closed_forms():
    z = mp.zeta
    return [
        (EulerSum((2, 1)), z(3)),
        (EulerSum((3, 1)), mp.pi**4 / 360),
        (EulerSum((2, 1, 1)), z(4)),
        (EulerSum((2, 2)), (z(2) ** 2 - z(4)) / 2),
        (EulerSum((3, 3)), (z(3) ** 2 - z(6)) / 2),
        (EulerSum((4, 1)), 2 * z(5) - z(2) * z(3)),
        (EulerSum((3, 1, 1)), 2 * z(5) - z(2) * z(3)),
        (MordellTornheim3(1, 1, 1), 2 * z(3)),
        (MordellTornheim3(2, 2, 0), z(2) ** 2),
        (SingleZeta(2), mp.pi**2 / 6),
    ]


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
def test_atoms_contain_closed_forms(tol):
    cfg = SummationConfig(tolerance=tol)
    for atom, ref in _closed_forms():
        ev = eval_atom(atom, cfg)
        assert ev.radius <= tol, atom.render()
        assert abs(mp.mpf(ev.midpoint) - ref) <= ev.radius, atom.render()


def test_harmonic_form_contains_harmonic_numbers():
    lp = _lp_harmonic()
    for u in range(2, 2001):
        h = math.fsum(1.0 / m for m in range(1, u + 1))
        mid, rad = _lp_eval(lp, u)
        # each 1/m and the fsum round once: half an ulp of h apiece
        assert abs(mid - h) <= rad + 2.0**-52 * h, u


@pytest.mark.parametrize("c,f", [(2, 3), (5, 5), (1, 6)])
def test_shifted_pair_sum_tables_contain_direct_sums(c, f):
    # the partial fractions alternate in sign and cancel hardest at small u
    mid, rad = _fn_table(("G", c, f), 64)
    for u in (1, 2, 7, 64):
        ref = mp.nsum(lambda m: m**-c * (u + m) ** -f, [1, mp.inf])
        assert abs(mp.mpf(mid[u]) - ref) <= rad[u], u


_BRACKET_POINTS = (2, 3, 5, 17, 64)


def test_shifted_pair_sum_brackets_contain_their_sums():
    # the LP bracket of every convergent G_{c,f}, one-piece ones included,
    # against its sum over m; the summand is rational in m, which is what
    # Richardson extrapolation needs, and it is ten times cheaper than the
    # default method
    checked = 0
    for c in range(7):
        for f in range(7):
            if c + f < 2 or (f == 0 and c < 2) or (c == 0 and f < 2):
                continue
            lp = _fn_lp(_g(c, f))
            for u in _BRACKET_POINTS:
                ref = mp.nsum(lambda m: m**-c * (u + m) ** -f, [1, mp.inf], method="richardson")
                mid, rad = _lp_eval(lp, u)
                assert abs(mp.mpf(mid) - ref) <= rad, (c, f, u)
                checked += 1
    assert checked == 230


def test_pair_sum_brackets_contain_their_sums():
    # S_{a,b}(u) exactly, a finite convolution in Fractions
    for a in range(6):
        for b in range(6):
            lp = _fn_lp(("S", a, b))
            for u in _BRACKET_POINTS:
                ref = sum(Fraction(1, m**a * (u - m) ** b) for m in range(1, u))
                mid, rad = _lp_eval(lp, u)
                assert abs(Fraction(mid) - ref) <= Fraction(rad), (a, b, u)


def test_general_witten_contains_zagier_value():
    # zeta_sl(4)(2) = 23 pi^12 / 2554051500 (Zagier, "Values of zeta
    # functions and their applications", 1994); with the six forms as
    # written it is W(2,2,2,2,2,2) itself
    ev = eval_atom(WittenSl4((2, 2, 2, 2, 2, 2)), SummationConfig(tolerance=1e-10))
    assert ev.radius <= 1e-10
    assert abs(mp.mpf(ev.midpoint) - 23 * mp.pi**12 / 2554051500) <= ev.radius
