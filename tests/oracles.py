"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately dumb and slow.  None of it shares code
with src/: the point is to have a second, obviously-correct computation of
each quantity the package produces.

Two layers:

* Exact shell sums.  All lattice sums of interest here live on the cone
  n1, n2, n3 >= 1 (or n1, n2 >= 1 in two variables) and every symbolic
  rewrite the package performs is a shell-preserving rearrangement: it
  permutes or re-weights lattice points without changing n1+n2+n3 (resp.
  n1+n2).  Truncating every series to the shell n1+n2+n3 <= K therefore
  turns each identity into an equality of finite rational sums, which we
  verify in Fraction arithmetic.  No floats, no tolerance, every binomial
  coefficient checked exactly.

* Crude float brute force with elementary integral tail brackets, used for
  containment checks of the certified evaluators.  Tail bounds are one-sided
  [0, B] with B from term-by-term majorization, so (partial + B/2, B/2) is a
  valid midpoint/radius enclosure whenever the majorization is.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, log

import numpy as np


# ---------------------------------------------------------------------------
# exact shell sums (Fractions)
# ---------------------------------------------------------------------------


def _fpow(n: int, e: int) -> Fraction:
    if e == 0:
        return Fraction(1)
    return Fraction(1, n**e)


def shell3(K: int):
    """All (n1, n2, n3) >= 1 with n1+n2+n3 <= K."""
    for n1 in range(1, K - 1):
        for n2 in range(1, K - n1):
            for n3 in range(1, K - n1 - n2 + 1):
                yield n1, n2, n3


def shell2(K: int):
    for n1 in range(1, K):
        for n2 in range(1, K - n1 + 1):
            yield n1, n2


def w4_shell(s: tuple[int, int, int, int, int, int], K: int) -> Fraction:
    """Sum of n1^-s1 n2^-s2 n3^-s3 (n1+n2)^-s4 (n2+n3)^-s5 (n1+n2+n3)^-s6
    over the shell n1+n2+n3 <= K."""
    s1, s2, s3, s4, s5, s6 = s
    tot = Fraction(0)
    for n1, n2, n3 in shell3(K):
        tot += (
            _fpow(n1, s1)
            * _fpow(n2, s2)
            * _fpow(n3, s3)
            * _fpow(n1 + n2, s4)
            * _fpow(n2 + n3, s5)
            * _fpow(n1 + n2 + n3, s6)
        )
    return tot


def mt_shell(a: int, b: int, c: int, K: int) -> Fraction:
    """Sum of m1^-a m2^-b (m1+m2)^-c over m1+m2 <= K."""
    tot = Fraction(0)
    for m1, m2 in shell2(K):
        tot += _fpow(m1, a) * _fpow(m2, b) * _fpow(m1 + m2, c)
    return tot


def euler2_shell(s1: int, s2: int, K: int) -> Fraction:
    """Sum of x^-s1 z^-s2 over x > z >= 1, x <= K."""
    tot = Fraction(0)
    for x in range(2, K + 1):
        px = _fpow(x, s1)
        for z in range(1, x):
            tot += px * _fpow(z, s2)
    return tot


def euler3_shell(s1: int, s2: int, s3: int, K: int) -> Fraction:
    """Sum of x^-s1 y^-s2 z^-s3 over x > y > z >= 1, x <= K."""
    tot = Fraction(0)
    for x in range(3, K + 1):
        px = _fpow(x, s1)
        for y in range(2, x):
            py = _fpow(y, s2)
            for z in range(1, y):
                tot += px * py * _fpow(z, s3)
    return tot


def zeta_mt_shell(i: int, a: int, b: int, c: int, K: int) -> Fraction:
    """Joint shell sum of n3^-i * (n1^-a n2^-b (n1+n2)^-c): the product
    zeta(i) * MT(a, b, c) truncated to n1+n2+n3 <= K."""
    return w4_shell((a, b, i, c, 0, 0), K)


# ---------------------------------------------------------------------------
# shell forms of the reductions (coefficients recomputed independently here)
# ---------------------------------------------------------------------------


def hwz_shell(a: int, b: int, c: int, K: int) -> Fraction:
    """Double-zeta expansion of MT(a, b, c), truncated to the same shell."""
    tot = Fraction(0)
    for j in range(1, a + 1):
        tot += comb(a + b - j - 1, b - 1) * euler2_shell(a + b + c - j, j, K)
    for j in range(1, b + 1):
        tot += comb(a + b - j - 1, a - 1) * euler2_shell(a + b + c - j, j, K)
    return tot


def lemma_unit_rows_shell(a: int, b: int, d: int, K: int) -> Fraction:
    """Row expansion of W4(a,b,1,d,0,1) into W4(i,0,1,*,0,1) / W4(0,i,1,*,0,1)."""
    tot = Fraction(0)
    for i in range(1, a + 1):
        tot += comb(a + b - i - 1, b - 1) * w4_shell((i, 0, 1, a + b + d - i, 0, 1), K)
    for i in range(1, b + 1):
        tot += comb(a + b - i - 1, a - 1) * w4_shell((0, i, 1, a + b + d - i, 0, 1), K)
    return tot


def unit_pair_triples_shell(a: int, d: int, K: int) -> Fraction:
    """Triple-zeta expansion of W4(a,0,1,d,0,1)."""
    tot = unit_tail_triples_shell(a, d + 1, K)
    for i in range(1, d + 1):
        tot += euler3_shell(d + 2 - i, i, a, K)
    return tot


def unit_tail_triples_shell(a: int, D: int, K: int) -> Fraction:
    """Triple-zeta expansion of W4(a,0,1,0,0,D)."""
    tot = euler3_shell(D, a, 1, K)
    for i in range(1, a + 1):
        tot += euler3_shell(D, a + 1 - i, i, K)
    return tot


def w4_reduction_rhs_shell(
    a: int, b: int, c: int, d: int, f: int, K: int, variant: str
) -> Fraction:
    """Shell sum of the depth-reduction right-hand side for W4(a,b,c,d,0,f).

    variant selects the binomial in the inner double sum: "eq22" uses
    C(a+b-j-1, .), "paper-final" uses C(a+b+j-1, .).
    """
    w = a + b + c + d + f
    tot = Fraction(0)
    for i in range(2, c + 1):
        coef = comb(c + f - i - 1, f - 1) * (-1) ** (c + i)
        tot += coef * zeta_mt_shell(i, a, b, c + d + f - i, K)
    for i in range(2, f + 1):
        outer = comb(c + f - i - 1, c - 1) * (-1) ** c
        inner = Fraction(0)
        for j in range(1, a + 1):
            n = (a + b - j - 1) if variant == "eq22" else (a + b + j - 1)
            inner += comb(n, b - 1) * euler3_shell(i, w - i - j, j, K)
        for j in range(1, b + 1):
            n = (a + b - j - 1) if variant == "eq22" else (a + b + j - 1)
            inner += comb(n, a - 1) * euler3_shell(i, w - i - j, j, K)
        tot += outer * inner
    rem_coef = -((-1) ** c) * comb(c + f - 2, c - 1)
    tot += rem_coef * w4_shell((a, b, 1, c + d + f - 2, 0, 1), K)
    return tot


def a3_rule_shell(s: tuple[int, ...], K: int) -> Fraction:
    """One partial-fraction step of W(s), s4, s5, s6 >= 1: the summand times
    x/z + m3/z (s3 >= 1), m1/z + y/z (s3 = 0, s1 >= 1) or x/z + y/z - m2/z
    (s1 = s3 = 0, s2 >= 1), each equal to 1, with x = n1+n2, y = n2+n3 and
    z = n1+n2+n3; factor i/z moves one unit from slot i to slot 6."""

    def moved(i: int) -> Fraction:
        t = list(s)
        t[i - 1] -= 1
        t[5] += 1
        return w4_shell(tuple(t), K)

    if s[2]:
        return moved(4) + moved(3)
    if s[0]:
        return moved(1) + moved(5)
    return moved(4) + moved(5) - moved(2)


def triangle_shell(a: int, b: int, c: int, K: int) -> Fraction:
    """W(0,0,0,a,b,c) as Euler sums: x^-a y^-b z^-c over x, y < z, all of
    them by stuffle, less the part x + y <= z, split by u = x + y through
    the partial fractions of n^-a (u-n)^-b."""
    tot = euler3_shell(c, a, b, K) + euler3_shell(c, b, a, K) + euler2_shell(c, a + b, K)
    for j in range(1, a + 1):
        w = comb(a + b - j - 1, b - 1)
        tot -= w * (euler3_shell(c, a + b - j, j, K) + euler2_shell(c + a + b - j, j, K))
    for j in range(1, b + 1):
        w = comb(a + b - j - 1, a - 1)
        tot -= w * (euler3_shell(c, a + b - j, j, K) + euler2_shell(c + a + b - j, j, K))
    return tot


# ---------------------------------------------------------------------------
# float brute force with elementary tail brackets
# ---------------------------------------------------------------------------


def _tail1d(N: float, p: float) -> float:
    """Upper bound for sum_{n>N} n^-p, p > 1: integral from N."""
    assert p > 1
    return N ** (1.0 - p) / (p - 1.0)


def _logint(N: float, p: float, k: int) -> float:
    """Integral of x^-p ln(x)^k over (N, inf), p > 1, k in {0, 1, 2}.

    Majorizes sum_{n>N} n^-p ln(n)^k since the integrand decreases there
    (assumes N large enough, ln N > k/(p-1) holds for every call site).
    """
    assert p > 1
    q = p - 1.0
    L = log(N)
    base = N**-q
    if k == 0:
        return base / q
    if k == 1:
        return base * (L / q + 1.0 / q**2)
    return base * (L * L / q + 2.0 * L / q**2 + 2.0 / q**3)


def _poly_log_tail(N: float, p: float, k: int) -> float:
    """Upper bound for sum_{n>N} n^-p (1 + ln n)^k, k in {0, 1, 2}."""
    if k == 0:
        return _logint(N, p, 0)
    if k == 1:
        return _logint(N, p, 0) + _logint(N, p, 1)
    return _logint(N, p, 0) + 2.0 * _logint(N, p, 1) + _logint(N, p, 2)


def _zeta_ub(s: float) -> float:
    n = np.arange(1, 1001, dtype=float)
    return float(np.sum(n**-s)) + _tail1d(1000, s)


def zeta_ref(s: int, N: int = 200000) -> tuple[float, float]:
    n = np.arange(1, N + 1, dtype=float)
    part = float(np.sum(n**-s))
    lo = (N + 1) ** (1 - s) / (s - 1)
    hi = N ** (1 - s) / (s - 1)
    return part + 0.5 * (lo + hi), 0.5 * (hi - lo)


def euler2_ref(s1: int, s2: int, N: int = 120000) -> tuple[float, float]:
    n = np.arange(1, N + 1, dtype=float)
    inner = np.concatenate(([0.0], np.cumsum(n**-s2)))  # inner[k] = sum_{z<=k}
    part = float(np.sum(n[1:] ** -s1 * inner[1:-1]))
    # tail: sum_{x>N} x^-s1 P_{s2}(x-1); P grows like 1+ln x when s2 == 1
    if s2 == 1:
        B = _poly_log_tail(N, s1, 1)
    else:
        B = _zeta_ub(s2) * _tail1d(N, s1)
    return part + 0.5 * B, 0.5 * B


def euler3_ref(s1: int, s2: int, s3: int, N: int = 30000) -> tuple[float, float]:
    n = np.arange(1, N + 1, dtype=float)
    q = np.concatenate(([0.0], np.cumsum(n**-s3)))  # q[k] = sum_{z<=k}
    mid = n**-s2 * q[:-1]  # y^-s2 * sum_{z<y}
    d = np.concatenate(([0.0], np.cumsum(mid)))  # d[k] = sum_{y<=k}
    part = float(np.sum(n[2:] ** -s1 * d[2:-1]))
    # tail: sum_{x>N} x^-s1 D(x-1) with D(n) = sum_{y<=n} y^-s2 P_{s3}(y-1)
    if s2 == 1 and s3 == 1:
        # D(n) <= H_n^2 / 2 <= (1 + ln n)^2 / 2
        B = 0.5 * _poly_log_tail(N, s1, 2)
    elif s2 == 1:
        B = _zeta_ub(s3) * _poly_log_tail(N, s1, 1)
    elif s3 == 1:
        # D(inf) <= sum_y y^-s2 (1 + ln y), numeric prefix + log tail
        cap = float(np.sum(n[:2000] ** -s2 * (1.0 + np.log(n[:2000])))) + _poly_log_tail(
            2000, s2, 1
        )
        B = cap * _tail1d(N, s1)
    else:
        B = _zeta_ub(s2) * _zeta_ub(s3) * _tail1d(N, s1)
    return part + 0.5 * B, 0.5 * B


def mt_ref(a: int, b: int, c: int, N: int = 4000) -> tuple[float, float]:
    m = np.arange(1, N + 1, dtype=float)
    pb = m**-b
    # row-blocked so large N stays within a few dozen MB of scratch
    part = 0.0
    step = max(1, (1 << 22) // max(N, 1))
    for lo in range(0, N, step):
        rows = m[lo : lo + step]
        part += float(
            np.sum(
                (rows**-a)[:, None] * pb[None, :] * (rows[:, None] + m[None, :]) ** -c
            )
        )

    # tail over m1 > N, m2 arbitrary: the inner sum over m2 obeys
    #   sum_m2 m2^-b (m1+m2)^-c <= m1^-c P_b(m1) + tail1d(m1, b+c)
    # (split at m2 = m1), so the whole piece is a log-power tail in m1.
    def one_side(p_out: int, p_in: int) -> float:
        k = 1 if p_in == 1 else 0
        scale = 1.0 if p_in == 1 else _zeta_ub(p_in)
        near = scale * _poly_log_tail(N, p_out + c, k)
        far = _logint(N, p_out + p_in + c - 1, 0) / (p_in + c - 1)
        return near + far

    B = one_side(a, b) + one_side(b, a)
    return part + 0.5 * B, 0.5 * B


def w4_ref_partial(s: tuple[int, ...], N: int) -> float:
    """Plain triple partial sum over [1, N]^3, numpy slab per n3.

    The total-sum factor (m1+m2+n3)^-s6 of each slab is read from one
    table of k^-s6, k = 1..3N: entry (i, j) of the window starting at
    n3 + 1 is (i+j+2+n3)^-s6, the same float ``**`` gives.  Each slab is
    the left-to-right product base * n3^-s3 * (m2+n3)^-s5 * window,
    built in one reused buffer.
    """
    s1, s2, s3, s4, s5, s6 = s
    m = np.arange(1, N + 1, dtype=float)
    M1 = m[:, None]
    M2 = m[None, :]
    base = (m**-s1)[:, None] * (m**-s2)[None, :] * (M1 + M2) ** -s4
    total = np.arange(1, 3 * N + 1, dtype=float) ** -s6
    hankel = np.lib.stride_tricks.sliding_window_view(total, N)  # [i, j] = total[i + j]
    slab = np.empty_like(base)
    tot = 0.0
    for n3 in range(1, N + 1):
        np.multiply(base, n3**-s3, out=slab)
        np.multiply(slab, (M2 + n3) ** -s5, out=slab)
        np.multiply(slab, hankel[n3 + 1 : n3 + 1 + N], out=slab)
        tot += float(np.sum(slab))
    return tot


def _routed_tail_bound(s: tuple[int, ...], N: int, big: tuple[int, ...]) -> float:
    """Upper bound for the sum restricted to n_i > N for i in big, others
    unrestricted in [1, N].

    Each composite factor is routed onto its member variables: whole-factor
    candidates use (u+v)^-e <= u^-e, and two fractional candidates split e
    across members ((u+v)^-e <= u^-ew1 v^-ew2 for convex weights, since u+v
    dominates each member).  A candidate is admissible when every big
    variable ends with total exponent > 1; the best admissible bound wins.
    """
    s1, s2, s3, s4, s5, s6 = s
    members = {0: (0,), 1: (1,), 2: (2,), 3: (0, 1), 4: (1, 2), 5: (0, 1, 2)}
    exps = [s1, s2, s3, s4, s5, s6]
    active = [k for k in range(6) if exps[k] > 0]
    import itertools

    candidates: list[list[dict[int, float]]] = []
    for assign in itertools.product(*[members[k] for k in active]):
        candidates.append([{v: 1.0} for v in assign])
    # uniform split, and a split concentrated on the big members when any
    uniform = [{v: 1.0 / len(members[k]) for v in members[k]} for k in active]
    candidates.append(uniform)
    pref = []
    for k in active:
        hit = [v for v in members[k] if v in big]
        tgt = hit if hit else list(members[k])
        pref.append({v: 1.0 / len(tgt) for v in tgt})
    candidates.append(pref)

    best = np.inf
    for weights in candidates:
        routed = [0.0, 0.0, 0.0]
        for k, w in zip(active, weights):
            for v, frac in w.items():
                routed[v] += exps[k] * frac
        if not all(routed[v] > 1 for v in big):
            continue
        bound = 1.0
        for v in range(3):
            r = routed[v]
            if v in big:
                bound *= _tail1d(N, r)
            elif r > 1:
                bound *= r / (r - 1.0)  # sum_{n>=1} n^-r <= 1 + 1/(r-1)
            elif r == 1:
                bound *= 1.0 + log(N)
            else:  # prefix of a diverging power sum over [1, N]
                bound *= 1.0 + (N ** (1.0 - r) - 1.0) / (1.0 - r) if r > 0 else float(N)
        best = min(best, bound)
    return best


def w4_ref(s: tuple[int, ...], N: int) -> tuple[float, float]:
    part = w4_ref_partial(s, N)
    B = 0.0
    for big in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        B += _routed_tail_bound(s, N, big)
    return part + 0.5 * B, 0.5 * B
