import math

import pytest

import oracles
from wreduce.errors import (
    ConvergenceUnverified,
    ToleranceUnreachable,
)
from wreduce.exact import (
    EulerSum,
    LinearCombination,
    MordellTornheim3,
    SingleZeta,
    Term,
    WittenSl4,
)
from wreduce.series import (
    Evaluation,
    SummationConfig,
    clear_caches,
    eval_atom,
    eval_lincomb,
    eval_term,
)


def overlap(ev, ref):
    mid, rad = ref
    return abs(ev.midpoint - mid) <= ev.radius + rad


def test_config_validation():
    with pytest.raises(ToleranceUnreachable):
        SummationConfig(tolerance=0.0)
    with pytest.raises(ToleranceUnreachable):
        SummationConfig(tolerance=-1e-6)
    with pytest.raises(ToleranceUnreachable):
        SummationConfig(tolerance=1e-18)
    SummationConfig()


def test_config_takes_only_a_real_tolerance():
    from fractions import Fraction

    import numpy as np

    from wreduce.errors import UnsupportedParams

    for bad in ("1e-8", None, 1e-8 + 0j, True):
        with pytest.raises(UnsupportedParams, match="not a real number"):
            SummationConfig(tolerance=bad)
    with pytest.raises(UnsupportedParams, match="float64 range"):
        SummationConfig(tolerance=10**400)
    for good in (1, Fraction(1, 10**8), np.float64(1e-8)):
        tol = SummationConfig(tolerance=good).tolerance
        assert type(tol) is float and tol == float(good)


def test_ladders_stop_far_inside_the_cap():
    # every 1-D ladder starts at 32, and these stop by 512, far inside the
    # cap MAX_TERMS
    from wreduce.series import MAX_TERMS

    cfg = SummationConfig(tolerance=1e-10)
    clear_caches()
    assert eval_atom(EulerSum((2, 1)), cfg).terms == 128
    for atom in (
        EulerSum((2, 1)),
        EulerSum((2, 1, 1)),
        MordellTornheim3(1, 1, 1),
        WittenSl4((1, 1, 1, 1, 0, 1)),
    ):
        ev = eval_atom(atom, cfg)
        assert ev.radius <= 1e-10 and 32 <= ev.terms <= 512 < MAX_TERMS, atom
    clear_caches()


def test_evaluation_coerces_numpy_scalars():
    import numpy as np

    ev = Evaluation(np.float64(1.5), np.float64(0.25), np.int64(7))
    assert type(ev.midpoint) is float
    assert type(ev.radius) is float
    assert type(ev.terms) is int
    assert repr(ev.midpoint) == "1.5"


def test_em_tail_refuses_divergent_exponent():
    from wreduce.series import _lp_tail

    with pytest.raises(ConvergenceUnverified):
        _lp_tail({(1.0, 0): (1.0, 0.0)}, 1024)


def test_cutoff_ladder_stops_at_max_terms():
    from wreduce.series import MAX_TERMS, _cutoff

    cfg = SummationConfig(tolerance=1e-6)
    clear_caches()
    for atom in (EulerSum((2, 1)), MordellTornheim3(1, 1, 1)):
        ev = eval_atom(atom, cfg)
        assert ev.radius <= cfg.tolerance
        assert ev.terms <= 3000, atom
    clear_caches()
    # a tail that never gets below its box radius ends on the clamp itself;
    # 10^6 is not a power of two, so a plain doubling ladder overshoots it
    ev = _cutoff(lambda n: (0.0, 1.0), lambda n: (0.0, 0.0))
    assert ev.terms == MAX_TERMS
    assert (ev.midpoint, ev.radius) == (0.0, 1.0)


def test_one_value_per_atom_whatever_the_tolerance():
    # each atom is evaluated once and checked against the request
    # afterwards: both certify at the floor, and every tolerance gets the
    # same bits, each from a cold workspace
    for atom in (WittenSl4((1, 0, 1, 0, 0, 3)), MordellTornheim3(2, 2, 6)):
        outcomes = set()
        for tol in (1e-6, 1e-8, 1e-10, 1e-12):
            clear_caches()
            ev = eval_atom(atom, SummationConfig(tolerance=tol))
            assert ev.radius <= tol, (atom, tol)
            outcomes.add((ev.midpoint.hex(), ev.radius.hex(), ev.terms))
        assert len(outcomes) == 1, atom
    clear_caches()


def test_product_terms_fit_the_request_or_are_refused():
    # a product's radius carries each factor's radius times the others, so
    # factors that fit the request do not make a term that fits it
    mt = MordellTornheim3(2, 2, 6)
    z2, z3 = SingleZeta(2), SingleZeta(3)
    for factors in ((mt, z2), (mt, z2, z3, z2, z2)):
        for tol in (1e-12, 1e-11, 1e-10):
            clear_caches()
            try:
                ev = eval_term(Term(factors), SummationConfig(tolerance=tol))
            except ToleranceUnreachable:
                continue
            assert ev.radius <= tol, (factors, tol)
    clear_caches()


def test_inner_zetas_certify_under_a_small_cap():
    # inner zetas take their best value whatever the caller's tolerance, so
    # their ladders, and the one of the sum around them, stop far below the cap
    clear_caches()
    ev = eval_atom(EulerSum((2, 1, 1)), SummationConfig(tolerance=1e-6))
    assert ev.radius <= 1e-6
    assert ev.terms <= 3000
    clear_caches()


def test_tables_are_prefix_stable():
    # a ladder's rungs read slices of one cached table per key, so entry k
    # must come out bit for bit the same whatever length the table is built at
    from wreduce import series

    builds = (
        lambda U: series._prefix_table(3, U),
        lambda U: series._fn_table(("t", 4), U),
        lambda U: series._fn_table(("P-", 3), U),
        lambda U: series._fn_table(("G", 2, 5), U),
        lambda U: series._fn_table(("S", 2, 3), U),
        lambda U: (series._power_array(U, 5),),
    )
    for build in builds:
        clear_caches()
        short = [a.tobytes() for a in build(40)]
        clear_caches()
        long = [a[:41].tobytes() for a in build(3000)]
        assert short == long
    clear_caches()


def test_pair_sum_table_contains_direct_convolution():
    from wreduce.series import _fn_table

    for a in range(6):
        for b in range(6):
            mid, rad = _fn_table(("S", a, b), 300)
            for u in (2, 3, 7, 50, 299, 300):
                # int / int rounds correctly: each summand and the fsum are
                # off by at most half an ulp of the total
                direct = math.fsum(1 / (m**a * (u - m) ** b) for m in range(1, u))
                assert abs(mid[u] - direct) <= rad[u] + 2.0**-52 * direct, (a, b, u)


def test_shifted_pair_sum_partial_fractions_are_exact():
    from fractions import Fraction

    from wreduce.series import _g_pf_coeffs

    for c in range(1, 7):
        for f in range(1, 7):
            A, B = _g_pf_coeffs(c, f)
            assert [len(A), len(B)] == [c, f]
            for u in (1, 2, 5):
                for m in (1, 3, 8):
                    got = sum(
                        Fraction(w, u**pw * m**j) for j, (w, pw) in enumerate(A, start=1)
                    ) + sum(
                        Fraction(w, u**pw * (u + m) ** j) for j, (w, pw) in enumerate(B, start=1)
                    )
                    assert got == Fraction(1, m**c * (u + m) ** f), (c, f, u, m)


def test_dot_bound_covers_blas_on_an_adversarial_vector():
    import numpy as np

    from wreduce.series import EPS, _dot

    # 64 ones start every accumulator a BLAS kernel keeps near 1; each of
    # the 2^20 quarter-ulps after them is then dropped by a running sum
    n = 1 << 20
    x = np.full(n, 2.0**-54)
    x[:64] = 1.0
    value, bound = _dot(x, np.ones(n), np.zeros(n))
    err = abs(value - math.fsum(x))  # fsum is exact here
    assert err <= bound
    # the pairwise model EPS (log2 n + 4) sum|x| is not a bound for np.dot
    assert err > EPS * (math.log2(n) + 4.0) * math.fsum(x)


def test_prefix_table_radii_contain_exact_prefix_sums():
    from fractions import Fraction

    from wreduce.series import _prefix_table

    U = 2000
    samples = {1, 2, 3, 31, 32, 100, 1023, 1024, 1999, 2000}
    for j in (1, 2, 3):
        mid, rad = _prefix_table(j, U)
        exact = Fraction(0)
        for u in range(1, U + 1):
            exact += Fraction(1, u**j)
            if u in samples:
                assert abs(Fraction(mid[u]) - exact) <= Fraction(rad[u]), (j, u)
        # each entry carries its own radius, not the last entry's
        assert rad[32] < rad[U] / 10, j


def test_reductions_charge_rounding_through_one_helper():
    import ast
    import inspect

    from wreduce import series

    tree = ast.parse(inspect.getsource(series))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_sum_err", "_cumsum"}
    allowed = {"_dot"}
    dots = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot"}
    offenders = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name in allowed:
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"
                and node.attr in dots
            ) or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
                offenders.append(fn.name)
    assert not offenders


def test_only_the_check_helper_reads_the_tolerance():
    import ast
    import inspect

    from wreduce import series

    tree = ast.parse(inspect.getsource(series))
    # each function under its qualified name, so that only the config's own
    # __post_init__ is exempt, not Evaluation's
    functions = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions.update(
                (f"{node.name}.{fn.name}", fn) for fn in node.body if isinstance(fn, ast.FunctionDef)
            )
        elif isinstance(node, ast.FunctionDef):
            functions[node.name] = node
    allowed = {"SummationConfig.__post_init__", "_checked"}
    assert allowed <= functions.keys()
    assert "Evaluation.__post_init__" in functions
    assert not functions.keys() & {"_with_tol", "_zeta_getter", "_evaluate"}
    offenders = set()
    for name, fn in functions.items():
        if name in allowed:
            continue
        for node in ast.walk(fn):
            called = node.func if isinstance(node, ast.Call) else None
            if (isinstance(node, ast.Attribute) and node.attr == "tolerance") or (
                getattr(called, "id", getattr(called, "attr", None)) in {"SummationConfig", "replace"}
            ):
                offenders.add(name)
    assert not offenders
    # and only they and the public evaluators are handed a config at all
    public = {name for name in functions if name.startswith("eval_")}
    handed = {
        name
        for name, fn in functions.items()
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if arg.annotation is not None and "SummationConfig" in ast.unparse(arg.annotation)
    }
    assert handed - public - allowed == set()


def test_only_the_outer_sum_kernel_and_zeta_cut_a_sum():
    # every sum but zeta's ends in one outer sum over u of u^-e T(u), so
    # the cutoff ladder has two callers
    import ast
    import inspect

    from wreduce import series

    tree = ast.parse(inspect.getsource(series))
    defined = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert not defined & {"_eval_w4_hub", "_weighted_product_sum"}
    callers = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id == "_cutoff"
    }
    assert callers == {"_zeta", "_outer_sum"}


def test_a_cached_refusal_is_replayed_without_recomputing(monkeypatch, cfg6):
    # the outcome cache holds a refusal as its class and message, and raises
    # it again without evaluating the atom a second time
    from wreduce import series

    witten4 = series._witten4
    calls = []

    def counted(atom):
        calls.append(atom)
        return witten4(atom)

    monkeypatch.setattr(series, "_witten4", counted)
    clear_caches()
    atom = WittenSl4((0, 0, 0, 2, 2, 1))
    messages = []
    for _ in range(2):
        with pytest.raises(ToleranceUnreachable) as exc:
            eval_atom(atom, cfg6)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert calls == [atom]
    clear_caches()


def test_zeta_against_reference(cfg8):
    for s in range(2, 11):
        ev = eval_atom(SingleZeta(s), cfg8)
        assert ev.radius <= 1e-8
        assert overlap(ev, oracles.zeta_ref(s))


def test_zeta2_pinned(cfg8):
    ev = eval_atom(SingleZeta(2), cfg8)
    assert abs(ev.midpoint - math.pi**2 / 6) <= ev.radius


def test_euler_double_against_reference(cfg8):
    for s in [(2, 1), (3, 1), (2, 2), (4, 2), (5, 1), (6, 3)]:
        ev = eval_atom(EulerSum(s), cfg8)
        assert ev.radius <= 1e-8
        assert overlap(ev, oracles.euler2_ref(*s)), s


def test_euler_triple_against_reference(cfg8):
    for s in [(2, 1, 1), (3, 2, 1), (2, 2, 2), (4, 1, 2), (5, 2, 1), (2, 1, 2)]:
        ev = eval_atom(EulerSum(s), cfg8)
        assert ev.radius <= 1e-8
        assert overlap(ev, oracles.euler3_ref(*s)), s


def test_depth3_sums_against_closed_forms():
    # the sum theorem: the depth-3 Euler sums of weight w add up to zeta(w);
    # and two closed forms.  Each weight in a cold workspace, the enclosures
    # summed exactly in rationals
    from fractions import Fraction

    from wreduce import series

    mp = pytest.importorskip("mpmath").mp

    def encloses(evs, ref):
        mid = sum(Fraction(ev.midpoint) for ev in evs)
        rad = sum(Fraction(ev.radius) for ev in evs)
        gap = abs(mp.mpf(mid.numerator) / mid.denominator - ref)
        return gap <= mp.mpf(rad.numerator) / rad.denominator

    with mp.workdps(50):
        for w in range(5, 15):
            clear_caches()
            evs = [
                series._atom_value(EulerSum((s1, s2, w - s1 - s2)))
                for s1 in range(2, w - 1)
                for s2 in range(1, w - s1)
            ]
            assert len(evs) == (w - 2) * (w - 3) // 2
            assert encloses(evs, mp.zeta(w)), w
        clear_caches()
        assert encloses([series._atom_value(EulerSum((2, 2, 2)))], mp.pi**6 / 5040)
        e311 = series._atom_value(EulerSum((3, 1, 1)))
        assert encloses([e311], 2 * mp.zeta(5) - mp.zeta(2) * mp.zeta(3))
    clear_caches()


def test_a_depth3_value_needs_no_depth2_atom(cfg8):
    # the tail is summed by parts, so no limit D(inf) enters it: with
    # s2 >= 2 it would be E(s2,s3), with s2 = 1 < s3 it would need E(s3,1),
    # and with s2 = s3 = 1 it diverges
    from wreduce import series

    clear_caches()
    for s in ((2, 3, 2), (3, 1, 2), (2, 1, 1)):
        eval_atom(EulerSum(s), cfg8)
    euler = [key for key in series._ATOMS if key[0] == "E"]
    assert sorted(euler) == [("E", 2, 1, 1), ("E", 2, 3, 2), ("E", 3, 1, 2)]
    clear_caches()


def test_euler_inadmissible_leading_one_rejected(cfg6):
    from wreduce.errors import WreduceError

    with pytest.raises(WreduceError):
        eval_atom(EulerSum((1, 2)), cfg6)


def test_mt_against_reference(cfg8):
    for s in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2), (3, 1, 2), (1, 1, 4)]:
        ev = eval_atom(MordellTornheim3(*s), cfg8)
        assert ev.radius <= 1e-8
        assert overlap(ev, oracles.mt_ref(*s)), s


def test_mt222_pinned_value(cfg8):
    ev = eval_atom(MordellTornheim3(2, 2, 2), cfg8)
    assert abs(ev.midpoint - 0.3391143539948164) <= ev.radius + 1e-13


def test_witten_separable_corner(cfg8):
    # all composite exponents zero: the sum factors into three zetas
    ev = eval_atom(WittenSl4((2, 3, 4, 0, 0, 0)), cfg8)
    z2 = eval_atom(SingleZeta(2), cfg8)
    z3 = eval_atom(SingleZeta(3), cfg8)
    z4 = eval_atom(SingleZeta(4), cfg8)
    prod = z2.midpoint * z3.midpoint * z4.midpoint
    prod_rad = (
        z2.radius * abs(z3.midpoint * z4.midpoint)
        + z3.radius * abs(z2.midpoint * z4.midpoint)
        + z4.radius * abs(z2.midpoint * z3.midpoint)
        + 1e-15
    )
    assert abs(ev.midpoint - prod) <= ev.radius + prod_rad


def test_witten_collapsed_against_reference(cfg6):
    # s1 = s2 = 0 sums the pair sum S_{0,0}(u) = u - 1, the j = 0 prefix
    for s in [(2, 2, 2, 2, 0, 2), (1, 1, 2, 2, 0, 1), (3, 1, 2, 2, 0, 1),
              (2, 2, 3, 2, 0, 0), (1, 2, 0, 2, 0, 3), (0, 0, 2, 3, 0, 2),
              (0, 0, 3, 2, 0, 3)]:
        ev = eval_atom(WittenSl4(s), cfg6)
        assert ev.radius <= 1e-6
        n = max(2 * ev.terms, 400)
        n = min(n, 900)
        assert overlap(ev, oracles.w4_ref(s, n)), s


def test_collapsed_witten_without_pair_weights_is_a_difference_of_double_sums(cfg8):
    # S_{0,0}(u) = u - 1, so W(0,0,c,d,0,f) = sum_u (u^(1-d) - u^-d) G_{c,f}(u)
    # = MT(c,d-1,f) - MT(c,d,f), which the MT path sums without the pair sum
    for c, d, f in ((2, 3, 2), (3, 2, 3)):
        w = eval_atom(WittenSl4((0, 0, c, d, 0, f)), cfg8)
        lc = LinearCombination.from_atom(MordellTornheim3(c, d - 1, f))
        diff = eval_lincomb(lc - LinearCombination.from_atom(MordellTornheim3(c, d, f)), cfg8)
        assert abs(w.midpoint - diff.midpoint) <= w.radius + diff.radius < 1e-12, (c, d, f)


def test_witten_general_against_reference(cfg6):
    for s in [(2, 1, 2, 1, 1, 1), (1, 2, 1, 3, 1, 2), (1, 1, 1, 1, 1, 1),
              (0, 0, 2, 2, 2, 2), (2, 3, 4, 2, 3, 2)]:
        ev = eval_atom(WittenSl4(s), cfg6)
        assert ev.radius <= 1e-6
        assert overlap(ev, oracles.w4_ref(s, 2 * ev.terms)), s


def test_general_witten_grid_refusals_and_brute_force(cfg6):
    # every s in {0,1,2}^6 with s4, s5, s6 >= 1 and weight <= 8: the tuples
    # below the directional gate stay refused as divergent, the one triangle
    # with s6 = 1 as out of reach, and every other one certifies inside the
    # O(N^3) brute force
    import itertools

    from wreduce.errors import WreduceError

    grid = [s for s in itertools.product(range(3), repeat=6) if min(s[3:]) >= 1 and sum(s) <= 8]
    assert len(grid) == 156
    divergent = 0
    for s in grid:
        sigma = (s[0] + s[3] + s[5], s[1] + s[3] + s[4] + s[5], s[2] + s[4] + s[5])
        try:
            ev = eval_atom(WittenSl4(s), cfg6)
        except WreduceError as exc:
            if min(sigma) < 3 or sum(s) < 4:
                assert isinstance(exc, ConvergenceUnverified), s
                divergent += 1
            else:
                assert s == (0, 0, 0, 2, 2, 1) and isinstance(exc, ToleranceUnreachable), s
            continue
        assert min(sigma) >= 3 and sum(s) >= 4, s
        assert ev.radius <= 1e-6
        assert overlap(ev, oracles.w4_ref(s, 96)), s
    assert divergent == 33


def test_witten_mirror_dispatch_agrees(cfg6):
    # s4 = 0 dispatches via the mirror image; both spellings of the same
    # sum must agree
    w = WittenSl4((2, 1, 2, 0, 2, 2))
    ev = eval_atom(w, cfg6)
    em = eval_atom(w.mirror(), cfg6)
    assert abs(ev.midpoint - em.midpoint) <= ev.radius + em.radius


def _hub_grid():
    """Every W(s1,s2,s3,s4,s5,0) with s1..s3 <= 3, 1 <= s4, s5 <= 3 and weight <= 10."""
    import itertools

    axes = (range(4),) * 3 + (range(1, 4),) * 2 + ((0,),)
    grid = [s for s in itertools.product(*axes) if sum(s) <= 10]
    assert len(grid) == 465
    return grid


def test_hub_agrees_with_the_partial_fraction_rewrite(cfg8):
    # each rule of the general rewrite multiplies the summand by
    # x/z + m3/z = 1 or a sibling of it, whatever s6 is, so it also holds
    # at s6 = 0, where the hub sums W directly; PASS is verify.check's
    # rule, gap <= the sum of the two radii
    from wreduce.errors import InadmissibleOutput
    from wreduce.reduce import _general_rewrite

    clear_caches()
    gated, passed, refused = 0, 0, []
    for s in _hub_grid():
        try:
            hub = eval_atom(WittenSl4(s), cfg8)
        except ConvergenceUnverified as exc:
            assert "directional exponents" in str(exc), s
            gated += 1
            continue
        try:
            rewrite = eval_lincomb(_general_rewrite(s), cfg8)
        except InadmissibleOutput:
            refused.append(s)
            continue
        assert abs(hub.midpoint - rewrite.midpoint) <= hub.radius + rewrite.radius, s
        passed += 1
    assert (gated, passed) == (252, 207)
    # the rewrite reaches a triangle W(0,0,0,a,b,c) with c <= 1, whose
    # Euler sums would lead with c
    assert refused == [(0, 0, 0, 3, 3, 0), (0, 0, 1, 3, 2, 0), (0, 0, 1, 3, 3, 0),
                       (0, 1, 0, 3, 3, 0), (1, 0, 0, 2, 3, 0), (1, 0, 0, 3, 3, 0)]
    clear_caches()


# sha256 over the hub grid above, in one cold workspace at the floor: the
# hex midpoint, hex radius and cutoff of each atom, or its refusal code.
# Computed with numpy's float64 pow on x86-64; another pow can move the
# last bits
_HUB_DIGEST = "ffb1b1b73fa81e533dbbbb5015dd957a9185d86046ecd74be4e9c6be4bae1c9b"


def test_hub_values_golden():
    import hashlib

    from wreduce.errors import WreduceError

    cfg = SummationConfig(tolerance=1e-12)
    clear_caches()
    lines = []
    for s in _hub_grid():
        try:
            ev = eval_atom(WittenSl4(s), cfg)
        except WreduceError as exc:
            lines.append(f"{s!r}|{exc.code}\n")
        else:
            lines.append(f"{s!r}|{ev.midpoint.hex()}|{ev.radius.hex()}|{ev.terms}\n")
    clear_caches()
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == _HUB_DIGEST


def test_convergence_gate_rejects_thin_exponents(cfg6):
    with pytest.raises(ConvergenceUnverified):
        eval_atom(WittenSl4((1, 1, 1, 1, 1, 0)), cfg6)
    with pytest.raises(ConvergenceUnverified):
        eval_atom(WittenSl4((1, 0, 1, 1, 1, 0)), cfg6)


def test_collapsed_gate_rejects_unit_row_sums(cfg6):
    # f = 0 needs c >= 2: W(a,b,1,d,0,0) carries a bare zeta(1) factor
    with pytest.raises(ConvergenceUnverified):
        eval_atom(WittenSl4((2, 2, 1, 2, 0, 0)), cfg6)
    with pytest.raises(ConvergenceUnverified):
        eval_atom(WittenSl4((2, 2, 0, 2, 0, 1)), cfg6)


def test_tolerance_unreachable_reports_certified_radius():
    # the zeta-tail table t_3(u) = zeta(3) - P_3(u) carries the radius of
    # zeta(3) into every entry, and the collapsed sum weights it by H_{u-1}:
    # the best value of this atom is about 7e-12
    cfg = SummationConfig(tolerance=1e-12)
    with pytest.raises(ToleranceUnreachable) as exc:
        eval_atom(WittenSl4((1, 0, 0, 0, 0, 3)), cfg)
    assert "certified radius" in str(exc.value)


def test_eval_is_deterministic_and_cache_transparent(cfg6):
    atom = WittenSl4((2, 1, 2, 1, 1, 1))
    a = eval_atom(atom, cfg6)
    b = eval_atom(atom, cfg6)
    assert (a.midpoint, a.radius, a.terms) == (b.midpoint, b.radius, b.terms)
    clear_caches()
    c = eval_atom(atom, cfg6)
    assert (a.midpoint, a.radius, a.terms) == (c.midpoint, c.radius, c.terms)


def test_eval_lincomb_linearity(cfg6):
    lc = LinearCombination.from_atom(MordellTornheim3(2, 2, 2))
    one = eval_lincomb(lc, cfg6)
    two = eval_lincomb(lc.scale(2), cfg6)
    assert abs(two.midpoint - 2 * one.midpoint) <= two.radius + 2 * one.radius
    assert two.radius <= 1e-6


def test_eval_lincomb_constant_term(cfg6):
    from fractions import Fraction

    lc = LinearCombination.from_term(Term(()), Fraction(5, 3))
    ev = eval_lincomb(lc, cfg6)
    assert abs(ev.midpoint - 5 / 3) < 1e-12
    assert ev.radius < 1e-12


def test_a_coefficient_beyond_float64_is_refused(cfg6):
    # refused as 10**308 * Z(2) + -10**308 * Z(3) is, through a radius of inf
    from fractions import Fraction

    for coef in (2 * 10**308, Fraction(10**400, 3)):
        lc = LinearCombination.from_term(Term((SingleZeta(2),)), coef)
        with pytest.raises(ToleranceUnreachable, match=f"coefficient {coef} is beyond"):
            eval_lincomb(lc, cfg6)


def test_a_subnormal_coefficient_is_enclosed(cfg6):
    # float(1/(3*10**320)) is subnormal, so its conversion errs by far more
    # than the relative charge; the enclosure must still hold the exact value
    from fractions import Fraction

    coef = Fraction(1, 3 * 10**320)
    ev = eval_lincomb(LinearCombination.from_term(Term((SingleZeta(2),)), coef), cfg6)
    zeta2 = (Fraction(16449340668482264, 10**16), Fraction(16449340668482265, 10**16))
    lo, hi = (coef * z for z in zeta2)
    mid, rad = Fraction(ev.midpoint), Fraction(ev.radius)
    assert mid - rad <= lo < hi <= mid + rad


def test_a_zeta_atom_takes_the_zeta_value():
    from wreduce import series

    assert series._atom_value(SingleZeta(3)) is series._zeta_value(3)


def test_eval_lincomb_empty_is_zero(cfg6):
    ev = eval_lincomb(LinearCombination.zero(), cfg6)
    assert ev.midpoint == 0.0
    assert ev.radius == 0.0


def test_product_term_evaluation(cfg8):
    lc = LinearCombination.from_term(
        Term((SingleZeta(3), MordellTornheim3(2, 2, 2))), 1
    )
    ev = eval_lincomb(lc, cfg8)
    z3 = oracles.zeta_ref(3)
    mt = oracles.mt_ref(2, 2, 2)
    prod_mid = z3[0] * mt[0]
    prod_rad = z3[1] * abs(mt[0]) + mt[1] * abs(z3[0]) + z3[1] * mt[1]
    assert abs(ev.midpoint - prod_mid) <= ev.radius + prod_rad


def test_em_forms_survive_clear_caches():
    from wreduce import series
    from wreduce.reduce import reduce_witten

    form = series._unit_resum(3.0, 1)
    snapshot = dict(form)
    parts = series._lp_e3_parts(2, 3, 2)
    clear_caches()
    assert series._unit_resum(3.0, 1) is form
    assert series._lp_e3_parts(2, 3, 2) is parts
    # one full-reduction request reads the forms and must leave them as they were
    cfg = SummationConfig(tolerance=1e-8)
    atom = WittenSl4((2, 1, 2, 1, 0, 2))
    eval_atom(atom, cfg)
    eval_lincomb(reduce_witten(atom, expand_remainder=True, expand_mt=True), cfg)
    assert series._unit_resum(3.0, 1) is form
    assert form == snapshot


# sha256 over W(a,b,c,d,0,f) and its complete Euler-sum reduction at every
# THM22 grid point at 1e-8, each point in a cold workspace: the hex midpoint
# and radius of each side, or its refusal code.  Computed with numpy's
# float64 pow on x86-64 when every atom was first evaluated once, whatever
# the tolerance; another pow can move the last bits
_FULL_REDUCTION_DIGEST = "99eca09f6e751cc7b95b7b93f9a34ff499de68c95fc42b39599025333d27fb5b"


def _full_reduction_outcomes(tol):
    from wreduce.errors import WreduceError
    from wreduce.reduce import reduce_witten
    from wreduce.verify import default_parameters

    cfg = SummationConfig(tolerance=tol)
    lines = []
    for a, b, c, d, f in default_parameters("THM22_FINAL"):
        clear_caches()
        atom = WittenSl4((a, b, c, d, 0, f))
        lc = reduce_witten(atom, expand_remainder=True, expand_mt=True)
        fields = [repr(atom.s)]
        for evaluate, arg in ((eval_atom, atom), (eval_lincomb, lc)):
            try:
                ev = evaluate(arg, cfg)
            except WreduceError as exc:
                fields.append(exc.code)
            else:
                fields.append(f"{ev.midpoint.hex()} {ev.radius.hex()}")
        lines.append("|".join(fields) + "\n")
    return "".join(lines)


def test_full_reductions_golden():
    import hashlib

    outcomes = _full_reduction_outcomes(1e-8)
    assert outcomes.count("\n") == 252
    assert hashlib.sha256(outcomes.encode()).hexdigest() == _FULL_REDUCTION_DIGEST


# the process-wide LP form builders, by name
def _lp_form_builders():
    from wreduce import series

    names = ("_fn_lp", "_lp_product", "_lp_e3_parts")
    return {name: getattr(series, name) for name in names}


def _lp_bits(form):
    """An LP form as its keys and hex coefficients, in order."""
    return [(key, m.hex(), r.hex()) for key, (m, r) in form.items()]


def _full_request(atom, cfg):
    """W against its complete Euler-sum reduction: each side's hex midpoint and radius."""
    from wreduce.reduce import reduce_witten

    lc = reduce_witten(atom, expand_remainder=True, expand_mt=True)
    return [(ev.midpoint.hex(), ev.radius.hex()) for ev in (eval_atom(atom, cfg), eval_lincomb(lc, cfg))]


def test_a_repeated_cold_request_builds_no_form(monkeypatch):
    # every LP form depends on its integers alone, so a request after
    # clear_caches() reads the forms an earlier one built
    from wreduce import series

    cfg = SummationConfig(tolerance=1e-8)
    atom = WittenSl4((2, 1, 2, 1, 0, 2))
    first = _full_request(atom, cfg)
    clear_caches()
    calls = []
    for name in ("_lp_mul", "_lp_resum"):
        real = getattr(series, name)
        monkeypatch.setattr(
            series, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args)
        )
    assert _full_request(atom, cfg) == first
    assert calls == []
    clear_caches()


def test_shared_lp_forms_are_read_only_and_independent_of_order(monkeypatch):
    import ast
    import copy
    import os
    import subprocess
    import sys

    from wreduce import series
    from wreduce.reduce import reduce_witten

    builders = _lp_form_builders()
    # empty the process-wide caches, so that the request below builds every
    # form it reads, each nested build passing a recorder: (name, args) ->
    # the form, which must be the same object on every call
    shared = {}

    def recorder(name, builder):
        def record(*args):
            form = builder(*args)
            assert shared.setdefault((name, args), form) is form, (name, args)
            return form

        return record

    for name, builder in builders.items():
        builder.cache_clear()
        monkeypatch.setattr(series, name, recorder(name, builder))

    # W(6,1,1,1,0,1) is a collapsed atom whose reduction holds 27 depth-3
    # Euler sums, each summing its tail by parts on its own form;
    # W(2,1,2,1,1,0) takes the hub path
    clear_caches()
    cfg = SummationConfig(tolerance=1e-8)
    atom = WittenSl4((6, 1, 1, 1, 0, 1))
    eval_atom(atom, cfg)
    eval_atom(WittenSl4((2, 1, 2, 1, 1, 0)), cfg)
    eval_lincomb(reduce_witten(atom, expand_remainder=True, expand_mt=True), cfg)
    assert {name for name, _ in shared} == set(builders)
    frozen = copy.deepcopy(shared)

    # later requests, cold ones too, read the forms and leave them be
    eval_lincomb(reduce_witten(atom, expand_remainder=True, expand_mt=True),
                 SummationConfig(tolerance=1e-10))
    clear_caches()
    other = WittenSl4((1, 6, 1, 1, 0, 1))
    eval_lincomb(reduce_witten(other, expand_remainder=True, expand_mt=True), cfg)
    for (name, args), entry in frozen.items():
        assert builders[name](*args) is shared[name, args], (name, args)
        assert _lp_bits(shared[name, args]) == _lp_bits(entry), (name, args)

    # each form equals its builder's output in a fresh interpreter, where no
    # request came before it
    keys = sorted(frozen)
    code = (
        "import ast, sys\n"
        "from wreduce import series\n"
        "print([[(key, m.hex(), r.hex()) for key, (m, r) in getattr(series, name)(*args).items()]\n"
        "       for name, args in ast.literal_eval(sys.argv[1])])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(series.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code, repr(keys)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert ast.literal_eval(done.stdout) == [_lp_bits(frozen[key]) for key in keys]
    clear_caches()
