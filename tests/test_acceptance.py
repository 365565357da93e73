"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Tolerances are pinned per criterion and must not be loosened.
"""

import time
from fractions import Fraction

import oracles
from wreduce.errors import InternalNoncancellation
from wreduce.exact import (
    EulerSum,
    LinearCombination,
    MordellTornheim3,
    SingleZeta,
    Term,
    WittenSl4,
)
from wreduce.reduce import (
    four_term_lhs,
    four_term_rhs,
    reduce_mt,
    reduce_unit_witten,
    reduce_witten,
)
from wreduce.series import SummationConfig, clear_caches, eval_lincomb
from wreduce.verify import (
    DEFAULT_SWEEP_IDS,
    build_identity,
    check,
    default_parameters,
    failure_count,
    format_report_lines,
    inconclusive_count,
    sweep,
    symmetry_tuples,
)


def _report(num: int, ok: bool, text: str) -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}"
    print(line, flush=True)
    assert ok, line


def _atom(a) -> LinearCombination:
    return LinearCombination.from_atom(a)


def test_criterion_1_index_reversal_symmetry(cfg6):
    t0 = time.perf_counter()
    tuples = symmetry_tuples()
    bad = []
    for t in tuples:
        rep = check(build_identity("SYMMETRY_EQ6", t), cfg6)
        if rep.verdict != "PASS":
            bad.append((t, rep.verdict, rep.detail))
    elapsed = time.perf_counter() - t0
    ok = len(tuples) == 20 and not bad and elapsed < 120
    _report(1, ok, f"20 reversal pairs agree at 1e-6 in {elapsed:.1f}s; bad={bad}")


def test_criterion_2_factorization_instance(cfg8):
    rep = check(build_identity("FACTOR_EQ12", (2, 2, 3, 2)), cfg8)
    lm, rm = rep.lhs_eval.midpoint, rep.rhs_eval.midpoint
    ok = (
        rep.verdict == "PASS"
        and abs(lm - 0.4076348) < 5e-7
        and abs(rm - 0.4076348) < 5e-7
    )
    _report(
        2,
        ok,
        f"product form at 1e-8: gap={rep.gap:.2e} budget={rep.budget:.2e} "
        f"midpoints {lm:.7f}/{rm:.7f}",
    )


def test_criterion_3_double_sum_reduction(cfg8):
    reports = sweep(ids=["HWZ_EQ3"], cfg=cfg8)
    pinned = reduce_mt(MordellTornheim3(2, 2, 2))
    want = LinearCombination.from_term(
        Term((EulerSum((5, 1)),)), Fraction(4)
    ) + LinearCombination.from_term(Term((EulerSum((4, 2)),)), Fraction(2))
    ev = eval_lincomb(pinned, cfg8)
    ok = (
        len(reports) == 120
        and failure_count(reports) == 0
        and inconclusive_count(reports) == 0
        and pinned == want
        and abs(ev.midpoint - 0.3391143539948164) <= ev.radius + 1e-13
    )
    _report(
        3,
        ok,
        f"{len(reports)} weight<=10 points PASS at 1e-8; pinned value "
        f"{ev.midpoint:.16f}",
    )


def test_criterion_4_four_term_combination(cfg6):
    bad = []
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for s1 in (2, 3):
                for s2 in (2, 3):
                    for s3 in (2, 3):
                        rep = check(
                            build_identity("THM21_EQ5", (a, b, s1, s2, s3)), cfg6
                        )
                        if rep.verdict != "PASS":
                            bad.append(((a, b, s1, s2, s3), rep.verdict))
    cancel_ok = True
    try:
        for a in range(1, 7):
            for b in range(1, 7):
                four_term_lhs(a, b, (2, 2, 2))
                four_term_rhs(a, b, (2, 2, 2))
    except InternalNoncancellation:
        cancel_ok = False
    ok = not bad and cancel_ok
    _report(
        4,
        ok,
        f"72 grid points PASS at 1e-6; divergent strays cancel for all "
        f"a,b<=6; bad={bad}",
    )


def test_criterion_5_unit_exponent_reduction(cfg6):
    bad = []
    shape_ok = True
    n = 0
    for a in range(1, 7):
        for b in range(1, 7):
            for d in range(1, 7):
                if a + b + d > 8:
                    continue
                n += 1
                out = reduce_unit_witten(a, b, d)
                for term, coeff in out.items():
                    (f,) = term.factors
                    if (
                        coeff.denominator != 1
                        or not isinstance(f, EulerSum)
                        or len(f.indices) != 3
                        or f.indices[0] < 2
                    ):
                        shape_ok = False
                le = eval_lincomb(_atom(WittenSl4((a, b, 1, d, 0, 1))), cfg6)
                re_ = eval_lincomb(out, cfg6)
                if abs(le.midpoint - re_.midpoint) > le.radius + re_.radius:
                    bad.append((a, b, d))
    ok = n == 56 and not bad and shape_ok
    _report(
        5,
        ok,
        f"{n} tuples a+b+d<=8 PASS at 1e-6 with integer depth-3 outputs; "
        f"bad={bad}",
    )


def test_criterion_6_family_reduction_and_probe(cfg6):
    reports = sweep(ids=["THM22_FINAL"], cfg=cfg6)
    probe = sweep(ids=["TYPO_PROBE"], cfg=cfg6)
    fails = {0: 0, 1: 0}
    for rep in probe:
        if rep.verdict == "FAIL":
            fails[rep.record.parameters[-1]] += 1
    degenerate = build_identity("THM22_FINAL", (2, 3, 1, 2, 1))
    deg_rep = check(degenerate, cfg6)
    ok = (
        len(reports) == 252
        and failure_count(reports) == 0
        and inconclusive_count(reports) == 0
        and fails[1] >= 1
        and fails[0] == 0
        and degenerate.lhs == degenerate.rhs
        and deg_rep.gap == 0.0
    )
    _report(
        6,
        ok,
        f"252 weight<=10 reductions PASS at 1e-6; rejected transcription "
        f"fails {fails[1]} points, selected fails {fails[0]}; degenerate "
        f"c=f=1 is symbolically exact",
    )


def test_criterion_7_homogeneity_and_terminal_purity():
    homogeneous = True
    reduction_ok = True
    full_ok = True
    for ident in DEFAULT_SWEEP_IDS:
        for params in default_parameters(ident):
            rec = build_identity(ident, params)
            for side in (rec.lhs, rec.rhs):
                weights = {t.weight for t, _ in side.items()} - {0}
                if len(weights) > 1:
                    homogeneous = False
            if {t.weight for t, _ in rec.lhs.items()} - {0} != {
                t.weight for t, _ in rec.rhs.items()
            } - {0}:
                homogeneous = False
    for ident in ("HWZ_EQ3", "LEMMA24_EQ20", "THM22_FINAL"):
        for params in default_parameters(ident):
            rhs = build_identity(ident, params).rhs
            for term, coeff in rhs.items():
                if coeff.denominator != 1:
                    reduction_ok = False
                for f in term.factors:
                    if isinstance(f, SingleZeta) and f.s < 2:
                        reduction_ok = False
                    if isinstance(f, EulerSum) and f.indices[0] < 2:
                        reduction_ok = False
    for params in default_parameters("THM22_FINAL"):
        a, b, c, d, f = params
        out = reduce_witten(
            WittenSl4((a, b, c, d, 0, f)),
            expand_remainder=True,
            expand_mt=True,
        )
        for term, coeff in out.items():
            if any(
                isinstance(fac, (WittenSl4, MordellTornheim3))
                for fac in term.factors
            ):
                full_ok = False
            if coeff.denominator != 1:
                full_ok = False
    ok = homogeneous and reduction_ok and full_ok
    _report(
        7,
        ok,
        f"homogeneous={homogeneous} integer-and-zeta1-free={reduction_ok} "
        f"full-reduction-terminal={full_ok} (symbolic, no tolerance)",
    )


_ORACLE_CATALOG = [
    ("Z", (2,)), ("Z", (3,)), ("Z", (5,)), ("Z", (8,)),
    ("E", (2, 1)), ("E", (3, 2)), ("E", (4, 2)), ("E", (5, 1)), ("E", (2, 2)),
    ("E", (2, 1, 1)), ("E", (3, 2, 1)), ("E", (2, 2, 2)), ("E", (4, 1, 2)),
    ("E", (5, 2, 1)),
    ("MT", (1, 1, 1)), ("MT", (2, 1, 1)), ("MT", (2, 2, 2)), ("MT", (3, 1, 2)),
    ("MT", (1, 2, 3)), ("MT", (2, 2, 3)),
    ("W", (2, 1, 2, 1, 1, 1)), ("W", (1, 2, 1, 3, 1, 2)), ("W", (1, 1, 2, 1, 2, 1)),
    ("W", (2, 2, 1, 1, 1, 2)), ("W", (3, 3, 3, 3, 3, 3)), ("W", (1, 1, 1, 1, 1, 1)),
    ("W", (2, 1, 1, 2, 1, 1)), ("W", (1, 2, 2, 1, 2, 1)), ("W", (0, 0, 2, 2, 2, 2)),
    ("W", (2, 3, 4, 2, 3, 2)),
]


def test_criterion_8_oracle_containment(cfg6):
    assert len(_ORACLE_CATALOG) == 30
    # start cold so every cutoff (and so the oracle size) is the natural
    # one for this tolerance, not whatever a deeper earlier run cached
    clear_caches()
    misses = []
    for kind, idx in _ORACLE_CATALOG:
        if kind == "Z":
            atom = SingleZeta(idx[0])
        elif kind == "E":
            atom = EulerSum(idx)
        elif kind == "MT":
            atom = MordellTornheim3(*idx)
        else:
            atom = WittenSl4(idx)
        ev = eval_lincomb(_atom(atom), cfg6)
        n = 2 * ev.terms
        if kind == "Z":
            om, orad = oracles.zeta_ref(idx[0], n)
        elif kind == "E" and len(idx) == 2:
            om, orad = oracles.euler2_ref(*idx, n)
        elif kind == "E":
            om, orad = oracles.euler3_ref(*idx, n)
        elif kind == "MT":
            om, orad = oracles.mt_ref(*idx, n)
        else:
            om, orad = oracles.w4_ref(idx, n)
        if abs(om - ev.midpoint) > ev.radius + orad:
            misses.append((kind, idx))
    _report(
        8,
        not misses,
        f"30/30 brute-force enclosures at doubled cutoffs intersect the "
        f"certified intervals; misses={misses}",
    )


def test_criterion_9_performance_and_determinism():
    cfg = SummationConfig()
    t0 = time.perf_counter()
    serial = sweep(cfg=cfg, threads=1)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = sweep(cfg=cfg, threads=2)
    t_parallel = time.perf_counter() - t0
    same = format_report_lines(serial) == format_report_lines(parallel)
    ok = (
        t_serial < 600
        and same
        and len(serial) == 571
        and failure_count(serial) == 0
        and inconclusive_count(serial) == 0
    )
    _report(
        9,
        ok,
        f"default sweep: 571 records in {t_serial:.1f}s serial / "
        f"{t_parallel:.1f}s with 2 threads; outputs byte-identical={same}",
    )
