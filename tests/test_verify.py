"""Catalog construction, verdict logic, sweeps, and report formats."""

import csv
import io
import json
import math
import random
from fractions import Fraction

import pytest

import oracles
from wreduce.errors import UnsupportedParams
from wreduce.exact import LinearCombination, MordellTornheim3, WittenSl4
from wreduce.series import SummationConfig
from wreduce.verify import (
    DEFAULT_SWEEP_IDS,
    IDENTITY_IDS,
    IdentityRecord,
    Report,
    build_identity,
    check,
    default_parameters,
    expected_fail,
    failure_count,
    format_report_line,
    format_report_lines,
    format_reports_json,
    format_summary_csv,
    inconclusive_count,
    probe_summary,
    sweep,
    symmetry_tuples,
    write_reports,
)


def _mirror(s):
    return (s[2], s[1], s[0], s[4], s[3], s[5])


# ---------------------------------------------------------------------------
# record builders

def test_symmetry_record_pairs_atom_with_its_mirror():
    rec = build_identity("SYMMETRY_EQ6", (1, 2, 3, 1, 2, 3))
    assert rec.lhs == LinearCombination.from_atom(WittenSl4((1, 2, 3, 1, 2, 3)))
    assert rec.rhs == LinearCombination.from_atom(
        WittenSl4(_mirror((1, 2, 3, 1, 2, 3)))
    )


def test_region_records_hold_the_same_atom_on_both_sides():
    for ident, slots in [
        ("REGION_EQ13", (2, 2, 0, 2, 0, 2)),
        ("REGION_EQ14", (2, 0, 2, 2, 0, 2)),
        ("REGION_EQ15", (0, 0, 2, 2, 2, 2)),
    ]:
        rec = build_identity(ident, (2, 2, 2, 2))
        atom = LinearCombination.from_atom(WittenSl4(slots))
        assert rec.lhs == atom
        assert rec.rhs == atom
        assert rec.note


def test_region_builders_reject_small_or_misshapen_params():
    for bad in [(1, 2, 2, 2), (2, 2, 2), (2, 2, 2, 2, 2)]:
        with pytest.raises(UnsupportedParams):
            build_identity("REGION_EQ13", bad)


def test_probe_appends_rejected_variant_by_default():
    rec = build_identity("TYPO_PROBE", (2, 1, 2, 1, 2))
    assert rec.parameters == (2, 1, 2, 1, 2, 1)
    assert expected_fail(rec)
    rec0 = build_identity("TYPO_PROBE", (2, 1, 2, 1, 2, 0))
    assert not expected_fail(rec0)


def test_unknown_identity_and_bad_arity_raise():
    with pytest.raises(UnsupportedParams):
        build_identity("NO_SUCH_ID", (1, 2, 3))
    with pytest.raises(UnsupportedParams):
        build_identity("HWZ_EQ3", (1, 2))
    with pytest.raises(UnsupportedParams):
        build_identity("THM21_EQ5", (1, 2, 3))
    with pytest.raises(UnsupportedParams):
        build_identity("LEMMA24_EQ19", (1, 2, 3))


def test_identity_id_list_is_fixed():
    assert len(IDENTITY_IDS) == 15
    assert DEFAULT_SWEEP_IDS == tuple(
        i for i in IDENTITY_IDS if i != "TYPO_PROBE"
    )


# ---------------------------------------------------------------------------
# default grids

def test_default_grid_sizes():
    assert len(default_parameters("SYMMETRY_EQ6")) == 20
    assert len(default_parameters("HWZ_EQ3")) == 120
    assert len(default_parameters("THM21_EQ5")) == 18
    assert len(default_parameters("THM21_EQ5", 18)) == 72
    assert len(default_parameters("THM22_FINAL")) == 252
    assert len(default_parameters("LEMMA24_EQ18")) == 56
    assert len(default_parameters("TYPO_PROBE")) == 8


def test_default_sweep_record_total():
    total = sum(len(default_parameters(i)) for i in DEFAULT_SWEEP_IDS)
    assert total == 571


def test_symmetry_tuples_are_seeded_and_mirror_free():
    ts = symmetry_tuples()
    assert ts == symmetry_tuples()
    assert len(ts) == 20
    for t in ts:
        assert t != _mirror(t)
        assert sum(t) <= 18


def test_symmetry_tuples_stop_once_every_qualifying_tuple_is_drawn(monkeypatch):
    # at cap 7 only the four sum-7 tuples with a 2 off the mirror axis
    # qualify; the seeded order draws the last of them on draw 785
    randints = []

    class Counting(random.Random):
        def randint(self, a, b):
            randints.append((a, b))
            return super().randint(a, b)

    monkeypatch.setattr(random, "Random", Counting)
    ts = symmetry_tuples(7)
    assert ts == [(2, 1, 1, 1, 1, 1), (1, 1, 1, 2, 1, 1), (1, 1, 1, 1, 2, 1), (1, 1, 2, 1, 1, 1)]
    assert len(randints) == 6 * 785
    randints.clear()
    assert symmetry_tuples(5) == []
    assert randints == []


def test_negative_weight_cap_is_refused():
    with pytest.raises(UnsupportedParams, match="negative"):
        default_parameters("LEMMA21_INSTANCE", -1)
    with pytest.raises(UnsupportedParams, match="negative"):
        sweep(ids=["HWZ_EQ3"], weight_cap=-1)


# ---------------------------------------------------------------------------
# verdicts

def test_check_pass_on_double_sum_reduction(cfg6):
    rep = check(build_identity("HWZ_EQ3", (2, 2, 2)), cfg6)
    assert rep.verdict == "PASS"
    assert rep.gap <= rep.budget
    assert rep.detail == ""
    assert rep.tolerance == cfg6.tolerance


def test_check_fail_on_rejected_transcription(cfg6):
    rep = check(build_identity("TYPO_PROBE", (2, 1, 2, 1, 2, 1)), cfg6)
    assert rep.verdict == "FAIL"
    assert rep.gap > 2 * rep.budget
    assert expected_fail(rep.record)
    assert failure_count([rep]) == 0
    assert inconclusive_count([rep]) == 0


def test_check_pass_on_validated_transcription(cfg6):
    rep = check(build_identity("TYPO_PROBE", (2, 1, 2, 1, 2, 0)), cfg6)
    assert rep.verdict == "PASS"


@pytest.mark.parametrize(
    "gap,verdict",
    [(0.5, "PASS"), (0.75, "INCONCLUSIVE"), (1.0, "INCONCLUSIVE"), (1.25, "FAIL")],
)
def test_check_verdict_bands(monkeypatch, cfg6, gap, verdict):
    # both sides certify with radius 1/4, so the budget is 1/2: a gap within
    # it passes, one beyond twice it fails, and the band between is neither
    from wreduce import verify
    from wreduce.series import Evaluation

    rec = build_identity("HWZ_EQ3", (2, 2, 2))
    sides = {id(rec.lhs): Evaluation(1.0, 0.25), id(rec.rhs): Evaluation(1.0 + gap, 0.25)}
    monkeypatch.setattr(verify, "eval_lincomb", lambda lc, cfg: sides[id(lc)])
    rep = check(rec, cfg6)
    assert (rep.verdict, rep.gap, rep.budget, rep.detail) == (verdict, gap, 0.5, "")


def test_check_turns_evaluation_errors_into_inconclusive():
    # the region cross-evaluator cannot certify this record to the floor
    # within its largest box, which must surface as a verdict, not a crash
    rep = check(build_identity("REGION_EQ14", (2, 2, 2, 2)), SummationConfig(tolerance=1e-12))
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.detail.startswith("TOLERANCE_UNREACHABLE:")
    assert math.isnan(rep.gap) and math.isnan(rep.budget)
    assert failure_count([rep]) == 0
    assert inconclusive_count([rep]) == 1


def test_region_checks_pass_at_tight_tolerance(cfg8):
    for ident in ("REGION_EQ13", "REGION_EQ14", "REGION_EQ15"):
        rep = check(build_identity(ident, (2, 2, 2, 2)), cfg8)
        assert rep.verdict == "PASS", (ident, rep.detail)
        assert rep.budget < 1e-7


def test_region_evaluator_agrees_with_brute_force(cfg8):
    from wreduce.verify import _region_value

    for ident, slots in [
        ("REGION_EQ13", (2, 2, 0, 2, 0, 2)),
        ("REGION_EQ14", (2, 0, 2, 2, 0, 2)),
        ("REGION_EQ15", (0, 0, 2, 2, 2, 2)),
    ]:
        ev = _region_value(ident, (2, 2, 2, 2), cfg8)
        mid, rad = oracles.w4_ref(slots, 400)
        assert abs(ev.midpoint - mid) <= ev.radius + rad, ident


def test_region_evaluator_pinned_at_tight_tolerances():
    # rungs whose closed-form remainder alone exceeds the request are
    # skipped unsummed; a refusal quotes remainder / 2 of the last rung
    from wreduce.errors import ToleranceUnreachable
    from wreduce.verify import _region_value

    ev = _region_value("REGION_EQ14", (2, 2, 2, 2), SummationConfig(tolerance=1e-10))
    assert (ev.midpoint.hex(), ev.radius.hex(), ev.terms) == (
        "0x1.bc8bc94e66393p-5", "0x1.f35cdd0fabc80p-37", 4000
    )
    with pytest.raises(ToleranceUnreachable) as exc:
        _region_value("REGION_EQ14", (2, 2, 2, 2), SummationConfig(tolerance=1e-12))
    assert str(exc.value).endswith(
        "constrained-region sum for REGION_EQ14(2, 2, 2, 2) cannot certify below "
        "1.409e-11 at box 4000, above the requested 1.000e-12"
    )


def _reference_power_tail_table(limit, d):
    # the row loop's tail table: tails[x] encloses the sum of v^-d over
    # v > x, x = 0..limit, to within one uniform radius
    import numpy as np

    from wreduce import verify

    span = limit + 60000
    v = np.arange(1, span + 1, dtype=np.float64)
    pref = np.cumsum(v ** float(-d))
    lo = (span + 1) ** (1 - d) / (d - 1)
    hi = span ** (1 - d) / (d - 1)
    tails = np.empty(limit + 1)
    tails[0] = pref[-1] + (lo + hi) / 2
    tails[1:] = pref[-1] - pref[:limit] + (lo + hi) / 2
    rad = (hi - lo) / 2 + verify._EPS * pref[-1] * (span + 8)
    return tails, rad


def _reference_region_value(identity_id, params, cfg):
    # reference: the region evaluator summing its box one row at a time,
    # with a blanket rounding charge
    import numpy as np

    from wreduce import verify
    from wreduce.errors import ToleranceUnreachable
    from wreduce.series import Evaluation

    a, b, c, d = params
    tol = cfg.tolerance
    last = None
    for box in verify._REGION_LADDER:
        remainder = verify._region_remainder(identity_id, params, box)
        if remainder / 2 > tol and box != verify._REGION_LADDER[-1]:
            continue
        n = np.arange(1, box + 1, dtype=np.float64)
        idx = np.arange(1, box + 1)
        total = 0.0
        if identity_id == "REGION_EQ13":
            tails, tailrad = _reference_power_tail_table(2 * box, d)
            pa = n ** float(-a)
            pb = n ** float(-b)
            spow = np.arange(1, 2 * box + 1, dtype=np.float64) ** float(-c)
            wsum = 0.0
            for i in range(1, box + 1):
                core = pa[i - 1] * pb * spow[i : i + box]
                total += float(np.sum(core * tails[i + idx]))
                wsum += float(np.sum(core))
            aux = wsum * tailrad
        elif identity_id == "REGION_EQ14":
            pref = np.concatenate(([0.0], np.cumsum(n ** float(-a))))
            pb = n ** float(-b)
            pc = n ** float(-c)
            spow = np.arange(1, 2 * box + 1, dtype=np.float64) ** float(-d)
            for i in range(1, box + 1):
                total += pref[i - 1] * pc[i - 1] * float(np.sum(pb * spow[i : i + box]))
            aux = 0.0
        else:
            pref = np.concatenate(
                ([0.0], np.cumsum(np.arange(1, 2 * box + 1, dtype=np.float64) ** float(-c)))
            )
            pa = n ** float(-a)
            pb = n ** float(-b)
            spow = np.arange(1, 2 * box + 1, dtype=np.float64) ** float(-d)
            for i in range(1, box + 1):
                between = pref[i : i + box] - pref[i]
                total += pa[i - 1] * float(np.sum(between * pb * spow[i : i + box]))
            aux = 0.0
        floats = verify._EPS * total * (box + 64)
        radius = remainder / 2 + aux + floats
        last = Evaluation(total + remainder / 2, radius, box)
        if radius <= tol:
            return last
    raise ToleranceUnreachable(
        f"constrained-region sum for {identity_id}{params} certifies only "
        f"{last.radius:.3e} at box {last.terms}, above the requested {tol:.3e}"
    )


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10, 1e-12])
def test_region_evaluator_matches_the_row_loop(tol):
    # the diagonal sums stop at the row loop's box, with an enclosure that
    # overlaps it and a radius at most 1.01 times its radius; at the floor,
    # where the row loop refuses all nine records, EQ13 certifies and
    # overlaps the engine's value
    from wreduce.errors import ToleranceUnreachable
    from wreduce.series import eval_lincomb
    from wreduce.verify import _region_value

    cfg = SummationConfig(tolerance=tol)
    for ident in ("REGION_EQ13", "REGION_EQ14", "REGION_EQ15"):
        for params in default_parameters(ident):
            if tol < 1e-10:
                with pytest.raises(ToleranceUnreachable):
                    _reference_region_value(ident, params, cfg)
                if ident != "REGION_EQ13":
                    with pytest.raises(ToleranceUnreachable):
                        _region_value(ident, params, cfg)
                    continue
                want = eval_lincomb(build_identity(ident, params).lhs, cfg)
            else:
                want = _reference_region_value(ident, params, cfg)
            got = _region_value(ident, params, cfg)
            assert abs(got.midpoint - want.midpoint) <= got.radius + want.radius, (ident, params)
            if tol >= 1e-10:
                assert got.terms == want.terms, (ident, params)
                assert got.radius <= 1.01 * want.radius, (ident, params)


def test_diagonal_sums_stay_inside_their_rounding_bound():
    # np.convolve output k must lie within gamma_{n_k} c[k] of the exact
    # diagonal sum, summed here in integers.  The inputs mix magnitudes 1
    # and 2^-30, and the small terms' low bits sit just under half an ulp
    # of the running sums, so their roundings pile up in one direction
    import numpy as np

    from wreduce.verify import _diagonals

    small = 2.0**-30 * (1 + 0.49 * 2.0**-20)
    x = np.where(np.arange(257) < 8, 1.0, small)
    y = x[::-1].copy()
    c, rad = _diagonals(x, y)
    # every entry is an integer multiple of 2^-82
    assert all((Fraction(v) * 2**82).denominator == 1 for v in x)
    xi = [int(Fraction(v) * 2**82) for v in x]
    yi = xi[::-1]
    exact = [0] * c.size
    for i, xv in enumerate(xi):
        for j, yv in enumerate(yi):
            exact[i + j] += xv * yv
    errors = [abs(Fraction(ck) - Fraction(e, 2**164)) for ck, e in zip(c.tolist(), exact)]
    assert all(err <= Fraction(r) for err, r in zip(errors, rad.tolist()))
    assert any(errors)


# sums of v^-d, 30 digits
_ZETA = {
    2: Fraction("1.644934066848226436472415166646"),
    3: Fraction("1.202056903159594285399738161511"),
    4: Fraction("1.082323233711138191516003696541"),
}


@pytest.mark.parametrize("d", sorted(_ZETA))
@pytest.mark.parametrize("limit", [40, 3000])
def test_power_tail_table_encloses_the_zeta_tails(d, limit):
    # t[u] encloses zeta(d) - sum_{v<=u} v^-d entry by entry
    from wreduce.verify import _power_tail_table

    t, trad = _power_tail_table(limit, d)
    assert t.shape == trad.shape == (limit + 1,)
    tail = _ZETA[d]
    for u in range(limit + 1):
        if u:
            tail -= Fraction(1, u**d)
        assert abs(Fraction(t[u]) - tail) <= Fraction(trad[u]), u


def test_region_evaluator_uses_no_engine_code():
    # the cross-evaluator and every helper it calls may take nothing from
    # series but the Evaluation it returns; annotations are not evaluated
    import ast
    import inspect

    from wreduce import verify

    tree = ast.parse(inspect.getsource(verify))
    engine = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "series"
        for alias in node.names
    }
    forbidden = engine - {"Evaluation"}
    assert {"SummationConfig", "eval_lincomb"} <= forbidden
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    seen, todo = set(), ["_region_value"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for stmt in functions[name].body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    assert node.id not in forbidden, (name, node.id)
                    if node.id in functions:
                        todo.append(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    assert node.value.id != "series", (name, node.attr)
    assert {"_by_diagonal", "_diagonals", "_power_tail_table", "_region_remainder"} <= seen


# sha256 over the verdict and the hex midpoints and radii of both sides of
# every SYMMETRY_EQ6 and COMBINE_EQ17 record of the cold default sweep, as
# computed with numpy's float64 pow on x86-64 when every atom was first
# evaluated once under its caps; every general-W atom must reproduce them
# bit for bit.  No atom's value depends on the tolerance, and every record
# passes at both, so both tolerances give the same digest
_GENERAL_W_SWEEP_DIGESTS = {
    1e-8: "332fc0bcafb6d20b90f6ca325d42ec8e373e5741d140e8189df53c1345d2d226",
    1e-10: "332fc0bcafb6d20b90f6ca325d42ec8e373e5741d140e8189df53c1345d2d226",
}


@pytest.mark.parametrize("tol", sorted(_GENERAL_W_SWEEP_DIGESTS))
def test_general_w_records_of_the_default_sweep_golden(tol):
    import hashlib

    from wreduce.series import clear_caches

    clear_caches()
    digest = hashlib.sha256()
    for rep in sweep(cfg=SummationConfig(tolerance=tol)):
        if rep.record.identity_id not in ("SYMMETRY_EQ6", "COMBINE_EQ17"):
            continue
        fields = [rep.record.identity_id, repr(rep.record.parameters), rep.verdict]
        for ev in (rep.lhs_eval, rep.rhs_eval):
            fields += [ev.midpoint.hex(), ev.radius.hex()] if ev else ["", ""]
        digest.update(("|".join(fields) + "\n").encode())
    assert digest.hexdigest() == _GENERAL_W_SWEEP_DIGESTS[tol]


# sha256 of the report lines of the whole cold default sweep, as computed
# with numpy's float64 pow on x86-64 when every atom was first evaluated
# once under its caps; the same caveat as the digests above
_DEFAULT_SWEEP_DIGESTS = {
    1e-8: "5e2951d6c1a28d92055ff37f469aabefe9bae76a08b6a68bcbcbad5ab341ac19",
    1e-10: "bc56466121958a62dd200e45b599b12e315050b421f67523390465e3e3fc873e",
}


def _cold_default_sweep_lines(tol):
    from wreduce.series import clear_caches

    clear_caches()
    return format_report_lines(sweep(cfg=SummationConfig(tolerance=tol)))


@pytest.mark.parametrize("tol", sorted(_DEFAULT_SWEEP_DIGESTS))
def test_default_sweep_report_golden(tol):
    import hashlib

    lines = _cold_default_sweep_lines(tol)
    assert hashlib.sha256(lines.encode()).hexdigest() == _DEFAULT_SWEEP_DIGESTS[tol]


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_default_sweep_lines_do_not_depend_on_record_order(tol):
    # each atom has one certified value, so checking the records backwards
    # in one workspace must give every line byte for byte
    from wreduce.series import clear_caches

    records = [build_identity(i, p) for i in DEFAULT_SWEEP_IDS for p in default_parameters(i)]
    cfg = SummationConfig(tolerance=tol)
    clear_caches()
    backwards = [check(r, cfg) for r in reversed(records)]
    assert format_report_lines(backwards[::-1]) == _cold_default_sweep_lines(tol)


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_rejects_weight_cap_above_limit():
    with pytest.raises(UnsupportedParams):
        sweep(weight_cap=12)


def test_sweep_deduplicates_ids_and_keeps_order(cfg6):
    once = sweep(ids=["HWZ_EQ3"], weight_cap=6, cfg=cfg6)
    twice = sweep(ids=["HWZ_EQ3", "HWZ_EQ3"], weight_cap=6, cfg=cfg6)
    assert len(once) == len(twice) == 20
    assert [r.record.parameters for r in once] == [
        r.record.parameters for r in twice
    ]


def test_sweep_refuses_one_string_of_ids(cfg6):
    # a bare string would be read as one-letter ids, 'H' refused as unknown
    with pytest.raises(UnsupportedParams, match="list of ids"):
        sweep(ids="HWZ_EQ3", weight_cap=6, cfg=cfg6)
    assert len(sweep(ids=("HWZ_EQ3",), weight_cap=6, cfg=cfg6)) == 20


def test_sweep_empty_ids_gives_empty_report(cfg6):
    assert sweep(ids=[], cfg=cfg6) == []
    assert format_report_lines([]) == ""


@pytest.mark.parametrize("workers", [2, 4])
def test_sweep_verdicts_do_not_depend_on_chunk_assignment(workers):
    # deal the records in chunks round-robin to simulated workers, each
    # starting from an empty workspace: a record's line must not depend on
    # what its workspace already held
    from wreduce.series import clear_caches

    cfg = SummationConfig(tolerance=1e-10)
    clear_caches()
    serial = sweep(cfg=cfg)
    records = [build_identity(i, p) for i in DEFAULT_SWEEP_IDS for p in default_parameters(i)]
    size = max(1, len(records) // (workers * 4))
    chunks = [records[i : i + size] for i in range(0, len(records), size)]
    done = [None] * len(chunks)
    for worker in range(workers):
        clear_caches()
        for c in range(worker, len(chunks), workers):
            done[c] = [check(r, cfg) for r in chunks[c]]
    clear_caches()
    dealt = [rep for chunk in done for rep in chunk]
    assert [r.record for r in dealt] == [r.record for r in serial]
    assert [r.verdict for r in dealt] == [r.verdict for r in serial]
    assert format_report_lines(dealt) == format_report_lines(serial)


def test_probe_sweep_discriminates_variants(cfg6):
    reports = sweep(ids=["TYPO_PROBE"], cfg=cfg6)
    assert len(reports) == 8
    line = probe_summary(reports)
    assert "variant 'eq22' validated" in line
    assert "failed at 3 of 4 grid points" in line
    assert failure_count(reports) == 0


def test_probe_summary_edge_wordings(cfg6):
    assert probe_summary([]) == ""
    reports = sweep(ids=["TYPO_PROBE"], cfg=cfg6)
    ok_only = [r for r in reports if r.record.parameters[-1] == 0]
    assert "no transcription failed" in probe_summary(ok_only)
    bad_only = [r for r in reports if r.verdict == "FAIL"]
    assert "nothing validated" in probe_summary(bad_only)


# ---------------------------------------------------------------------------
# report formats

def _nan_report():
    rec = IdentityRecord(
        identity_id="HWZ_EQ3",
        parameters=(1, 1, 1),
        lhs=LinearCombination.from_atom(MordellTornheim3(1, 1, 1)),
        rhs=LinearCombination.from_atom(MordellTornheim3(1, 1, 1)),
    )
    return Report(
        record=rec,
        lhs_eval=None,
        rhs_eval=None,
        gap=math.nan,
        budget=math.nan,
        verdict="INCONCLUSIVE",
        detail="UNSUPPORTED_PARAMS: pipes | are | not | field breaks",
        runtime_ms=7,
        tolerance=1e-6,
    )


def test_report_line_has_thirteen_fields(cfg6):
    rep = check(build_identity("HWZ_EQ3", (2, 2, 2)), cfg6)
    fields = format_report_line(rep).split("|")
    assert len(fields) == 13
    assert fields[0] == "HWZ_EQ3"
    assert fields[1] == "(2,2,2)"
    assert fields[10] == "PASS"
    assert fields[11] == "0"
    assert float(fields[4]) == rep.lhs_eval.midpoint


def test_report_line_escapes_pipes_and_blanks_nan():
    rep = _nan_report()
    fields = format_report_line(rep, timings=True).split("|")
    assert len(fields) == 13
    assert fields[4] == fields[8] == fields[9] == ""
    assert fields[11] == "7"
    assert fields[12] == "UNSUPPORTED_PARAMS: pipes / are / not / field breaks"


def _cell_agrees(cell: str, value) -> bool:
    if value is None:
        return cell == ""
    if isinstance(value, list):
        return cell == "(" + ",".join(map(str, value)) + ")"
    if isinstance(value, (int, float)):
        return float(cell) == value
    return cell == value.replace("|", "/")


@pytest.mark.parametrize("timings", [False, True])
def test_json_row_text_and_csv_cells_agree(cfg6, timings):
    for rep in (check(build_identity("HWZ_EQ3", (2, 2, 2)), cfg6), _nan_report()):
        row = json.loads(format_reports_json([rep], timings))["reports"][0]
        header, cells = csv.reader(io.StringIO(format_summary_csv([rep], timings)))
        text = format_report_line(rep, timings).split("|")
        assert sorted(header) == sorted(row) and len(header) == 13
        assert cells == text
        for name, cell in zip(header, cells):
            assert _cell_agrees(cell, row[name]), name


def test_runtime_column_is_zeroed_without_timings():
    rep = _nan_report()
    assert format_report_line(rep, timings=False).split("|")[11] == "0"


def test_format_lines_appends_probe_comment(cfg6):
    reports = sweep(ids=["TYPO_PROBE"], cfg=cfg6)
    text = format_report_lines(reports)
    lines = text.strip().split("\n")
    assert len(lines) == 9
    assert lines[-1].startswith("# typo probe:")


def test_summary_csv_round_trips(cfg6):
    reports = [check(build_identity("HWZ_EQ3", (2, 2, 2)), cfg6), _nan_report()]
    rows = list(csv.reader(io.StringIO(format_summary_csv(reports))))
    assert rows[0][:2] == ["identity_id", "params"]
    assert len(rows) == 3
    assert all(len(r) == 13 for r in rows)
    assert rows[1][10] == "PASS"
    assert rows[2][12].count("|") == 0


def test_write_reports_creates_both_files(tmp_path, cfg6):
    reports = [check(build_identity("HWZ_EQ3", (2, 2, 2)), cfg6)]
    path = tmp_path / "out.txt"
    csv_path = write_reports(reports, str(path))
    assert csv_path == str(path) + ".summary.csv"
    assert path.read_text(encoding="utf-8") == format_report_lines(reports)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][0] == "HWZ_EQ3"


# ---------------------------------------------------------------------------
# record invariants and parameter types

def test_each_family_weight_is_the_weight_of_the_lhs_it_builds():
    from wreduce.verify import FAMILIES

    points = {(ident, p) for ident, fam in FAMILIES.items() for cap in range(15) for p in fam.grid(cap)}
    assert {ident for ident, _ in points} == set(FAMILIES)
    mismatches = [
        (ident, p)
        for ident, p in sorted(points)
        if {term.weight for term, _ in build_identity(ident, p).lhs} != {FAMILIES[ident].weight(p)}
    ]
    assert mismatches == []


def test_a_record_refuses_sides_of_different_weights():
    from wreduce.exact import SingleZeta, intern_term

    z3 = LinearCombination.from_atom(SingleZeta(3))
    with pytest.raises(UnsupportedParams, match="different weights"):
        IdentityRecord("HAND_BUILT", (3,), z3, LinearCombination.from_atom(SingleZeta(4)))
    with pytest.raises(UnsupportedParams, match="different weights"):
        IdentityRecord("HAND_BUILT", (3,), z3, z3 + LinearCombination.from_atom(SingleZeta(4)))
    # a constant weighs nothing, so it matches a side of any weight
    IdentityRecord("HAND_BUILT", (3,), z3, LinearCombination.from_term(intern_term(()), 2))


@pytest.mark.parametrize("params", [(2.5, 2, 2), (2.0, 2, 2), ("2", 2, 2), (None, 2, 2)])
def test_build_identity_refuses_non_integer_parameters(params):
    with pytest.raises(UnsupportedParams, match="not an integer"):
        build_identity("HWZ_EQ3", params)


def test_build_identity_reads_integer_like_parameters_as_ints():
    import numpy as np

    for params in (np.array([2, 2, 2]), (True, 2, 2)):
        rec = build_identity("HWZ_EQ3", params)
        assert [type(v) for v in rec.parameters] == [int] * 3
    assert rec.parameters == (1, 2, 2)


@pytest.mark.parametrize("cap", [4.5, 10.0, "10", None])
def test_a_non_integer_weight_cap_is_refused(cap):
    with pytest.raises(UnsupportedParams, match="not an integer"):
        default_parameters("HWZ_EQ3", cap)
    with pytest.raises(UnsupportedParams, match="not an integer"):
        sweep(ids=["HWZ_EQ3"], weight_cap=cap)
