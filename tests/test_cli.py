"""End-to-end CLI behavior through main(argv): output shapes, env
fallbacks, and the exit-code contract (0 pass, 1 verification failure,
2 usage, 3 convergence/tolerance)."""

import json
import math

import pytest

from wreduce.cli import main
from wreduce.reduce import reduce_unit_witten


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    # keep ambient WREDUCE_* settings out of every test
    import os

    for key in list(os.environ):
        if key.startswith("WREDUCE_"):
            monkeypatch.delenv(key)


# ---------------------------------------------------------------------------
# parser-level behavior

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "eval" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_wrong_reduce_arity_is_usage_error(capsys):
    assert main(["reduce", "1", "1"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# eval

def test_eval_zeta_text(capsys):
    assert main(["eval", "Z(2)"]) == 0
    out = capsys.readouterr().out
    assert "1.64493" in out
    assert "+/-" in out
    assert "terms=" in out and "elapsed=" in out


def test_eval_accepts_w4_spelling(capsys):
    assert main(["eval", "W4(2,3,4,0,0,0)"]) == 0
    capsys.readouterr()


def test_eval_json_payload(capsys):
    assert main(["eval", "Z(2)", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"expression", "midpoint", "radius", "terms", "elapsed_ms"}
    assert abs(doc["midpoint"] - math.pi**2 / 6) <= doc["radius"]
    assert doc["expression"] == "1 * Z(2)"


def test_eval_csv_header(capsys):
    assert main(["eval", "MT(2,2,2)", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("expression,midpoint,radius,terms,elapsed_ms\n")
    assert '"1 * MT(2,2,2)"' in out


def test_eval_divergence_gate_exits_three(capsys):
    assert main(["eval", "W(1,1,1,1,1,0)"]) == 3
    assert "CONVERGENCE_UNVERIFIED" in capsys.readouterr().err


def test_eval_radius_above_tolerance_exits_three(capsys):
    # each zeta certifies about 1e-14 to 3e-14, so three of them weighted
    # by 1000 add up to a radius near 7e-11, above 1e-11
    argv = ["eval", "1000 * Z(2) + 1000 * Z(3) + 1000 * Z(4)", "--tol", "1e-11"]
    assert main(argv) == 3
    assert "TOLERANCE_UNREACHABLE" in capsys.readouterr().err


def test_eval_coefficient_beyond_float64_exits_three(capsys):
    # refused like 10**308 * Z(2) + -10**308 * Z(3), whose radius is inf
    assert main(["eval", f"{2 * 10**308} * Z(2)"]) == 3
    assert capsys.readouterr().err.startswith("TOLERANCE_UNREACHABLE: coefficient 2000")


def test_eval_subnormal_coefficient_is_enclosed(capsys):
    # the coefficient's float is subnormal: the printed enclosure must hold
    # the exact value zeta(2) / (3 * 10**320), checked in rationals
    from fractions import Fraction

    assert main(["eval", f"1/3{'0' * 320} * Z(2)", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    mid, rad = Fraction(out["midpoint"]), Fraction(out["radius"])
    scale = Fraction(1, 3 * 10**320)
    lo = scale * Fraction(16449340668482264, 10**16)
    hi = scale * Fraction(16449340668482265, 10**16)
    assert mid - rad <= lo < hi <= mid + rad


def test_eval_parse_error_exits_two(capsys):
    assert main(["eval", "Q(3)"]) == 2
    assert "INADMISSIBLE_INDEX" in capsys.readouterr().err


def test_eval_zero_denominator_exits_two(capsys):
    assert main(["eval", "1/0 * Z(2)"]) == 2
    assert "INADMISSIBLE_INDEX" in capsys.readouterr().err


def test_eval_malformed_env_tol_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("WREDUCE_TOL", "abc")
    assert main(["eval", "Z(2)"]) == 2
    assert "WREDUCE_TOL" in capsys.readouterr().err


def test_eval_invalid_env_tol_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("WREDUCE_TOL", "-1")
    assert main(["eval", "Z(2)"]) == 3
    assert "TOLERANCE_UNREACHABLE" in capsys.readouterr().err


def test_env_format_honored_and_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("WREDUCE_FORMAT", "json")
    assert main(["eval", "Z(2)"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["eval", "Z(2)", "--format", "text"]) == 0
    assert "+/-" in capsys.readouterr().out


def test_eval_out_writes_file(capsys, tmp_path):
    target = tmp_path / "ev.txt"
    assert main(["eval", "Z(3)", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "+/-" in target.read_text(encoding="utf-8")


def test_unwritable_out_exits_two(capsys):
    assert main(["eval", "Z(2)", "--out", "/no-such-dir/x.txt"]) == 2
    assert "cannot write" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reduce

def test_reduce_unit_family_matches_library_render(capsys):
    assert main(["reduce", "1", "1", "1", "1", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == reduce_unit_witten(1, 1, 1).render()


def test_reduce_full_output_is_terminal(capsys):
    assert main(["reduce", "2", "2", "2", "2", "2", "--full"]) == 0
    out = capsys.readouterr().out
    assert "W(" not in out and "MT(" not in out
    assert "E(" in out


def test_reduce_rejects_nonpositive_exponents(capsys):
    assert main(["reduce", "0", "1", "1", "1", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--tol", "1e-30"], ["--max-terms", "5"]])
def test_reduce_refuses_the_evaluator_flags(capsys, flag):
    # reduce evaluates nothing, so a tolerance is a usage error; no command
    # takes a cutoff cap
    assert main(["reduce", "2", "1", "2", "1", "2", *flag]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["eval", "Z(2)"], ["verify", "HWZ_EQ3", "2", "2", "2"], ["sweep"]]
)
def test_evaluating_commands_take_no_cutoff_cap(capsys, argv):
    # the cutoff cap is a constant of the evaluator, not a setting
    assert main([*argv, "--max-terms", "5"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_reduce_variant_flag_changes_discriminating_point(capsys):
    assert main(["reduce", "2", "1", "2", "1", "2", "--variant", "eq22"]) == 0
    good = capsys.readouterr().out
    assert main(["reduce", "2", "1", "2", "1", "2", "--variant", "paper-final"]) == 0
    bad = capsys.readouterr().out
    assert good != bad


def test_reduce_variants_agree_at_unit_collapsed_pair(capsys):
    assert main(["reduce", "1", "1", "2", "1", "1", "--variant", "eq22"]) == 0
    good = capsys.readouterr().out
    assert main(["reduce", "1", "1", "2", "1", "1", "--variant", "paper-final"]) == 0
    assert capsys.readouterr().out == good


def test_reduce_json_then_eval_round_trip(capsys):
    assert main(["reduce", "2", "1", "2", "1", "2", "--full", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"] == "W(2,1,2,1,0,2)"
    assert main(["eval", doc["reduction"], "--format", "json"]) == 0
    reduced = json.loads(capsys.readouterr().out)
    assert main(["eval", "W(2,1,2,1,0,2)", "--format", "json"]) == 0
    direct = json.loads(capsys.readouterr().out)
    tol = reduced["radius"] + direct["radius"]
    assert abs(reduced["midpoint"] - direct["midpoint"]) <= tol


def test_reduce_csv_row_parses_back(capsys):
    import csv
    import io

    from wreduce.exact import WittenSl4, parse
    from wreduce.reduce import reduce_witten

    assert main(["reduce", "2", "1", "2", "1", "2", "--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["input", "variant", "reduction"]
    assert len(rows) == 1
    source, variant, reduction = rows[0]
    assert (source, variant) == ("W(2,1,2,1,0,2)", "eq22")
    assert parse(reduction) == reduce_witten(WittenSl4((2, 1, 2, 1, 0, 2)), variant)


# ---------------------------------------------------------------------------
# verify

def test_verify_named_flags(capsys):
    assert main(["verify", "THM21_EQ5", "--a", "1", "--b", "2", "--s", "2", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("THM21_EQ5|(1,2,2,2,2)|")
    assert "|PASS|" in out


# the first default grid point of each family, spelled with named flags
_NAMED_FIRST_POINTS = {
    "SYMMETRY_EQ6": ["--s", "1", "1", "2", "2", "3", "1"],
    "FACTOR_EQ12": ["--a", "2", "--b", "2", "--c", "3", "--d", "2"],
    "REGION_EQ13": ["--a", "2", "--b", "2", "--c", "2", "--d", "2"],
    "REGION_EQ14": ["--a", "2", "--b", "2", "--c", "2", "--d", "2"],
    "REGION_EQ15": ["--a", "2", "--b", "2", "--c", "2", "--d", "2"],
    "COMBINE_EQ16": ["--s", "2", "2", "--i", "2", "--t", "2"],
    "COMBINE_EQ17": ["--s", "2", "2", "--i", "2", "--t", "2"],
    "LEMMA21_INSTANCE": ["--mode", "0", "--a", "1", "--b", "1", "--s", "0"],
    "HWZ_EQ3": ["--a", "1", "--b", "1", "--c", "1"],
    "THM21_EQ5": ["--a", "1", "--b", "1", "--s", "2", "2", "2"],
    "LEMMA24_EQ18": ["--a", "1", "--b", "1", "--d", "1"],
    "LEMMA24_EQ19": ["--a", "1", "--d", "1"],
    "LEMMA24_EQ20": ["--a", "1", "--d", "2"],
    "THM22_FINAL": ["--a", "1", "--b", "1", "--c", "1", "--d", "1", "--f", "1"],
    "TYPO_PROBE": ["--a", "1", "--b", "1", "--c", "2", "--d", "1", "--f", "1",
                   "--variant", "eq22"],
}


@pytest.mark.parametrize("ident", sorted(_NAMED_FIRST_POINTS))
def test_verify_named_flags_build_the_positional_record(capsys, monkeypatch, ident):
    from wreduce import verify

    assert set(_NAMED_FIRST_POINTS) == set(verify.IDENTITY_IDS)
    built = []
    real = verify.build_identity
    monkeypatch.setattr(
        verify, "build_identity", lambda i, p: built.append(real(i, p)) or built[-1]
    )
    point = verify.default_parameters(ident)[0]
    assert main(["verify", ident, *_NAMED_FIRST_POINTS[ident]]) == 0
    named_out = capsys.readouterr().out
    assert main(["verify", ident, *map(str, point)]) == 0
    assert capsys.readouterr().out == named_out
    assert built[0] == built[1]
    assert built[1].parameters == point


def test_verify_positional_params(capsys):
    assert main(["verify", "HWZ_EQ3", "2", "2", "2"]) == 0
    assert "|PASS|" in capsys.readouterr().out


def test_verify_missing_named_flag_exits_two(capsys):
    assert main(["verify", "THM21_EQ5", "--a", "1"]) == 2
    assert "--b" in capsys.readouterr().err


def test_verify_wrong_s_arity_exits_two(capsys):
    assert main(["verify", "SYMMETRY_EQ6", "--s", "1", "2", "3"]) == 2
    assert "6 values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "HWZ_EQ3", "2", "2", "2", "--a", "5"], "--a"),
        (["verify", "THM21_EQ5", "1", "2", "2", "2", "2", "--s", "3", "3", "3"], "--s"),
        (["verify", "TYPO_PROBE", "2", "1", "2", "1", "2", "--f", "3", "--variant", "eq22"], "--f"),
    ],
)
def test_verify_positional_params_with_a_named_flag_exit_two(capsys, argv, flag):
    assert main(argv) == 2
    assert f"not both ({flag})" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "FACTOR_EQ12", "--a", "1", "--b", "1", "--c", "2", "--d", "1", "--f", "3"], "--f"),
        (["verify", "HWZ_EQ3", "--a", "1", "--b", "1", "--c", "1", "--mode", "0"], "--mode"),
        (["verify", "LEMMA24_EQ19", "--a", "1", "--d", "1", "--s", "2"], "--s"),
    ],
)
def test_verify_named_flag_the_family_does_not_list_exits_two(capsys, argv, flag):
    assert main(argv) == 2
    assert f"takes no {flag}" in capsys.readouterr().err


def test_verify_unknown_identity_exits_two(capsys):
    assert main(["verify", "NOT_AN_ID", "1", "2"]) == 2
    assert "unknown identity id" in capsys.readouterr().err


def test_verify_probe_defaults_to_rejected_transcription(capsys):
    argv = ["verify", "TYPO_PROBE", "--a", "2", "--b", "1", "--c", "2",
            "--d", "1", "--f", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "|(2,1,2,1,2,1)|" in out
    assert "|FAIL|" in out


def test_verify_probe_variant_flag_selects_validated_one(capsys):
    argv = ["verify", "TYPO_PROBE", "--a", "2", "--b", "1", "--c", "2",
            "--d", "1", "--f", "2", "--variant", "eq22"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "|(2,1,2,1,2,0)|" in out
    assert "|PASS|" in out


def test_verify_probe_positional_params_take_variant_flag(capsys):
    argv = ["verify", "TYPO_PROBE", "2", "1", "2", "1", "2", "--variant", "eq22"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "|(2,1,2,1,2,0)|" in out
    assert "|PASS|" in out


@pytest.mark.parametrize("positional", [False, True])
def test_verify_probe_takes_variant_from_env(capsys, monkeypatch, positional):
    monkeypatch.setenv("WREDUCE_VARIANT", "eq22")
    if positional:
        argv = ["verify", "TYPO_PROBE", "2", "1", "2", "1", "2"]
    else:
        argv = ["verify", "TYPO_PROBE", "--a", "2", "--b", "1", "--c", "2",
                "--d", "1", "--f", "2"]
    assert main(argv) == 0
    assert "|(2,1,2,1,2,0)|" in capsys.readouterr().out


def test_verify_probe_variant_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("WREDUCE_VARIANT", "eq22")
    argv = ["verify", "TYPO_PROBE", "2", "1", "2", "1", "2", "--variant", "paper-final"]
    assert main(argv) == 0
    assert "|(2,1,2,1,2,1)|" in capsys.readouterr().out
    monkeypatch.setenv("WREDUCE_VARIANT", "paper-final")
    assert main(argv[:-1] + ["eq22"]) == 0
    assert "|(2,1,2,1,2,0)|" in capsys.readouterr().out


@pytest.mark.parametrize("from_env", [False, True])
def test_verify_probe_sixth_param_contradicting_variant_exits_two(
    capsys, monkeypatch, from_env
):
    argv = ["verify", "TYPO_PROBE", "2", "1", "2", "1", "2", "1"]
    if from_env:
        monkeypatch.setenv("WREDUCE_VARIANT", "eq22")
    else:
        argv += ["--variant", "eq22"]
    assert main(argv) == 2
    assert "contradicts" in capsys.readouterr().err


def test_verify_probe_sixth_param_agreeing_with_variant_runs(capsys):
    argv = ["verify", "TYPO_PROBE", "2", "1", "2", "1", "2", "0", "--variant", "eq22"]
    assert main(argv) == 0
    assert "|(2,1,2,1,2,0)|" in capsys.readouterr().out


@pytest.mark.parametrize("variant", ["eq22", "paper-final"])
def test_verify_variant_flag_off_the_probe_exits_two(capsys, variant):
    assert main(["verify", "HWZ_EQ3", "2", "2", "2", "--variant", variant]) == 2
    err = capsys.readouterr().err
    assert "TYPO_PROBE" in err and "HWZ_EQ3" in err


@pytest.mark.parametrize(
    "argv",
    [["verify", "HWZ_EQ3", "2", "2", "2"], ["verify", "TYPO_PROBE", "2", "1", "2", "1", "2"]],
)
def test_verify_rejects_an_unknown_env_variant(capsys, monkeypatch, argv):
    monkeypatch.setenv("WREDUCE_VARIANT", "bogus")
    assert main(argv) == 2
    assert "unknown variant 'bogus'" in capsys.readouterr().err


def test_verify_ignores_a_valid_env_variant_off_the_probe(capsys, monkeypatch):
    assert main(["verify", "HWZ_EQ3", "2", "2", "2"]) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("WREDUCE_VARIANT", "paper-final")
    assert main(["verify", "HWZ_EQ3", "2", "2", "2"]) == 0
    assert capsys.readouterr().out == plain


def test_verify_inconclusive_exit_logic(capsys):
    # the region cross-evaluator cannot reach the floor within its largest box
    argv = ["verify", "REGION_EQ14", "2", "2", "2", "2", "--tol", "1e-12"]
    assert main(argv) == 1
    assert "|INCONCLUSIVE|" in capsys.readouterr().out
    assert main(argv + ["--allow-inconclusive"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("verdict, allowed_exit", [("INCONCLUSIVE", 0), ("FAIL", 1)])
def test_verify_exit_on_a_report_that_does_not_pass(capsys, monkeypatch, verdict, allowed_exit):
    # the verdict alone decides the exit status; --allow-inconclusive
    # forgives an INCONCLUSIVE one, never a FAIL
    import dataclasses

    from wreduce import verify

    real = verify.check
    monkeypatch.setattr(
        verify, "check",
        lambda record, cfg=None: dataclasses.replace(real(record, cfg), verdict=verdict),
    )
    argv = ["verify", "HWZ_EQ3", "2", "2", "2"]
    assert main(argv) == 1
    assert f"|{verdict}|" in capsys.readouterr().out
    assert main(argv + ["--allow-inconclusive"]) == allowed_exit
    capsys.readouterr()


def test_verify_exact_surrogate_instance(capsys):
    argv = ["verify", "LEMMA21_INSTANCE", "--mode", "0", "--a", "2",
            "--b", "1", "--s", "1"]
    assert main(argv) == 0
    assert "|PASS|" in capsys.readouterr().out


def test_verify_out_writes_line_and_csv(capsys, tmp_path):
    target = tmp_path / "one.txt"
    assert main(["verify", "HWZ_EQ3", "2", "2", "2", "--out", str(target)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS: wrote")
    assert target.exists()
    assert (tmp_path / "one.txt.summary.csv").exists()


def test_verify_json_document(capsys):
    assert main(["verify", "HWZ_EQ3", "2", "2", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["reports"]) == 1
    row = doc["reports"][0]
    assert row["verdict"] == "PASS"
    assert row["identity_id"] == "HWZ_EQ3"
    assert "probe_summary" not in doc


# ---------------------------------------------------------------------------
# sweep

def test_sweep_small_family(capsys):
    assert main(["sweep", "--ids", "LEMMA24_EQ20", "--weight", "6"]) == 0
    captured = capsys.readouterr()
    lines = [l for l in captured.out.strip().split("\n") if l]
    assert len(lines) == 6
    assert all("|PASS|" in l for l in lines)
    assert "6 records: 6 PASS, 0 FAIL, 0 INCONCLUSIVE" in captured.err


def test_sweep_env_weight_and_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("WREDUCE_WEIGHT", "6")
    assert main(["sweep", "--ids", "HWZ_EQ3"]) == 0
    assert "20 records" in capsys.readouterr().err
    assert main(["sweep", "--ids", "HWZ_EQ3", "--weight", "5"]) == 0
    assert "10 records" in capsys.readouterr().err


def test_sweep_probe_reports_summary_on_stderr(capsys):
    assert main(["sweep", "--ids", "TYPO_PROBE"]) == 0
    captured = capsys.readouterr()
    assert "8 records: 5 PASS, 3 FAIL, 0 INCONCLUSIVE" in captured.err
    assert "typo probe: variant 'eq22' validated" in captured.err


def test_sweep_unknown_ids_exit_two(capsys):
    assert main(["sweep", "--ids", "HWZ_EQ3,BOGUS"]) == 2
    assert "BOGUS" in capsys.readouterr().err


@pytest.mark.parametrize("argv, env", [(["--ids", ","], None), (["--ids", " , "], None), ([], ",")])
def test_sweep_ids_naming_no_family_exit_two(capsys, monkeypatch, argv, env):
    # a sweep of no record would report 0 records and pass
    if env is not None:
        monkeypatch.setenv("WREDUCE_IDS", env)
    assert main(["sweep"] + argv) == 2
    assert "name no family" in capsys.readouterr().err


def test_sweep_empty_ids_means_unset(capsys, monkeypatch):
    # an empty value is unset, as for every flag with an environment fallback
    import wreduce.verify as verify

    seen = []
    monkeypatch.setattr(verify, "sweep", lambda ids, weight_cap, cfg: seen.append(ids) or [])
    assert main(["sweep", "--ids", ""]) == 0
    monkeypatch.setenv("WREDUCE_IDS", "")
    assert main(["sweep"]) == 0
    assert seen == [None, None]
    capsys.readouterr()


def test_sweep_negative_weight_exits_two(capsys):
    assert main(["sweep", "--weight", "-1"]) == 2
    assert "UNSUPPORTED_PARAMS: weight cap -1 is negative" in capsys.readouterr().err


def test_sweep_weight_above_cap_exits_two(capsys):
    assert main(["sweep", "--weight", "12"]) == 2
    assert "UNSUPPORTED_PARAMS" in capsys.readouterr().err


def test_sweep_out_writes_pair_of_files(capsys, tmp_path):
    target = tmp_path / "report.txt"
    argv = ["sweep", "--ids", "LEMMA24_EQ20", "--weight", "6", "--out", str(target)]
    assert main(argv) == 0
    assert "wrote" in capsys.readouterr().out
    assert target.exists()
    assert (tmp_path / "report.txt.summary.csv").exists()


def test_sweep_json_document_carries_probe_summary(capsys):
    assert main(["sweep", "--ids", "TYPO_PROBE", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["reports"]) == 8
    assert "validated" in doc["probe_summary"]


# ---------------------------------------------------------------------------
# import cost

def test_import_loads_no_process_pool():
    # a fresh interpreter, so modules other tests loaded do not count
    import os
    import subprocess
    import sys

    import wreduce

    src = os.path.dirname(os.path.dirname(os.path.abspath(wreduce.__file__)))
    code = (
        "import sys, wreduce.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


_REDUCE_21212_FULL = (
    "-1 * E(2,4,2) + -2 * E(2,5,1) + -2 * E(3,3,2) + -4 * E(3,4,1) + -2 * E(4,2,2)"
    " + -4 * E(4,3,1) + -4 * E(5,1,2) + -8 * E(5,2,1) + -12 * E(6,1,1)"
    " + 1 * Z(2)*E(4,2) + 2 * Z(2)*E(5,1)"
)


def test_reduce_loads_no_numeric_module():
    # a fresh interpreter, so modules other tests loaded do not count
    import os
    import subprocess
    import sys

    import wreduce

    src = os.path.dirname(os.path.dirname(os.path.abspath(wreduce.__file__)))
    code = "\n".join(
        [
            "import sys, wreduce",
            "from wreduce.cli import main",
            "main(['reduce', '2', '1', '2', '1', '2', '--full'])",
            "numeric = {'numpy', 'wreduce.series', 'wreduce.verify'}",
            "print(sorted(numeric & set(sys.modules)))",
            # every public name still resolves
            "for name in wreduce.__all__:",
            "    getattr(wreduce, name)",
            "assert wreduce.sweep is wreduce.verify.sweep",
            "namespace = {}",
            "exec('from wreduce import *', namespace)",
            "assert set(wreduce.__all__) <= set(namespace)",
            "print(wreduce.series.__name__, wreduce.verify.__name__)",
        ]
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines() == [
        _REDUCE_21212_FULL,
        "[]",
        "wreduce.series wreduce.verify",
    ]
