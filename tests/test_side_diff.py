import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "side_diff.py"


def _side_diff():
    spec = importlib.util.spec_from_file_location("side_diff", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dump(path, rows):
    path.write_text("".join(
        f"sweep|1e-08|HWZ_EQ3|(2, 2, 2)|{side}|{mid}|{rad}|{terms}|{verdict}\n"
        for side, mid, rad, terms, verdict in rows
    ))


def test_compare_counts_bit_identical_sides(tmp_path, capsys):
    # identical means the same hex midpoint, hex radius and cutoff, or a
    # refusal on both sides; -0.0 and 0.0 are not identical
    one, half = (1.0).hex(), (0.5).hex()
    a, b = tmp_path / "a", tmp_path / "b"
    _dump(a, [("lhs", one, half, 32, "INCONCLUSIVE"), ("rhs", "", "", "", "INCONCLUSIVE")])
    _dump(b, [("lhs", one, half, 32, "INCONCLUSIVE"), ("rhs", "", "", "", "INCONCLUSIVE")])
    assert _side_diff().compare(str(a), str(b)) == 0
    assert "sides 2, identical 2," in capsys.readouterr().out

    _dump(b, [("lhs", one, half, 64, "INCONCLUSIVE"), ("rhs", "", "", "", "INCONCLUSIVE")])
    assert _side_diff().compare(str(a), str(b)) == 0
    out = capsys.readouterr().out
    assert "sides 2, identical 1," in out and "equal radius 1" in out

    _dump(a, [("lhs", (0.0).hex(), half, 32, "PASS"), ("rhs", one, half, 32, "PASS")])
    _dump(b, [("lhs", (-0.0).hex(), half, 32, "PASS"), ("rhs", one, half, 32, "PASS")])
    assert _side_diff().compare(str(a), str(b)) == 0
    assert "sides 2, identical 1," in capsys.readouterr().out


def test_dump_at_a_weight_cap_checks_the_sweep_records_up_to_it(tmp_path):
    # the records are built and checked as verify.sweep does at that cap, and
    # the THM22 grid is cut at the same cap
    from wreduce.series import SummationConfig, clear_caches
    from wreduce.verify import default_parameters, sweep

    module = _side_diff()
    out = tmp_path / "dump"
    module.dump(str(out), 6)
    lines = out.read_text().splitlines(keepends=True)
    expected = []
    for tol in module.SWEEP_TOLERANCES:
        clear_caches()
        expected += module._lines("sweep", tol, sweep(weight_cap=6, cfg=SummationConfig(tolerance=tol)))
    clear_caches()
    assert len(expected) == 3 * 2 * 67
    assert lines[:len(expected)] == expected
    thm22 = lines[len(expected):]
    assert len(thm22) == 2 * len(default_parameters("THM22_FINAL", 6)) == 12
    assert all(line.startswith("thm22|1e-08|THM22_FULL|") for line in thm22)


def test_renders_at_a_weight_cap_write_every_reduce_witten_call(tmp_path):
    # one line per tuple with a..f in 0..6 up to the cap, variant and flag
    # pair: the render, or the error's class and message
    from wreduce.exact import WittenSl4
    from wreduce.reduce import reduce_witten

    out = tmp_path / "renders"
    assert _side_diff().main(["renders", str(out), "4"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 126 * 2 * 4
    assert lines[0] == (
        "(0, 0, 0, 0, 0, 0)|eq22|(False, False)|UnsupportedParams: "
        "reduction needs positive exponents on both collapsed variables"
    )
    full = reduce_witten(WittenSl4((1, 1, 1, 0, 0, 1)), "paper-final", True, True)
    assert "(1, 1, 1, 0, 0, 1)|paper-final|(True, True)|" + full.render() in lines
    assert len({line.rsplit("|", 1)[0] for line in lines}) == len(lines)
