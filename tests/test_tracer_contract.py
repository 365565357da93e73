"""The benchmark's tracer binds ``wreduce`` functions by name; this keeps
that contract from breaking unnoticed.  The tracer is loaded read-only
from ``perfbench/tracing.py``, as the benchmark loads it."""

import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# one atom per evaluator path: Z, E2, E3, MT, and W collapsed, hub and general
_REQUEST = "Z(3) + E(2,1) + E(2,1,1) + MT(2,2,2) + W(1,2,1,2,0,2) + W(2,1,2,1,1,0) + W(1,2,1,3,2,1)"
_PATHS = ("Z", "E2", "E3", "MT", "W.collapsed", "W.hub", "W.general")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every callable the tracer may swap, by owner and name."""
    import wreduce
    from wreduce import cli, exact, reduce, series, verify

    out = {}
    for mod in (wreduce, cli, exact, reduce, series, verify):
        out.update(((mod.__name__, attr), value) for attr, value in vars(mod).items() if callable(value))
    out["LinearCombination", "render"] = exact.LinearCombination.render
    return out


def test_the_tracer_sees_every_evaluator_path_and_restores_what_it_swaps():
    from wreduce import series
    from wreduce.exact import parse

    before = _bindings()
    tracer = _tracing().Tracer()
    series.clear_caches()
    tracer.install()
    try:
        assert tracer._swaps
        swapped = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in tracer._swaps}
        for name in ("eval_zeta", "eval_euler", "eval_mt", "eval_witten4", "eval_term",
                     "eval_lincomb", "_cached_atom"):
            assert ("wreduce.series", name) in swapped, name
        series.eval_lincomb(parse(_REQUEST), series.SummationConfig(tolerance=1e-8))
    finally:
        tracer.uninstall()
        series.clear_caches()
    metrics = tracer.layer_metrics()
    for path in _PATHS:
        assert metrics[f"series.{path}.calls"] > 0, path
        # a cold request computes each atom, which the wrapped atom cache marks
        assert metrics[f"series.{path}.computed"] > 0, path
        assert metrics[f"series.{path}.refused"] == 0, path
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
