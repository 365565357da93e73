"""wreduce benchmark: four workloads, a correctness gate and a layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-1e-8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

Workloads (see ``workloads.py`` and ``workloads.json``): ``sweep-1e-8``,
``reach-1e-10``, ``full-reduction-1e-8`` and ``reduce-full``.

Every pass runs in a fresh interpreter started from here, with ``src`` on
``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=1`` set for that child only, so
the two pool workers never ask for more threads than the two cores of the
reference machine.  Run-to-run speed varies between processes far more
than within one, so a run repeats whole passes in new processes until
``--seconds`` is spent and reports medians.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
several fresh ``import wreduce.cli``), ``wall_s`` (serial pass),
``pool_wall_s`` (the same pass over a two-process pool),
``latency_p50_ms`` / ``latency_p90_ms`` (per request, pooled over the
passes) and ``pass_count``.  ``--trace 1`` alternates untraced and
traced serial passes and prints the per-layer metrics, including the
tracing overhead.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The gate fails the run (exit 1, the offending item named on stderr) on a
genuine FAIL verdict, a returned radius above its requested tolerance, a
closed form outside its certified interval, a symbolic full reduction
that is not homogeneous, not made of Z and E atoms only, or does not
survive ``parse(render(lc))``, serial and pooled verdicts that differ,
or passes of one run that disagree.  Refusals (INCONCLUSIVE verdicts)
are outcomes, not failures: they lower ``pass_count``.  ``failed``
counts FAIL verdicts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# the keys of workloads.WORKLOADS, which this process cannot import: it
# never puts the program on its own path
WORKLOADS = ("sweep-1e-8", "reach-1e-10", "full-reduction-1e-8", "reduce-full")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150

def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def run_child(argv: list[str], root: str, env: dict) -> str:
    """Run a child interpreter to completion and return its stdout.

    The child gets its own session so that, on a timeout, its pool
    workers are killed with it.
    """
    proc = subprocess.Popen(
        [sys.executable] + argv,
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:3]} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def measure_setup(root: str, env: dict) -> list[float]:
    """Seconds to ``import wreduce.cli`` in fresh interpreters.

    One unmeasured import first writes the bytecode caches, as any
    installed copy would have them.
    """
    code = (
        "import time; t0 = time.perf_counter(); import wreduce.cli; "
        "print(time.perf_counter() - t0)"
    )
    run_child(["-c", code], root, env)
    return [float(run_child(["-c", code], root, env).split()[-1]) for _ in range(SETUP_SAMPLES)]


def run_pass(root, env, workload, seed, trace, pool, spans="") -> dict:
    argv = [
        os.path.join(HERE, "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--pool", str(int(pool)),
    ]
    if spans:
        argv += ["--spans", spans]
    out = run_child(argv, root, env)
    return json.loads(out.strip().splitlines()[-1])


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def gate(passes: list[dict]) -> list[str]:
    problems = []
    for i, p in enumerate(passes):
        problems += [f"pass {i + 1}: {v}" for v in p["violations"]]
        if p["verdicts"] != passes[0]["verdicts"]:
            problems.append(f"pass {i + 1}: verdicts differ from pass 1 in the same run")
    return problems


def summarize(passes: list[dict], lines: list[str]) -> tuple[int, int]:
    """Print the outcome counts; returns (attempted, failed)."""
    first = passes[0]
    verdicts = first["verdicts"]
    n = len(verdicts)
    passed = verdicts.count("PASS")
    inconclusive = verdicts.count("INCONCLUSIVE")
    lines.append(
        f"  outcomes: {passed} PASS, {verdicts.count('FAIL')} FAIL, {inconclusive} INCONCLUSIVE "
        f"of {n} ({first['refused']} refused by the evaluator); "
        f"refused_frac {inconclusive / n:.4f} (base {n})"
    )
    lines.append(f"  serial vs pool report mismatches: {first['pool_mismatch']} of {n}")
    lines.append(f"  radii checked against their tolerance: {first['radius_checks']} per pass")
    for cf in first["closed_forms"]:
        lines.append(f"  closed form {cf}")
    attempted = sum(len(p["verdicts"]) * (2 if p["pool_wall_s"] > 0 else 1) for p in passes)
    return attempted, sum(p["verdicts"].count("FAIL") for p in passes)


def end_to_end(root, env, workload, seed, seconds, lines) -> tuple[dict, list[dict]]:
    setup = measure_setup(root, env)
    passes: list[dict] = []
    durations: list[float] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(root, env, workload, seed, trace=0, pool=True))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + max(durations) > seconds:
            break
    lat = sorted(x for p in passes for x in p["latencies_ms"])
    k = len(passes)
    values = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh imports"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s", f"median of {k} passes"),
        "pool_wall_s": (
            statistics.median(p["pool_wall_s"] for p in passes),
            "s",
            f"median of {k} passes, 2 workers",
        ),
        "latency_p50_ms": (nearest_rank(lat, 0.5), "ms", f"p50 of {len(lat)} requests"),
        "latency_p90_ms": (
            nearest_rank(lat, 0.9),
            "ms",
            f"p90 of {len(lat)} requests, {len(lat) - math.ceil(0.9 * len(lat))} beyond",
        ),
        "pass_count": (
            passes[0]["verdicts"].count("PASS"),
            "count",
            f"of {len(passes[0]['verdicts'])} attempted",
        ),
    }
    metrics = {}
    for name, (value, unit, note) in values.items():
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<16} {value:>14.6g} {unit:<6} ({note})")
    return metrics, passes


def per_layer(root, env, workload, seed, seconds, lines) -> tuple[dict, list[dict]]:
    """Alternate untraced and traced serial passes until ``seconds`` is spent.

    The first untraced pass also runs the pool, for the mismatch count.
    Layer values are (low) medians over the traced passes; the overhead is the
    difference of the median traced and untraced pass times.
    """
    spans = os.path.join(root, ".perfbench", f"spans-{workload}-{seed}.jsonl")
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(root, env, workload, seed, trace=0, pool=not plain))
        traced.append(
            run_pass(root, env, workload, seed, trace=1, pool=False, spans="" if traced else spans)
        )
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + max(durations) > seconds:
            break
    layers = {
        name: statistics.median_low(t["layers"][name] for t in traced) for name in traced[0]["layers"]
    }
    layers["verify.pool_mismatch_records"] = plain[0]["pool_mismatch"]
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = plain_wall
    layers["trace.overhead_s"] = traced_wall - plain_wall
    metrics = {}
    for name, value in layers.items():
        unit = layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<36} {value:>14.6g} {unit}")
    lines.append(
        f"  {len(traced)} traced and {len(plain)} untraced passes; "
        f"first traced pass's spans in {os.path.relpath(spans, root)}"
    )
    return metrics, plain + traced


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("radius_ratio_p50"):
        return "ratio"
    return "count"


def run_workload(root, workload, seed, seconds, trace):
    env = child_env(root)
    lines = [
        f"workload {workload} seed {seed} trace {trace}: fresh interpreter per pass, "
        f"OPENBLAS_NUM_THREADS=1, nproc {os.cpu_count()}"
    ]
    if trace:
        metrics, passes = per_layer(root, env, workload, seed, seconds, lines)
    else:
        metrics, passes = end_to_end(root, env, workload, seed, seconds, lines)
    attempted, failed = summarize(passes, lines)
    problems = gate(passes)
    lines.append("  gate: ok" if not problems else f"  gate: {len(problems)} problem(s)")
    return metrics, attempted, failed, lines, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops the child it is waiting on (run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wreduce", "__init__.py")):
        print(f"no wreduce sources under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    all_metrics: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    for workload, trace in runs:
        metrics, att, fail, lines, probs = run_workload(root, workload, args.seed, args.seconds, trace)
        print("\n".join(lines), flush=True)
        attempted += att
        failed += fail
        problems += [f"{workload}: {p}" for p in probs]
        if len(runs) == 1:
            all_metrics = metrics
        else:
            all_metrics.update({f"{workload}/{k}": v for k, v in metrics.items()})
    for p in problems:
        print(f"GATE FAILURE {p}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
