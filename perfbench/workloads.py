"""The four benchmark workloads and their correctness gates.

Each pass runs in a fresh interpreter (see ``child.py``), so every pass
starts with cold caches.  A pass is driven as a closed loop with one
client: the next request starts when the previous one has returned.

* ``sweep-1e-8``: the default ``sweep()`` at 1e-8, serial and again with
  ``threads=2``.  Heavy atom sharing; the general W box path dominates.
* ``reach-1e-10``: the same records at 1e-10.  The 1-D tails run up to
  ``max_terms`` and many records are refused.
* ``full-reduction-1e-8``: W against its complete Euler-sum reduction
  over the THM22_FINAL grid, caches cleared per request.
* ``reduce-full``: symbolic full reductions of every positive
  ``(a,b,c,d,f)`` of weight <= 12, rendered and parsed back; no
  evaluation.

Every workload also runs its requests through a two-process pool for
``pool_wall_s``: the sweeps through ``sweep(threads=2)``, the request
workloads through the same executor and chunking ``sweep`` uses.
"""

from __future__ import annotations

import itertools
import random
import time
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal
from fractions import Fraction

from wreduce import exact, reduce, series, verify
from wreduce.errors import WreduceError
from wreduce.exact import EulerSum, MordellTornheim3, SingleZeta, WittenSl4

POOL_WORKERS = 2

# 30-digit reference values; the truncation error is below the slack
CLOSED_FORMS = (
    (EulerSum((2, 1)), "zeta(3)", "1.20205690315959428539973816151"),
    (EulerSum((3, 1)), "pi^4/360", "0.270580808427784547879000924135"),
    (EulerSum((2, 1, 1)), "zeta(4)", "1.08232323371113819151600369654"),
    (MordellTornheim3(1, 1, 1), "2 zeta(3)", "2.40411380631918857079947632302"),
    (MordellTornheim3(2, 2, 0), "zeta(2)^2", "2.70580808427784547879000924135"),
)
_CLOSED_SLACK = Fraction(1, 10**29)


class Pass:
    """What one pass measured and what its gates found."""

    def __init__(self):
        self.wall_s = 0.0
        self.pool_wall_s = 0.0
        self.latencies_ms: list[float] = []
        self.verdicts: list[str] = []  # per request, in request order
        self.refused = 0  # INCONCLUSIVE because an evaluation was refused
        self.pool_mismatch = 0
        self.radius_checks = 0
        self.violations: list[str] = []
        self.closed_forms: list[str] = []
        self.inputs: list = []  # every linear combination the pass evaluated or produced

    def atom_sharing(self) -> tuple[int, int]:
        """(atom references, distinct atoms) over the pass's inputs."""
        refs = 0
        distinct = set()
        for lc in self.inputs:
            for term, _coef in lc.items():
                refs += len(term.factors)
                distinct.update(term.factors)
        return refs, len(distinct)

    def to_json(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "inputs"}


def _verdict(lhs, rhs) -> str:
    """The PASS / FAIL / INCONCLUSIVE rule of ``verify.check``."""
    gap = abs(lhs.midpoint - rhs.midpoint)
    budget = lhs.radius + rhs.radius
    if gap <= budget:
        return "PASS"
    if gap > 2 * budget:
        return "FAIL"
    return "INCONCLUSIVE"


def _check_radius(p: Pass, who: str, ev, tol: float) -> None:
    if ev is None:
        return
    p.radius_checks += 1
    if not ev.radius <= tol:
        p.violations.append(f"{who}: returned radius {ev.radius!r} above the requested {tol!r}")


def closed_form_gate(p: Pass, tol: float) -> None:
    """Each closed form must lie inside its certified interval at ``tol``.

    A refusal is recorded but is not a violation: it certifies nothing.
    """
    cfg = series.SummationConfig(tolerance=tol)
    for atom, name, digits in CLOSED_FORMS:
        series.clear_caches()
        label = f"{atom.render()}={name}"
        try:
            ev = series.eval_atom(atom, cfg)
        except WreduceError as exc:
            p.closed_forms.append(f"{label} refused ({exc.code})")
            continue
        err = abs(Fraction(ev.midpoint) - Fraction(Decimal(digits)))
        if err > Fraction(ev.radius) + _CLOSED_SLACK:
            p.violations.append(
                f"closed form {label}: |{ev.midpoint!r} - {digits}| exceeds radius {ev.radius!r}"
            )
        else:
            p.closed_forms.append(f"{label} contained (radius {ev.radius:.3e})")


# ---------------------------------------------------------------------------
# the sweeps

def _timed_checks(latencies: list[float]):
    """Time each ``verify.check`` call made by ``sweep``; returns the original."""
    original = verify.check

    def timed(record, cfg=None):
        t0 = time.perf_counter()
        try:
            return original(record, cfg)
        finally:
            latencies.append((time.perf_counter() - t0) * 1e3)

    verify.check = timed
    return original


def sweep_pass(tol: float, with_pool: bool, tracer) -> Pass:
    p = Pass()
    cfg = series.SummationConfig(tolerance=tol)
    series.clear_caches()
    original = None if tracer else _timed_checks(p.latencies_ms)
    try:
        t0 = time.perf_counter()
        reports = verify.sweep(cfg=cfg)
        p.wall_s = time.perf_counter() - t0
    finally:
        if original is not None:
            verify.check = original
    _sweep_gate(p, reports, tol)
    if with_pool:
        series.clear_caches()
        t0 = time.perf_counter()
        pooled = verify.sweep(cfg=cfg, threads=POOL_WORKERS)
        p.pool_wall_s = time.perf_counter() - t0
        for s_rep, p_rep in zip(reports, pooled):
            where = f"{s_rep.record.identity_id}{s_rep.record.parameters}"
            if s_rep.verdict != p_rep.verdict:
                p.violations.append(
                    f"{where}: serial verdict {s_rep.verdict} but {p_rep.verdict} with threads={POOL_WORKERS}"
                )
            if verify.format_report_line(s_rep) != verify.format_report_line(p_rep):
                p.pool_mismatch += 1
        if len(pooled) != len(reports):
            p.violations.append(f"threads={POOL_WORKERS} returned {len(pooled)} of {len(reports)} reports")
    return p


def _sweep_gate(p: Pass, reports, tol: float) -> None:
    for rep in reports:
        where = f"{rep.record.identity_id}{rep.record.parameters}"
        p.verdicts.append(rep.verdict)
        p.inputs += [rep.record.lhs, rep.record.rhs]
        if rep.verdict == "FAIL" and not verify.expected_fail(rep.record):
            p.violations.append(f"{where}: FAIL (gap {rep.gap!r}, budget {rep.budget!r})")
        if rep.verdict == "INCONCLUSIVE" and rep.detail:
            p.refused += 1
        _check_radius(p, f"{where} lhs", rep.lhs_eval, tol)
        _check_radius(p, f"{where} rhs", rep.rhs_eval, tol)


# ---------------------------------------------------------------------------
# the request workloads

def seeded_order(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def thm22_grid() -> list[tuple[int, ...]]:
    return verify.default_parameters("THM22_FINAL")


def weight12_tuples() -> list[tuple[int, ...]]:
    return [t for t in itertools.product(range(1, 9), repeat=5) if sum(t) <= 12]


def _witten(params) -> WittenSl4:
    a, b, c, d, f = params
    return WittenSl4((a, b, c, d, 0, f))


def full_reduction_request(params, tol: float):
    """``reduce --full`` then ``eval`` of both sides, in a cold cache.

    Returns (outcome, reduction, parsed reduction); outcome is
    (verdict, detail, lhs, rhs) with each side a (midpoint, radius) pair.
    """
    series.clear_caches()
    atom = _witten(params)
    lc = reduce.reduce_witten(atom, expand_remainder=True, expand_mt=True)
    back = exact.parse(lc.render())
    cfg = series.SummationConfig(tolerance=tol)
    lhs = rhs = None
    try:
        lhs = series.eval_atom(atom, cfg)
        rhs = series.eval_lincomb(back, cfg)
    except WreduceError as exc:
        verdict, detail = "INCONCLUSIVE", exc.code
    else:
        verdict, detail = _verdict(lhs, rhs), ""
    pair = lambda ev: None if ev is None else (ev.midpoint, ev.radius)  # noqa: E731
    return (verdict, detail, pair(lhs), pair(rhs)), lc, back


def reduce_request(params):
    """``reduce --full`` rendered and parsed back."""
    lc = reduce.reduce_witten(_witten(params), expand_remainder=True, expand_mt=True)
    text = lc.render()
    return text, lc, exact.parse(text)


def _pool_full(args):
    return full_reduction_request(*args)[0]


def _pool_reduce(params):
    return reduce_request(params)[0]


def _serial(p: Pass, order: list, request, tracer) -> list:
    """Run the requests one after another, timing each and the whole pass."""
    outcomes = []
    t_start = time.perf_counter()
    for rid, item in enumerate(order):
        if tracer:
            tracer.request_id = rid
        t0 = time.perf_counter()
        outcomes.append(request(item))
        p.latencies_ms.append((time.perf_counter() - t0) * 1e3)
    p.wall_s = time.perf_counter() - t_start
    return outcomes


def _pooled(p: Pass, fn, payload: list) -> list:
    """The same requests over the pool, with ``sweep``'s executor and chunking."""
    chunk = max(1, len(payload) // (POOL_WORKERS * 4))
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=POOL_WORKERS) as pool:
        out = list(pool.map(fn, payload, chunksize=chunk))
    p.pool_wall_s = time.perf_counter() - t0
    return out


def _symbolic_gate(p: Pass, params, lc, back) -> bool:
    where = f"W{_witten(params).s}"
    ok = True
    if back != lc:
        p.violations.append(f"{where}: parse(render(lc)) != lc")
        ok = False
    weight = sum(params)
    for term, _coef in lc.items():
        bad = [f.render() for f in term.factors if not isinstance(f, (SingleZeta, EulerSum))]
        if bad:
            p.violations.append(f"{where}: non-terminal atoms {bad} in the full reduction")
            ok = False
        if term.weight != weight:
            p.violations.append(f"{where}: term {term.render()} has weight {term.weight}, not {weight}")
            ok = False
    return ok


def full_reduction_pass(seed: int, tol: float, with_pool: bool, tracer) -> Pass:
    p = Pass()
    order = seeded_order(thm22_grid(), seed)
    outcomes = _serial(p, order, lambda params: full_reduction_request(params, tol), tracer)
    for params, (outcome, lc, back) in zip(order, outcomes):
        verdict, detail, lhs, rhs = outcome
        p.verdicts.append(verdict)
        p.inputs += [exact.LinearCombination.from_atom(_witten(params)), lc]
        where = f"W{_witten(params).s}"
        if verdict == "FAIL":
            p.violations.append(f"{where}: FAIL against its full reduction ({lhs} vs {rhs})")
        if detail:
            p.refused += 1
        for side, ev in (("W", lhs), ("reduction", rhs)):
            if ev is not None:
                p.radius_checks += 1
                if not ev[1] <= tol:
                    p.violations.append(f"{where} {side}: returned radius {ev[1]!r} above {tol!r}")
        _symbolic_gate(p, params, lc, back)
    if with_pool:
        pooled = _pooled(p, _pool_full, [(params, tol) for params in order])
        _compare_pooled(p, order, [o[0] for o in outcomes], pooled, key=lambda o: o[0])
    return p


def reduce_full_pass(seed: int, with_pool: bool, tracer) -> Pass:
    p = Pass()
    order = seeded_order(weight12_tuples(), seed)
    outcomes = _serial(p, order, reduce_request, tracer)
    for params, (_text, lc, back) in zip(order, outcomes):
        p.verdicts.append("PASS" if _symbolic_gate(p, params, lc, back) else "FAIL")
        p.inputs.append(lc)
    if with_pool:
        pooled = _pooled(p, _pool_reduce, order)
        _compare_pooled(p, order, [o[0] for o in outcomes], pooled, key=lambda o: o)
    return p


def _compare_pooled(p: Pass, order, serial, pooled, key) -> None:
    if len(pooled) != len(serial):
        p.violations.append(f"the pool returned {len(pooled)} of {len(serial)} results")
    for params, s_out, p_out in zip(order, serial, pooled):
        if key(s_out) != key(p_out):
            p.violations.append(f"W{_witten(params).s}: serial and pooled results differ")
        if s_out != p_out:
            p.pool_mismatch += 1


# ---------------------------------------------------------------------------
# workload table: name -> (tolerance, pass runner taking seed, pool, tracer).
# reduce-full evaluates nothing; its tolerance only sets the closed-form gate.

WORKLOADS = {
    "sweep-1e-8": (1e-8, lambda seed, pool, tracer: sweep_pass(1e-8, pool, tracer)),
    "reach-1e-10": (1e-10, lambda seed, pool, tracer: sweep_pass(1e-10, pool, tracer)),
    "full-reduction-1e-8": (
        1e-8,
        lambda seed, pool, tracer: full_reduction_pass(seed, 1e-8, pool, tracer),
    ),
    "reduce-full": (1e-8, reduce_full_pass),
}
