"""Outside-in layer tracing for the benchmark.

The tracer wraps the public functions of each ``wreduce`` module at run
time and records one span per call: name, start, end, parent span and
request id.  It changes no source file: every module attribute (and the
one class attribute, ``LinearCombination.render``) that refers to a
wrapped function is swapped for the wrapper while the tracer is
installed, so calls made inside the package go through it too.  The
one private function wrapped is the atom cache's ``_cached_atom``, to
tell a cache hit from a compute.

Spans stay in memory and are written out when the run ends; self times
(span duration minus the time covered by child spans) and the per-layer
counters are computed from them afterwards.
"""

from __future__ import annotations

import json
import statistics
import time

SERIES_PATHS = ("Z", "E2", "E3", "MT", "W.product", "W.collapsed", "W.hub", "W.general")
# paths whose cutoff is a 1-D truncation, summed into terms_sum; the
# general W path truncates a box and reports box_cells instead, and the
# product path has no sum of its own
ONE_D_PATHS = ("Z", "E2", "E3", "MT", "W.collapsed", "W.hub")
REDUCE_SPANS = (
    "reduce.witten",
    "reduce.unit_witten",
    "reduce.unit_pair_split",
    "reduce.unit_tail_expand",
    "reduce.mt",
    "reduce.four_term",
)


def witten_path(s: tuple[int, ...]) -> str:
    """The evaluator path ``eval_witten4`` dispatches to, by the same rules."""
    _s1, _s2, _s3, s4, s5, s6 = s
    if s4 == 0 and s5 == 0 and s6 == 0:
        return "W.product"
    if s5 == 0 or s4 == 0:
        return "W.collapsed"
    if s6 == 0:
        return "W.hub"
    return "W.general"


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, rid, info]
        self.stack: list[int] = []
        self.request_id = -1
        self._swaps: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self.request_id, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float, info) -> None:
        self.stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end
        span[5] = info

    def _plain(self, name: str, fn, info=None):
        """Span around ``fn``; ``info`` maps the result to the span's info."""

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                self._close(idx, t0, t1, info(out) if info else None)

        return wrapper

    def _counted(self, name: str, fn):
        """Span whose info is the number of output terms of the result."""
        return self._plain(name, fn, _terms_of)

    def _check(self, fn, region_ids):
        def wrapper(record, *args, **kwargs):
            self.request_id += 1
            name = "verify.check.region" if record.identity_id in region_ids else "verify.check"
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                return fn(record, *args, **kwargs)
            finally:
                self._close(idx, t0, time.perf_counter(), None)

        return wrapper

    def _atom(self, fn, path_of, werr, computes_marked: bool):
        """Span for one atom evaluation: path, outcome, cutoff and radius."""

        def wrapper(atom, cfg, *args, **kwargs):
            idx = self._open(path_of(atom))
            info = {"tol": cfg.tolerance, "computed": not computes_marked}
            self.spans[idx][5] = info
            t0 = time.perf_counter()
            try:
                ev = fn(atom, cfg, *args, **kwargs)
            except werr:
                info["refused"] = True
                raise
            else:
                info["terms"] = ev.terms
                info["radius"] = ev.radius
                return ev
            finally:
                self._close(idx, t0, time.perf_counter(), info)

        return wrapper

    def _cache(self, fn):
        """Mark the open atom span as computed when the cache misses."""

        def wrapper(key, tol, compute):
            def marked():
                self.spans[self.stack[-1]][5]["computed"] = True
                return compute()

            return fn(key, tol, marked)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import wreduce
        from wreduce import cli, errors, exact, reduce, series, verify

        modules = (wreduce, cli, exact, reduce, series, verify)
        werr = errors.WreduceError
        # the atom cache is private; without it every returned call counts
        # as computed
        cache = getattr(series, "_cached_atom", None)
        marked = cache is not None
        wrappers = {
            series.eval_zeta: self._atom(series.eval_zeta, lambda s: "series.Z", werr, marked),
            series.eval_euler: self._atom(
                series.eval_euler, lambda a: f"series.E{len(a.indices)}", werr, marked
            ),
            series.eval_mt: self._atom(series.eval_mt, lambda a: "series.MT", werr, marked),
            series.eval_witten4: self._atom(
                series.eval_witten4, lambda a: "series." + witten_path(a.s), werr, marked
            ),
            series.eval_term: self._plain("series.eval_term", series.eval_term),
            series.eval_lincomb: self._plain("series.eval_lincomb", series.eval_lincomb),
            verify.sweep: self._plain("verify.sweep", verify.sweep),
            verify.build_identity: self._plain("verify.build", verify.build_identity),
            verify.check: self._check(verify.check, {"REGION_EQ13", "REGION_EQ14", "REGION_EQ15"}),
            reduce.reduce_witten: self._counted("reduce.witten", reduce.reduce_witten),
            reduce.reduce_unit_witten: self._counted("reduce.unit_witten", reduce.reduce_unit_witten),
            reduce.unit_pair_split: self._counted("reduce.unit_pair_split", reduce.unit_pair_split),
            reduce.unit_tail_expand: self._counted("reduce.unit_tail_expand", reduce.unit_tail_expand),
            reduce.reduce_mt: self._counted("reduce.mt", reduce.reduce_mt),
            reduce.four_term_lhs: self._counted("reduce.four_term", reduce.four_term_lhs),
            reduce.four_term_rhs: self._counted("reduce.four_term", reduce.four_term_rhs),
            exact.parse: self._plain("exact.parse", exact.parse),
        }
        if marked:
            wrappers[cache] = self._cache(cache)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(value) if callable(value) else None
                if wrapped is not None:
                    self._swaps.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        render = exact.LinearCombination.render
        self._swaps.append((exact.LinearCombination, "render", render))
        exact.LinearCombination.render = self._plain("exact.render", render)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._swaps):
            setattr(owner, attr, value)
        self._swaps.clear()

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid, _info in self.spans:
                fh.write(json.dumps([name, start, end, parent, rid]) + "\n")

    def self_times(self) -> list[float]:
        out = [end - start for _n, start, end, _p, _r, _i in self.spans]
        for name, start, end, parent, _r, _i in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counters and self times of the recorded spans."""
        selfs = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for span, st in zip(self.spans, selfs):
            calls[span[0]] = calls.get(span[0], 0) + 1
            self_s[span[0]] = self_s.get(span[0], 0.0) + st

        m: dict[str, float] = {}
        ratios = []
        for path in SERIES_PATHS:
            name = "series." + path
            computed = refused = cutoff_max = terms_sum = box_cells = 0
            for span in self.spans:
                if span[0] != name:
                    continue
                info = span[5]
                if info.get("refused"):
                    refused += 1
                    continue
                cutoff_max = max(cutoff_max, info["terms"])
                ratios.append(info["radius"] / info["tol"])
                if info["computed"]:
                    computed += 1
                    terms_sum += info["terms"]
                    box_cells += info["terms"] ** 3
            m[name + ".calls"] = calls.get(name, 0)
            m[name + ".computed"] = computed
            m[name + ".self_s"] = self_s.get(name, 0.0)
            m[name + ".refused"] = refused
            m[name + ".cutoff_max"] = cutoff_max
            if path in ONE_D_PATHS:
                m[name + ".terms_sum"] = terms_sum
            if path == "W.general":
                m[name + ".box_cells"] = box_cells
        m["series.eval_term.self_s"] = self_s.get("series.eval_term", 0.0)
        m["series.eval_lincomb.self_s"] = self_s.get("series.eval_lincomb", 0.0)
        m["series.radius_ratio_p50"] = statistics.median(ratios) if ratios else 0.0

        m["verify.sweep.self_s"] = self_s.get("verify.sweep", 0.0)
        m["verify.build.calls"] = calls.get("verify.build", 0)
        m["verify.build.self_s"] = self_s.get("verify.build", 0.0)
        m["verify.check.calls"] = calls.get("verify.check", 0) + calls.get("verify.check.region", 0)
        m["verify.check.self_s"] = self_s.get("verify.check", 0.0) + self_s.get(
            "verify.check.region", 0.0
        )
        m["verify.check.region.self_s"] = self_s.get("verify.check.region", 0.0)

        terms_out = 0
        reduce_names = set(REDUCE_SPANS)
        for span in self.spans:
            parent = span[3]
            if span[0] in reduce_names and (parent < 0 or self.spans[parent][0] not in reduce_names):
                terms_out += span[5] or 0
        for name in REDUCE_SPANS:
            m[name + ".self_s"] = self_s.get(name, 0.0)
        m["reduce.terms_out"] = terms_out
        m["exact.parse.self_s"] = self_s.get("exact.parse", 0.0)
        m["exact.render.self_s"] = self_s.get("exact.render", 0.0)
        m["trace.spans"] = len(self.spans)
        # equals the traced wall time when one span covers the whole pass
        m["trace.self_sum_s"] = sum(selfs)
        return m


def _terms_of(out) -> int:
    if out is None:
        return 0
    if isinstance(out, tuple):  # unit_pair_split returns (tail atom, rest)
        return 1 + len(out[1])
    return len(out)
