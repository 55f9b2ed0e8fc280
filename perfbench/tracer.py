"""Span tracing of hgauge layers from outside the library.

The tracer replaces each listed public function, in every ``hgauge`` module
namespace that binds it, with a wrapper that records a span: name, start,
end, parent span and job id.  Spans stay in memory and are written out at the
end of a run.  A call made once per sampler step would yield millions of
spans, so after ``RAW_LIMIT`` calls of one name under one parent (and for
everything below such a call) spans are folded into one aggregate per
(name, parent).

Self time is a span's duration minus the time its children cover.  Children
running in pool threads overlap each other; the parent loses the union of
their intervals, and their subtree self times are scaled by union/sum, so
that the self times of one job add up to the job's wall time.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterator, Optional

RAW_LIMIT = 64

# (args, result, duration) -> counts added to the span
Hook = Callable[[tuple, object, float], dict]


def _rows(args, result, dur) -> dict:
    rows = len(args[1])
    single = rows == 1
    return {"rows": rows, "single_calls": int(single), "single_s": dur if single else 0.0}


def _chain(args, result, dur) -> dict:
    cfg = args[2]
    kept = cfg.n_steps - cfg.burn_in
    return {
        "steps": cfg.n_steps,
        "kept": kept,
        "accepted": round(result.acceptance_rate * kept),
        "mala": int(cfg.algorithm == "mala"),
    }


def _points(args, result, dur) -> dict:
    return {"points": len(result)}


# layer name -> (defining module, function, counter hook)
LAYERS: dict[str, tuple[str, str, Optional[Hook]]] = {
    "cli.main": ("hgauge.cli", "main", None),
    "norm.norm_batch": ("hgauge.norm", "norm_batch", _rows),
    "norm.partials_batch": ("hgauge.norm", "partials_batch", _rows),
    "group.field_coefficients_batch": ("hgauge.group", "field_coefficients_batch", None),
    "measures.run_chain": ("hgauge.measures", "run_chain", _chain),
    "coercive.ubound_terms": ("hgauge.coercive", "ubound_terms", None),
    "coercive.poincare_ratio": ("hgauge.coercive", "poincare_ratio", None),
    "coercive.beta_lsi_functional": ("hgauge.coercive", "beta_lsi_functional", None),
    "coercive.fit_ubound_constants": ("hgauge.coercive", "fit_ubound_constants", None),
    "coercive.fit_beta_lsi": ("hgauge.coercive", "fit_beta_lsi", None),
    "inequalities.sample_cloud": ("hgauge.inequalities", "sample_cloud", _points),
    "inequalities.check_gradient_bounds": ("hgauge.inequalities", "check_gradient_bounds", None),
    "inequalities.check_partial_bounds": ("hgauge.inequalities", "check_partial_bounds", None),
    "bgg.fundamental_solution_quad": ("hgauge.bgg", "fundamental_solution_quad", None),
    "bgg.compare_cloud": ("hgauge.bgg", "compare_cloud", None),
    "fd.infinity_laplacian_witness": ("hgauge.fd", "infinity_laplacian_witness", None),
}


class _Frame:
    __slots__ = (
        "id", "name", "start", "parent", "cross", "agg_key", "raw_anchor",
        "child_s", "nchild", "cross_spans",
    )

    def __init__(self, name, start, parent, cross, agg_key, raw_anchor, span_id):
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.cross = cross          # parent runs in another thread
        self.agg_key = agg_key      # None for a raw span
        self.raw_anchor = raw_anchor  # nearest raw ancestor id (for aggregates)
        self.child_s = 0.0
        self.nchild: dict[str, int] = defaultdict(int)
        self.cross_spans: list[tuple[int, float, float]] = []


class Tracer:
    """Collects spans for one process; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.job: Optional[str] = None
        self.raw: list[dict] = []
        self.agg: dict[tuple, dict] = {}
        self.cross_weight: dict[int, float] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._main_stack: list[_Frame] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "hgauge" or k.startswith("hgauge.")]
        for name, (modname, fname, hook) in LAYERS.items():
            target = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(name, target, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, target))

    def uninstall(self) -> None:
        for mod, attr, target in reversed(self._patched):
            setattr(mod, attr, target)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        def wrapper(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(frame, {})
                raise
            end = time.perf_counter()
            self.exit(frame, hook(args, result, end - frame.start) if hook else {}, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._tls.stack = stack
        return stack

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        cross = False
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent, cross = self._main_stack[-1], True
        else:
            parent = None
        agg_key = None
        anchor = None
        span_id = 0
        if parent is not None:
            if cross:
                with self._lock:
                    parent.nchild[name] += 1
                    seen = parent.nchild[name]
            else:
                parent.nchild[name] += 1
                seen = parent.nchild[name]
            if parent.agg_key is not None or seen > RAW_LIMIT:
                agg_key = (self.job, name, parent.agg_key or parent.id)
                anchor = parent.raw_anchor if parent.agg_key is not None else parent.id
        if agg_key is None:
            span_id = next(self._ids)
        frame = _Frame(name, time.perf_counter(), parent, cross, agg_key, anchor, span_id)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame, counts: dict, end: Optional[float] = None) -> None:
        if end is None:
            end = time.perf_counter()
        self._stack().pop()
        dur = end - frame.start
        covered = _union(frame.cross_spans)
        total = sum(e - s for _, s, e in frame.cross_spans)
        for span_id, _, _ in frame.cross_spans:
            self.cross_weight[span_id] = covered / total if total > 0 else 1.0
        self_s = dur - frame.child_s - covered
        parent = frame.parent
        if parent is not None:
            if frame.cross:
                parent.cross_spans.append((frame.id, frame.start, end))
            else:
                parent.child_s += dur
        if frame.agg_key is None:
            self.raw.append({
                "id": frame.id,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "parent": parent.id if parent is not None else None,
                "job": self.job,
                "cross": frame.cross,
                "self_s": self_s,
                "counts": counts,
            })
            return
        rec = self.agg.get(frame.agg_key)
        if rec is None:
            rec = self.agg[frame.agg_key] = {
                "name": frame.name,
                "parent": frame.agg_key[2],
                "anchor": frame.raw_anchor,
                "job": self.job,
                "calls": 0,
                "total_s": 0.0,
                "self_s": 0.0,
                "first_start": frame.start,
                "last_end": end,
                "counts": defaultdict(int),
            }
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += self_s
        rec["last_end"] = end
        for k, v in counts.items():
            rec["counts"][k] += v

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame, {})

    # -- derived views --------------------------------------------------------

    def records(self) -> list[dict]:
        """Raw spans and aggregates, each with ``calls``, ``total_s``,
        ``self_s`` (weighted by the cross-thread share), ``counts`` and the
        names of its raw ancestors."""
        by_id = {s["id"]: s for s in self.raw}
        weight: dict[int, float] = {}

        def w(span_id: Optional[int]) -> float:
            if span_id is None:
                return 1.0
            if span_id not in weight:
                s = by_id[span_id]
                own = self.cross_weight.get(span_id, 1.0) if s["cross"] else 1.0
                weight[span_id] = own * w(s["parent"])
            return weight[span_id]

        def ancestors(span_id: Optional[int]) -> tuple[str, ...]:
            names = []
            while span_id is not None:
                s = by_id[span_id]
                names.append(s["name"])
                span_id = s["parent"]
            return tuple(names)

        out = []
        for s in self.raw:
            out.append({
                "name": s["name"], "job": s["job"], "calls": 1,
                "total_s": s["end"] - s["start"], "self_s": s["self_s"] * w(s["id"]),
                "counts": s["counts"], "ancestors": ancestors(s["parent"]),
            })
        for rec in self.agg.values():
            out.append({
                "name": rec["name"], "job": rec["job"], "calls": rec["calls"],
                "total_s": rec["total_s"], "self_s": rec["self_s"] * w(rec["anchor"]),
                "counts": dict(rec["counts"]), "ancestors": ancestors(rec["anchor"]),
            })
        return out

    def dump(self) -> dict:
        return {
            "raw_spans": self.raw,
            "aggregates": [dict(r, counts=dict(r["counts"])) for r in self.agg.values()],
        }


def _union(spans: list[tuple[int, float, float]]) -> float:
    """Length of the union of the (id, start, end) intervals."""
    covered, reach = 0.0, float("-inf")
    for _, s, e in sorted(spans, key=lambda x: x[1]):
        if e > reach:
            covered += e - max(s, reach)
            reach = e
    return covered
