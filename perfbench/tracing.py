"""Spans around the program's layers, installed from outside the program.

The tracer edits no source. It replaces the names the callers look up:
`ordagg.cli` reaches its layers through the module objects `generator`,
`serialize`, `graph`, `solver` and `decoder` and through the imported
functions `validate` and `score`; `ordagg.decoder` reaches the graph, solver
and evaluator through the imported functions `build`, `solve` and `score`.
Each of these is swapped for a wrapper that records a span, so inner work
of the decoder shows as child spans of `decoder.decode`.

A span is `[name, job, parent, start, end, counts]`, kept in memory and
written out once the run ends. The layer of a span is the part of its name
before the dot.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
from collections import defaultdict
from time import perf_counter

NAME, JOB, PARENT, START, END, COUNTS = range(6)


def _size(path) -> int:
    return os.path.getsize(path)


# Counts taken at the span boundaries, after the span has closed.
COUNTERS = {
    "generator.make_instance": lambda a, r: {"constraints": len(r.constraints)},
    "serialize.read_json": lambda a, r: {"bytes_read": _size(a[0])},
    "serialize.write_json": lambda a, r: {"bytes_written": _size(a[0])},
    "graph.build": lambda a, r: {"edges": len(r.weights)},
    "solver.solve": lambda a, r: {"nodes": a[0].n, "cut": r.weight, "relax": r.sdp_objective},
    "evaluator.score": lambda a, r: {"constraints": r.total},
}


class LayerProxy:
    """A module as one caller sees it: some functions wrapped, the rest as is."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.job, stack[-1] if stack else None, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                try:
                    span[COUNTS] = count(args, result)
                except (AttributeError, TypeError, OSError):
                    pass  # a count the program no longer exposes reads as 0
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, cli, decoder) -> None:
        for attr in ("generator", "serialize", "graph", "solver", "decoder"):
            module = getattr(cli, attr)
            layer = module.__name__.rsplit(".", 1)[-1]
            wrapped = {
                name: self.wrap(f"{layer}.{name}", fn)
                for name, fn in vars(module).items()
                if inspect.isfunction(fn) and not name.startswith("_")
                and fn.__module__ == module.__name__
            }
            self._patch(cli, attr, LayerProxy(module, wrapped))
        for owner, attr in ((cli, "validate"), (cli, "score"),
                            (decoder, "build"), (decoder, "solve"), (decoder, "score")):
            fn = getattr(owner, attr, None)
            if inspect.isfunction(fn):
                layer = fn.__module__.rsplit(".", 1)[-1]
                self._patch(owner, attr, self.wrap(f"{layer}.{fn.__name__}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _dur(span) -> float:
    return span[END] - span[START]


def layer_metrics(spans: list[list], job_wall: dict[int, float], jobs: set[int], cycles: int) -> dict:
    """Per-layer metrics per cycle, from the spans of the given jobs.

    A layer's busy time is the time the CLI spent in it directly: the
    decoder's own calls into the graph, solver and evaluator count in
    `decoder.busy_s` and show again as `decoder.inner_*`. Call and work
    counts cover every call, whoever made it. Self time is a span's duration
    minus that of its child spans.
    """
    child_s = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_s[s[PARENT]] += _dur(s)
    m = defaultdict(float)
    ratios = []
    for i, s in enumerate(spans):
        if s[JOB] not in jobs:
            continue
        name, parent, d, c = s[NAME], s[PARENT], _dur(s), s[COUNTS] or {}
        layer = name.split(".", 1)[0]
        m[f"{layer}.calls"] += 1
        if parent is None:
            m[f"{layer}.busy_s"] += d
            m["top_level_s"] += d
        from_decoder = parent is not None and spans[parent][NAME].startswith("decoder.")
        if layer == "generator":
            m["generator.constraints"] += c.get("constraints", 0)
        elif layer == "serialize":
            m["serialize.bytes_read"] += c.get("bytes_read", 0)
            m["serialize.bytes_written"] += c.get("bytes_written", 0)
        elif name == "model.validate":
            m["model.validate_s"] += d
        elif layer == "graph":
            m["graph.edges"] += c.get("edges", 0)
        elif layer == "solver":
            m["solver.nodes"] += c.get("nodes", 0)
            if from_decoder:
                m["decoder.inner_solves"] += 1
                m["decoder.inner_solve_s"] += d
            elif c.get("relax"):
                ratios.append(c["cut"] / c["relax"])
        elif layer == "decoder":
            m["decoder.self_s"] += d - child_s[i]
        elif layer == "evaluator":
            m["evaluator.constraints_scored"] += c.get("constraints", 0)
            if from_decoder:
                m["decoder.inner_score_calls"] += 1
    m["cli.self_s"] = sum(job_wall[j] for j in jobs) - m.pop("top_level_s", 0.0)
    out = {k: v / cycles for k, v in m.items()}
    out["solver.cut_over_relax"] = statistics.fmean(ratios) if ratios else 0.0
    return out


# Columns of the ROADMAP baseline table, in ms, per instance.
TABLE_COLUMNS = ("gen", "build", "solve", "decode", "score", "serialize")


def baseline_rows(spans: list[list], job_info: dict[int, tuple]) -> list[tuple[str, dict]]:
    """Median ms per column for each instance, over the traced jobs on it.

    `job_info` maps a job id to `(instance label, op, cycle)`. Serialize adds
    the `gen` job's share to the `solve` job's. Only top-level spans count
    otherwise, so decode includes the decoder's inner solves.
    """
    acc: dict[str, dict[str, dict[int, dict]]] = {}
    for s in spans:
        info = job_info.get(s[JOB])
        if info is None:
            continue
        label, op, cycle = info
        layer = s[NAME].split(".", 1)[0]
        col = "serialize" if layer == "serialize" else None
        if s[PARENT] is None and col is None:
            col = {"generator": "gen", "graph": "build", "solver": "solve",
                   "decoder": "decode", "evaluator": "score"}.get(layer)
        if col:
            cells = acc.setdefault(label, {}).setdefault(op, {}).setdefault(cycle, defaultdict(float))
            cells[col] += _dur(s) * 1e3
    rows = []
    for label, by_op in acc.items():
        row: dict[str, float] = defaultdict(float)
        for cycles in by_op.values():
            for c in TABLE_COLUMNS:
                vals = [cells[c] for cells in cycles.values() if c in cells]
                if vals:
                    row[c] += statistics.median(vals)
        rows.append((label, dict(row)))
    return rows
