"""Spans and counters around the calls into each invlab layer.

``install`` replaces every public function of the layer modules with a
wrapper, at every name a caller looks it up by: ``solver`` imports
``min_gram_dim_free_diag``, ``is_acyclic`` and friends by name, so those
names are patched in ``solver`` as well as in their home module.  A span
is ``(name, start, end, id, parent, run, extra)``; ids are unique per
process, so spans written by forked pool workers merge with the parent's.
The two hottest inner calls (``f2.rank_of_rows``, about 110 per bound, and
``digraph.canonical_key``, 33,867 per n<=6 enumeration) get a counter and
no span, which keeps the tracing cost small enough to report.

Spans live in memory.  The main process writes them once at exit; a pool
worker appends the spans and counter deltas of each task when the task
ends, because pool workers are terminated, not exited.  ``metrics`` turns
the merged records into the per-layer report.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time

LAYERS = ("cli", "solver", "f2", "digraph", "construct")
COUNTED = {"f2.rank_of_rows", "digraph.canonical_key"}
WORK_SPAN = "bench.work"

# ---------------------------------------------------------------------------
# Recording (runs inside the traced child and its pool workers)


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTED, 0)
        self.stack = [0]
        self.run = 0
        self._next = 0

    def _id(self) -> int:
        self._next += 1
        return os.getpid() << 32 | self._next

    def span(self, name: str, fn, extra=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._id()
            parent = self.stack[-1]
            self.stack.append(sid)
            start = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                self.stack.pop()
                info = extra(out, args) if extra is not None and out is not None else None
                self.spans.append((name, start, end, sid, parent, self.run, info))

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def task(self, fn):
        """Wrap the pool's task function: each task is its own run, and a
        worker flushes what it recorded when the task ends."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.run = self._id()
            mark = len(self.spans)
            before = dict(self.counts)
            try:
                return fn(*args, **kwargs)
            finally:
                if os.getpid() != self.main_pid:
                    delta = {k: self.counts[k] - before[k] for k in self.counts}
                    path = os.path.join(self.out_dir, f"worker-{os.getpid()}.jsonl")
                    with open(path, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps({"spans": self.spans[mark:], "counts": delta}) + "\n")
                    del self.spans[mark:]

        return wrapper

    def write(self) -> None:
        path = os.path.join(self.out_dir, "main.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _solve_extra(encode):
    def extra(result, args):
        info = {"nodes": result.nodes_explored, "value": result.value}
        if args and hasattr(args[0], "out_rows"):
            info["graph"] = encode(args[0])
            info["n"] = args[0].n
        return info

    return extra


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every public function of ``modules`` (layer name -> module) at
    every lookup site, plus the experiment builders and checkers."""
    encode = modules["digraph"].encode_digraph
    extras = {
        "solver.inv_exact": _solve_extra(encode),
        "solver.inv_order_backend": _solve_extra(encode),
        "digraph.nonisomorphic_tournaments": lambda out, args: {"classes": len(out)},
    }
    wrapped = {}
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                continue
            name = f"{layer}.{attr}"
            if name in COUNTED:
                wrapped[fn] = tracer.counter(name, fn)
            else:
                wrapped[fn] = tracer.span(name, fn, extras.get(name))
    for mod in modules.values():
        for attr, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn in wrapped:
                setattr(mod, attr, wrapped[fn])
    cli = modules["cli"]
    for key, (build, check, params, doc) in list(cli.EXPERIMENTS.items()):
        cli.EXPERIMENTS[key] = (
            tracer.span("cli.build", build),
            tracer.span("cli.check", check),
            params,
            doc,
        )
    cli._run_one = tracer.task(cli._run_one)


# ---------------------------------------------------------------------------
# Analysis (runs in the benchmark process)


def load(out_dir: str) -> tuple[list[tuple], dict[str, int]]:
    with open(os.path.join(out_dir, "main.json"), encoding="utf-8") as fh:
        main = json.load(fh)
    spans = [tuple(s) for s in main["spans"]]
    counts = dict(main["counts"])
    for entry in sorted(os.listdir(out_dir)):
        if not entry.startswith("worker-"):
            continue
        with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                spans.extend(tuple(s) for s in rec["spans"])
                for k, v in rec["counts"].items():
                    counts[k] = counts.get(k, 0) + v
    return spans, counts


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children in pool workers overlap one another, so the covered part is
    the union of the children's intervals, clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, sid, parent, run, info in spans:
        children.setdefault(parent, []).append((start, end))
    out = []
    for name, start, end, sid, parent, run, info in spans:
        covered = 0.0
        reach = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def metrics(spans: list[tuple], counts: dict[str, int], jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition: name -> (value, base)."""
    selfs = self_times(spans)
    by_id = {s[3]: s for s in spans}
    total: dict[str, float] = {}
    self_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, own in zip(spans, selfs):
        name = span[0]
        total[name] = total.get(name, 0.0) + span[2] - span[1]
        self_of[name] = self_of.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1

    def infos(name):
        return [s[6] for s in spans if s[0] == name and s[6] is not None]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, own in self_of.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own
    all_self = sum(self_of.values()) or 1.0

    exact = infos("solver.inv_exact")
    nodes = sum(i["nodes"] for i in exact)
    exact_self = self_of.get("solver.inv_exact", 0.0)
    certify = sum(
        s[2] - s[1]
        for s in spans
        if s[0] in ("digraph.apply_family", "digraph.is_acyclic")
        and by_id.get(s[4], ("",))[0] in ("solver.inv_exact", "solver.inv_order_backend")
    )
    order = infos("solver.inv_order_backend")
    order_nodes = sum(i["nodes"] for i in order)
    bound_calls = sum(i["nodes"] - i["n"] - 1 for i in order if i["n"] >= 2)
    misses = sum(
        1 for s in spans
        if s[0] == "f2.min_gram_dim_free_diag"
        and by_id.get(s[4], ("",))[0] == "solver.inv_order_backend"
    )
    gram_calls = calls.get("f2.min_gram_dim_free_diag", 0)
    ranks = counts.get("f2.rank_of_rows", 0)
    keys = counts.get("digraph.canonical_key", 0)
    classes = sum(i["classes"] for i in infos("digraph.nonisomorphic_tournaments"))
    construct_calls = sum(n for name, n in calls.items() if name.startswith("construct."))

    checks = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "cli.check"]
    experiments = calls.get("cli.cmd_experiment", 0)
    build_s = total.get("cli.build", 0.0)
    check_s = total.get("cli.cmd_experiment", 0.0) - build_s if experiments else 0.0
    busy = sum(checks) / 1e3
    exact_calls = calls.get("solver.inv_exact", 0)

    out = {
        "solver.inv_exact.calls": (exact_calls, "solver.inv_exact spans"),
        "solver.inv_exact.self_s": (exact_self, "inv_exact span time minus its child spans"),
        "solver.nodes": (nodes, "sum of InvResult.nodes_explored over inv_exact calls"),
        "solver.nodes_per_s": (nodes / exact_self if exact_self else 0.0,
                               f"{nodes} nodes / {exact_self:.4f} s inv_exact self time"),
        "solver.certify_s": (certify, "apply_family + is_acyclic called from the solver"),
        "solver.order.nodes": (order_nodes, "sum of nodes_explored over inv_order_backend calls"),
        "solver.order.self_s": (self_of.get("solver.inv_order_backend", 0.0),
                                "inv_order_backend span time minus its child spans"),
        "solver.order.bound_misses": (misses, "solver.min_gram_dim_free_diag calls"),
        "solver.order.memo_hit_ratio": (1 - misses / bound_calls if bound_calls else 0.0,
                                        f"1 - {misses} misses / {bound_calls} bound lookups"),
        "solver.order.witness_s": (total.get("f2.realize_oracle", 0.0), "solver.realize_oracle"),
        "f2.min_gram_dim_free_diag.calls": (gram_calls, "spans"),
        "f2.min_gram_dim_free_diag.self_s": (self_of.get("f2.min_gram_dim_free_diag", 0.0),
                                             "span time, rank_of_rows included"),
        "f2.rank_of_rows.calls": (ranks, "counter"),
        "f2.diagonals_per_bound": (ranks / gram_calls if gram_calls else 0.0,
                                   f"{ranks} rank calls / {gram_calls} bounds"),
        "f2.realize_oracle.s": (total.get("f2.realize_oracle", 0.0), "span time"),
        "digraph.nonisomorphic_tournaments.s": (total.get("digraph.nonisomorphic_tournaments", 0.0),
                                                "span time, canonical_key included"),
        "digraph.canonical_key.calls": (keys, "counter"),
        "digraph.classes_per_key": (classes / keys if keys else 0.0,
                                    f"{classes} classes / {keys} canonical_key calls"),
        "digraph.is_acyclic.calls": (calls.get("digraph.is_acyclic", 0), "spans"),
        "digraph.is_acyclic.s": (total.get("digraph.is_acyclic", 0.0), "span time"),
        "construct.calls": (construct_calls, "construct.* spans, nested ones included"),
        "construct.s": (layer_self["construct"], "construct self time"),
        "cli.build_s": (build_s, f"builder spans over {experiments} experiments"),
        "cli.check_s": (check_s, "cmd_experiment time minus build time"),
        "cli.instance_ms_p50": (_quantile(checks, 0.5), f"over {len(checks)} checker spans"),
        "cli.instance_ms_p90": (_quantile(checks, 0.9), f"over {len(checks)} checker spans"),
        "cli.solves_per_instance": (exact_calls / len(checks) if checks else 0.0,
                                    f"{exact_calls} inv_exact calls / {len(checks)} instances"),
        "cli.pool_efficiency": (busy / (jobs * check_s) if check_s else 0.0,
                                f"{busy:.3f} s checker time / ({jobs} jobs x {check_s:.3f} s check wall)"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = (
            layer_self[layer] / all_self,
            f"{layer_self[layer]:.3f} s / {all_self:.3f} s self time of all spans",
        )
    return out
