"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/child.py '<job json>' [<trace dir>]

The job carries only generated inputs (graph encodings or CLI argument
lists).  The last stdout line is ``@bench <json>`` with the moment the
inputs were ready (``time.perf_counter``, which is CLOCK_MONOTONIC and so
shared with the benchmark process), the results and, for sweeps, the node
count, and the host's pace while the work ran (see pace.py).  With a
trace directory the layers are wrapped (see spans.py).  A ``start`` job
stops before importing invlab: the reference for set-up time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
import time

import pace


def _solve_all(solve, graphs, tracer):
    results = []
    for i, D in enumerate(graphs):
        if tracer is not None:
            tracer.run = i + 1
        r = solve(D)
        results.append({
            "value": r.value,
            "nodes": r.nodes_explored,
            "exhausted": r.max_k_exhausted,
            "witness": list(r.witness.sets) if r.witness is not None else None,
        })
    return results


def _sweeps(cli, argvs):
    outs = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        outs.append({"code": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()})
    return outs


def main() -> int:
    job = json.loads(sys.argv[1])
    if job["kind"] == "start":
        print("@bench " + json.dumps({"ready": time.perf_counter()}))
        return 0
    trace_dir = sys.argv[2] if len(sys.argv) > 2 else None
    from invlab import cli, construct, digraph, f2, solver

    graphs = [digraph.decode_digraph(e) for e in job.get("graphs", ())]
    ready = time.perf_counter()
    if job["kind"] == "setup":
        print("@bench " + json.dumps({"ready": ready}))
        return 0

    tracer = None
    nodes = None
    if trace_dir is not None:
        import spans

        tracer = spans.Tracer(trace_dir)
        spans.install(tracer, {"cli": cli, "solver": solver, "f2": f2,
                               "digraph": digraph, "construct": construct})
    if job["kind"] == "sweep":
        # One shared counter, inherited by forked pool workers; one addition
        # per solve, so the untraced run stays untraced in effect.
        import multiprocessing

        nodes = multiprocessing.Value("q", 0)
        inv_exact = solver.inv_exact

        def counted(D, opts=None):
            r = inv_exact(D, opts)
            with nodes.get_lock():
                nodes.value += r.nodes_explored
            return r

        solver.inv_exact = counted

    if job["kind"] == "solve":
        work = functools.partial(_solve_all, getattr(solver, job["solver"]), graphs, tracer)
    else:
        work = functools.partial(_sweeps, cli, job["argvs"])
    if tracer is not None:
        work = tracer.span(spans.WORK_SPAN, work)
    host = pace.Pace()
    host.start()
    results = work()
    host.stop()
    if tracer is not None:
        tracer.write()
    report = {"ready": ready, "results": results}
    if nodes is not None:
        report["nodes"] = nodes.value
    report["pace"] = host.totals()
    print("@bench " + json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
