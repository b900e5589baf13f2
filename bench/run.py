"""End-to-end and per-layer benchmark of invlab.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; invlab is loaded from ``src``, as the
tier-1 tests load it.  Workloads (why each is here is in BENCHMARK.json):

* ``deep_search``: ``inv_exact`` on qn(11), qn(10), join(c3,c3,c3,c3) and
  blowup_uniform(c3;c3,3), each relabelled by a seeded permutation.
* ``tournament_sweep``: ``experiment direction`` then ``experiment thm13``,
  --n-max 6, --jobs 1, in one process.  Exhaustive, so the seed is unused.
* ``order_crosscheck``: ``inv_order_backend`` on qn(8) and four fixed
  random 8-vertex tournaments, in a seeded order.  The graphs do not
  depend on the seed: the order backend's time on qn(8) swings up to 1.8x
  with its labelling, and up to 20x between random tournaments, which
  would bury any change in input noise.  Solve order changes no search,
  since the bound memo only returns what it would have computed.
* ``pair_sweep``: ``experiment conj-direction`` 5x5 with --jobs 2.

Every repetition runs in a fresh interpreter, as a CLI user would: the
order backend's bound memo is a module-global that grows without limit,
so an in-process repeat would be served from the previous repetition's
cache and measure a different program.  The benchmark spawns repetitions
for about ``--seconds`` and at least three, and reports medians.

The host drifts in speed by up to 2x in seconds to minutes, in CPU time
as much as in wall time, so wall_s and cpu_s are each repetition's times
multiplied by the host's pace during it (pace.py): they read as on an
idle host, and their raw figures are in the traced report.  setup_s is
spawn to inputs ready, relative to a reference start (``setup_time``).

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced repetitions and reports the per-layer
metrics (see spans.py), the tracing overhead and fail_ratio, the share
of results that are wrong, unresolved, uncertified or crashed.  Every
answer is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pace
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_REPS = 3
SETUP_REPS = 15
# spawn to just before ``import invlab`` of a bare child on an idle host
START_S = 0.04
CHILD_TIMEOUT = 120

# (expression, expected inversion number)
DEEP = {
    "full": [("qn(11)", 5), ("qn(10)", 4), ("join(c3,c3,c3,c3)", 4),
             ("blowup_uniform(c3;c3,3)", 4)],
    "tiny": [("qn(7)", 3), ("join(c3,c3)", 2)],
}
# (order of the random tournaments, how many), drawn from a fixed seed
ORDER = {"full": ("qn(8)", 8, 4), "tiny": ("qn(5)", 5, 2)}
ORDER_GRAPH_SEED = 0


def _sweep_flags(jobs: int) -> list[str]:
    return ["--jobs", str(jobs), "--deterministic"]


# argv -> sha256 of its stdout; the --jobs 2 digest equals the --jobs 1 one
SWEEPS = {
    "tournament_sweep": {
        "jobs": 1,
        "full": [
            (["experiment", "direction", "--n-max", "6"],
             "aeeb38deff21a9cbabd8275f205aa36d5c8f1570cd16cf62aaccf4c035b74b69"),
            (["experiment", "thm13", "--n-max", "6"],
             "d4e069f587a3ea1372f2aaeddaa614a505dda4d77086ddeeb950eaa3ad2d5d94"),
        ],
        "tiny": [
            (["experiment", "direction", "--n-max", "4"],
             "90b3d1139d74d8ae729cbd3aed9d7961396942dcb612f6b4860c557f79ed43ba"),
            (["experiment", "thm13", "--n-max", "4"],
             "adc98b2d7ee47d02da27102e453aba705179fcfd9e48ee3522137ef98c4d71d8"),
        ],
    },
    "pair_sweep": {
        "jobs": 2,
        "full": [
            (["experiment", "conj-direction", "--left-n", "5", "--right-n", "5"],
             "73101736c6b9f4d4135ad17d7663542eaa56e0747571760df75ca743f6ff75fd"),
        ],
        "tiny": [
            (["experiment", "conj-direction", "--left-n", "3", "--right-n", "3"],
             "5ee934556bd597525c03d09e1dc624ad173b5ef2d6162a4a8ecb7fcdfb32e749"),
        ],
    },
}

WORKLOADS = ("deep_search", "tournament_sweep", "order_crosscheck", "pair_sweep")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "search_nodes": "count",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms_p50") or name.endswith("_ms_p90"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio") or name.endswith("share") or name.endswith("efficiency"):
        return "ratio"
    if name.endswith("per_bound") or name.endswith("per_key") or name.endswith("per_instance"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Inputs


def relabel(D, perm):
    from invlab.digraph import Digraph

    rows = [0] * D.n
    for u in range(D.n):
        r = D.out_rows[u]
        while r:
            v = (r & -r).bit_length() - 1
            rows[perm[u]] |= 1 << perm[v]
            r &= r - 1
    return Digraph(D.n, tuple(rows))


def random_tournament(rng: random.Random, n: int):
    from invlab.digraph import Digraph

    rows = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                rows[a] |= 1 << b
            else:
                rows[b] |= 1 << a
    return Digraph(n, tuple(rows))


def make_job(workload: str, seed: int, size: str) -> dict:
    """The inputs of one run and what its answers must be."""
    from invlab import construct, digraph, solver

    if workload == "deep_search":
        graphs, expect = [], []
        for i, (expr, value) in enumerate(DEEP[size]):
            D = construct.graph_from_expr(expr)
            perm = list(range(D.n))
            random.Random(f"deep_search:{seed}:{i}").shuffle(perm)
            graphs.append(digraph.encode_digraph(relabel(D, perm)))
            expect.append(value)
        return {"kind": "solve", "solver": "inv_exact", "graphs": graphs, "expect": expect}
    if workload == "order_crosscheck":
        expr, n, count = ORDER[size]
        rng = random.Random(ORDER_GRAPH_SEED)
        pool = [construct.graph_from_expr(expr)]
        pool += [random_tournament(rng, n) for _ in range(count)]
        random.Random(f"order_crosscheck:{seed}").shuffle(pool)
        # the independent answer: the assignment backend on the same graph
        expect = [solver.inv_exact(D).value for D in pool]
        return {"kind": "solve", "solver": "inv_order_backend",
                "graphs": [digraph.encode_digraph(D) for D in pool], "expect": expect}
    spec = SWEEPS[workload]
    flags = _sweep_flags(spec["jobs"])
    return {"kind": "sweep", "argvs": [argv + flags for argv, _ in spec[size]],
            "expect": [digest for _, digest in spec[size]], "jobs": spec["jobs"]}


# ---------------------------------------------------------------------------
# One repetition


def spawn(job: dict, trace_dir: str | None = None) -> dict:
    """Run one repetition in a fresh interpreter; times from spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    payload = {k: v for k, v in job.items() if k in ("kind", "solver", "graphs", "argvs")}
    cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(payload)]
    if trace_dir is not None:
        cmd.append(trace_dir)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
                            start_new_session=True)
    # a hung repetition is killed with its pool workers and counts as crashed
    watchdog = threading.Timer(CHILD_TIMEOUT, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 gives the rusage of the child and every descendant it reaped
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode(errors="replace").splitlines()
    report = None
    if proc.returncode == 0 and lines and lines[-1].startswith("@bench "):
        report = json.loads(lines[-1][len("@bench "):])
    else:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
    # wall_s and cpu_s read as on an idle host (see pace.py).  CPU time is
    # spread over all processes; wall time follows the critical path, and
    # with a pool that is the process that used the most CPU time.
    samples = report.get("pace") if report else None
    cpu_speed = pace.factor(samples) if samples else 1.0
    wall_speed = pace.factor([max(samples)]) if samples else 1.0
    return {
        "wall_s": (end - start) * wall_speed,
        "setup_s": report["ready"] - start if report else None,
        "cpu_s": (usage.ru_utime + usage.ru_stime) * cpu_speed,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "raw_wall_s": end - start,
        "slowdown": 1 / wall_speed,
        "report": report,
    }


def check(job: dict, report: dict | None, first: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one repetition's answers.

    ``first`` is the first good repetition's report: node counts are
    deterministic, so every repetition must repeat them exactly.
    """
    from invlab import digraph

    attempted = len(job["expect"])
    if report is None:
        return attempted, attempted, ["repetition crashed or printed no report"]
    results = report["results"]
    if len(results) != attempted:
        return attempted, attempted, [f"{len(results)} results for {attempted} inputs"]
    if first is not None and search_nodes(report) != search_nodes(first):
        return attempted, attempted, [
            f"nodes {search_nodes(report)} != first repetition {search_nodes(first)}"]
    problems = []
    for i, (res, want) in enumerate(zip(results, job["expect"])):
        if job["kind"] == "sweep":
            if res["code"] != 0 or res["sha256"] != want:
                problems.append(f"sweep {i}: exit {res['code']} sha256 {res['sha256'][:12]}")
            continue
        if res["value"] != want:
            problems.append(f"graph {i}: value {res['value']} != {want}")
        elif res["exhausted"] != want - 1:
            problems.append(f"graph {i}: only k<={res['exhausted']} exhausted")
        elif res["witness"] is None or len(res["witness"]) != want:
            problems.append(f"graph {i}: witness missing or of the wrong size")
        else:
            D = digraph.decode_digraph(job["graphs"][i])
            family = digraph.InversionFamily(D.n, tuple(res["witness"]))
            if digraph.is_acyclic(digraph.apply_family(D, family)) is None:
                problems.append(f"graph {i}: witness leaves a cycle")
    return attempted, len(problems), problems


def search_nodes(report: dict) -> int:
    if "nodes" in report:
        return report["nodes"]
    return sum(r["nodes"] for r in report["results"])


def nodes_below(enc: str, value: int) -> int:
    """Nodes an inv_exact solve spent on the levels it exhausted (k < value),
    from a public re-call that stops where the original solve went on."""
    from invlab import digraph, solver

    if not value:
        return 0
    D = digraph.decode_digraph(enc)
    return solver.inv_exact(D, solver.SearchOptions(max_k=value - 1)).nodes_explored


# ---------------------------------------------------------------------------
# One run


def median(values):
    return statistics.median(values) if values else 0.0


def setup_time(job: dict) -> float:
    """Median time from spawn to inputs ready, as on an idle host.

    Process start drifts with the host as much as the work does (40% IQR
    over a run), and the pace loop cannot follow it: it runs in no process
    before the imports.  So each set-up spawn is paired with a reference
    spawn of the same child that stops where it would import invlab, and
    the median ratio of the two, times the reference's idle-host time,
    is the set-up time (2.8% IQR over groups of ten pairs, against 40%).
    """
    setup_job = {"kind": "setup", "graphs": job.get("graphs", []), "expect": []}
    ratios = []
    for _ in range(SETUP_REPS):
        setup = spawn(setup_job)["setup_s"]
        start = spawn({"kind": "start"})["setup_s"]
        if setup is not None and start is not None:
            ratios.append(setup / start)
    return median(ratios) * START_S


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    job = make_job(workload, seed, size)
    setup_s = setup_time(job)
    out_dir = BENCH / "out" / f"{workload}-{os.getpid()}"
    deadline = time.perf_counter() + seconds
    plain, traced, layer = [], [], []
    overheads = []  # (traced wall, wall of the untraced repetition before it)
    attempted = failed = 0
    problems: list[str] = []
    first = None
    try:
        while True:
            want_trace = trace and len(traced) < len(plain)
            trace_dir = None
            if want_trace:
                trace_dir = str(out_dir / str(len(traced)))
                os.makedirs(trace_dir)
            rep = spawn(job, trace_dir)
            a, f, p = check(job, rep["report"], first)
            attempted, failed = attempted + a, failed + f
            problems += p
            if first is None and rep["report"] is not None and not p:
                first = rep["report"]
            if want_trace:
                if rep["report"] is not None:
                    recs, counts = spans.load(trace_dir)
                    layer.append((rep, recs, counts))
                traced.append(rep)
                overheads.append((rep["wall_s"], plain[-1]["wall_s"]))
            else:
                plain.append(rep)
            reps = len(plain) + len(traced)
            enough = reps >= MIN_REPS and (not trace or traced)
            # stop when the next repetition would end more than half a
            # repetition past the deadline, so a run lasts --seconds on average
            if enough and time.perf_counter() + rep["wall_s"] / 2 > deadline:
                break
    finally:
        if trace:
            shutil.rmtree(out_dir, ignore_errors=True)
            try:
                out_dir.parent.rmdir()
            except OSError:
                pass  # another run still uses it

    good = [r for r in plain if r["report"] is not None]
    result = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reps": len(plain),
        "traced_reps": len(traced),
        "end_to_end": {
            "wall_s": median([r["wall_s"] for r in good]),
            "setup_s": setup_s,
            "cpu_s": median([r["cpu_s"] for r in good]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
            "search_nodes": search_nodes(first) if first is not None else 0,
        },
        "fail_ratio": failed / attempted,
    }
    if trace:
        result["per_layer"] = layer_metrics(job, layer, overheads)
        result["per_layer"]["host.raw_wall_s"] = (
            median([r["raw_wall_s"] for r in good]),
            f"wall_s before the pace correction, median over {len(good)} untraced repetitions")
        result["per_layer"]["host.slowdown_ratio"] = (
            median([r["slowdown"] for r in good]),
            "mean reference pass time / its idle-host time (pace.py)")
        result["per_layer"]["fail_ratio"] = (result["fail_ratio"],
                                             f"{failed} of {attempted} results failed")
    return result


def layer_metrics(job: dict, layer: list, overheads: list) -> dict[str, tuple[float, str]]:
    """Median over traced repetitions of each per-layer metric.

    Metrics of a layer the workload does not call are 0.  The tracing
    overhead is a ratio of each traced repetition's wall time to that of
    the untraced one before it: the difference in seconds is often below
    the noise between neighbouring repetitions, and so negative.
    """
    if not layer:
        return {}
    per_rep = [spans.metrics(recs, counts, job.get("jobs", 1)) for _, recs, counts in layer]
    out = {}
    for name, (_, base) in per_rep[0].items():
        out[name] = (median([m[name][0] for m in per_rep]), base)
    _, recs, _ = layer[0]
    below = 0
    seen = {}
    for rec in recs:
        if rec[0] == "solver.inv_exact" and rec[6] is not None:
            key = (rec[6]["graph"], rec[6]["value"])
            if key not in seen:
                seen[key] = nodes_below(*key)
            below += seen[key]
    nodes = out["solver.nodes"][0]
    out["solver.nodes_below"] = (below, "re-calls with max_k = value - 1")
    out["solver.nodes_last_level"] = (nodes - below, f"{nodes} solver.nodes - {below} below")
    ratio = median([t / u for t, u in overheads])
    extra = median([t - u for t, u in overheads])
    out["trace.overhead_ratio"] = (ratio, f"traced / preceding untraced wall, median over "
                                          f"{len(overheads)} pairs; traced - untraced = "
                                          f"{extra:+.3f} s")
    return out


# ---------------------------------------------------------------------------


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)
    if not (SRC / "invlab" / "__init__.py").is_file():
        print(f"error: no invlab sources under {SRC}", file=sys.stderr)
        return 2
    if time.get_clock_info("perf_counter").implementation != "clock_gettime(CLOCK_MONOTONIC)":
        print("error: setup_s needs a perf_counter clock shared between processes",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    env = environment()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} reps={res['reps']} "
          f"traced_reps={res['traced_reps']} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for problem in res["problems"]:
        print(f"FAIL {problem}")
    metrics = {}
    if args.trace:
        for name, (value, base) in res["per_layer"].items():
            unit = layer_unit(name)
            print(f"{name} = {value:.6g} {unit}  [{base}]")
            metrics[name] = {"value": value, "unit": unit}
    else:
        print(f"fail_ratio = {res['fail_ratio']:.4g} ratio ({res['failed']} of {res['attempted']})")
        for name, value in res["end_to_end"].items():
            unit = END_TO_END_UNITS[name]
            print(f"{name} = {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
