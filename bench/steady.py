"""Run the benchmark over several seeds and report how steady it is.

    python3 bench/steady.py [--record] [--against bench/baseline.json]

Runs the command of BENCHMARK.json once per (seed, workload) for seeds
0-9 and every workload, seed by seed, so that a slow period of the
machine is spread over all workloads instead of being charged to one.
For each end-to-end metric it prints the median and the spread
(Q3 - Q1) / median over the seeds, with ``statistics.quantiles(values,
n=4)``, next to the metric's bound; a spread of a third of the bound or
more is WIDE.  ``--record`` also runs one traced pass per workload and
writes bench/baseline.json: environment, medians and spreads, and the
exact node counts (per k level for deep_search) on the default seed and
on a held-out one.

``--against bench/baseline.json`` compares each median with the recorded
one: ok if it is no worse by more than the metric's bound, WORSE if it
is.  Where the recorded or the new spread is at least the bound, the
medians cannot tell a change of the bound's size from noise, and the
verdict is unresolved unless every new value is better than every
recorded one (ok) or worse than every recorded one (WORSE).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SPEC_BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
SEEDS = range(10)
DEFAULT_SEED = 0
HELD_OUT_SEED = 7


def invoke(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    result["run_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def compare(was: dict, now: dict, bound: float, lower: bool) -> tuple[float, str]:
    """How much worse the new median is than the recorded one, and the
    verdict: ok, WORSE or unresolved."""
    worse = now["median"] / was["median"] - 1 if lower else was["median"] / now["median"] - 1
    if max(was["spread"], now["spread"]) < bound:
        return worse, "ok" if worse <= bound else "WORSE"
    new, old = now["values"], was["values"]
    if not lower:
        new, old = [-v for v in new], [-v for v in old]
    if max(new) < min(old):
        return worse, "ok"
    if min(new) > max(old):
        return worse, "WORSE"
    return worse, "unresolved"


def node_record(seed: int) -> dict:
    """Exact node counts of every workload input on one seed."""
    sys.path.insert(0, str(run.SRC))
    from invlab import digraph, solver

    out = {}
    job = run.make_job("deep_search", seed, "full")
    graphs = []
    for (expr, _), enc in zip(run.DEEP["full"], job["graphs"]):
        r = solver.inv_exact(digraph.decode_digraph(enc))
        # level j's nodes: a re-call with max_k = j minus one with max_k = j - 1
        upto = [run.nodes_below(enc, j + 1) for j in range(r.value)] + [r.nodes_explored]
        graphs.append({"graph": expr, "encoding": enc, "value": r.value,
                       "nodes": r.nodes_explored,
                       "nodes_per_level": [b - a for a, b in zip([0] + upto, upto)]})
    out["deep_search"] = graphs
    job = run.make_job("order_crosscheck", seed, "full")
    out["order_crosscheck"] = [
        {"encoding": enc, "value": want}
        for enc, want in zip(job["graphs"], job["expect"])
    ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--against", type=Path,
                        help="a recorded baseline.json whose medians these runs must match")
    args = parser.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            res = invoke(w, seed, 0)
            res["seed"] = seed
            results[w].append(res)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"seed={seed} {w} correct={res['correct']} run={res['run_s']:.1f}s {values}",
                  flush=True)

    summary: dict[str, dict] = {}
    steady = True
    for w in workloads:
        summary[w] = {"seeds": [r["seed"] for r in results[w]],
                      "correct": all(r["correct"] for r in results[w]), "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results[w]]
            q1, med, q3, rel = spread(values)
            ok = rel < bound / 3
            steady &= ok
            summary[w]["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                           "bound": bound, "values": values}
            print(f"{w:18s} {name:14s} median={med:<12.6g} spread={rel:7.2%} "
                  f"bound={bound:.0%} {'ok' if ok else 'WIDE'}")
    print("steady" if steady else "NOT steady: a spread is at least a third of its bound")

    agree = True
    if args.against:
        base = json.loads(args.against.read_text())["end_to_end"]
        unresolved = 0
        for w in workloads:
            for name, bound in bounds.items():
                was, now = base[w]["metrics"][name], summary[w]["metrics"][name]
                worse, verdict = compare(was, now, bound, SPEC_BETTER[name] == "lower")
                agree &= verdict != "WORSE"
                unresolved += verdict == "unresolved"
                print(f"{w:18s} {name:14s} recorded={was['median']:<12.6g} "
                      f"now={now['median']:<12.6g} "
                      f"worse by {worse:+7.2%} bound={bound:.0%} {verdict}")
        print(("agrees with" if agree else "DISAGREES with") + " the recorded baseline"
              + (f"; {unresolved} unresolved at their bound" if unresolved else ""))

    if args.record:
        record = {
            "environment": run.environment(),
            "run_seconds": SPEC["run_seconds"],
            "end_to_end": summary,
            "per_layer_seed0": {w: invoke(w, DEFAULT_SEED, 1)["metrics"] for w in workloads},
            "nodes": {str(DEFAULT_SEED): node_record(DEFAULT_SEED),
                      str(HELD_OUT_SEED): node_record(HELD_OUT_SEED)},
        }
        path = Path(run.BENCH / "baseline.json")
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}")
    return 0 if steady and agree else 1


if __name__ == "__main__":
    sys.exit(main())
