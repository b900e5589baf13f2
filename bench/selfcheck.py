"""Self-check of the benchmark on tiny inputs (a few seconds).

    python3 bench/selfcheck.py

* every workload, traced and untraced, prints a last line with exactly the
  keys correct/attempted/failed/metrics, is correct, and emits every metric
  named in BENCHMARK.json with its unit;
* the --jobs 1 stdout of each pooled sweep has the digest recorded for
  its --jobs 2 run;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  refuses to run: it exits non-zero and prints no result.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 120


def bench_result(cwd, workload: str, trace: int) -> tuple[int, str]:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)
    return proc.returncode, proc.stdout


def check_metrics() -> list[str]:
    errors = []
    for w in SPEC["workloads"]:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, out = bench_result(run.ROOT, w["name"], trace)
            where = f"{w['name']} trace={trace}"
            if code != 0:
                errors.append(f"{where}: exit {code}")
                continue
            res = json.loads(out.splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: keys {sorted(res)}")
                continue
            if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
                errors.append(f"{where}: correct={res['correct']} failed={res['failed']}"
                              f" attempted={res['attempted']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(want.items()))}")
            for name, m in res["metrics"].items():
                if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
                    errors.append(f"{where}: {name} is not a number")
            print(f"ok {where}: {len(got)} metrics", flush=True)
    return errors


def check_pool_digests() -> list[str]:
    errors = []
    env = dict(os.environ, PYTHONPATH=str(run.SRC), PYTHONHASHSEED="0")
    for name, spec in run.SWEEPS.items():
        if spec["jobs"] == 1:
            continue
        for argv, digest in spec["tiny"]:
            cmd = [sys.executable, "-m", "invlab.cli"] + argv + run._sweep_flags(1)
            out = subprocess.run(cmd, capture_output=True, env=env, timeout=TIMEOUT).stdout
            if hashlib.sha256(out).hexdigest() != digest:
                errors.append(f"{name}: --jobs 1 stdout differs from the --jobs {spec['jobs']} digest")
    print("ok pooled sweep digests match --jobs 1", flush=True)
    return errors


def check_refusal() -> list[str]:
    bare = run.BENCH / "out" / f"selfcheck-{os.getpid()}"
    try:
        os.makedirs(bare)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, out = bench_result(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a run is using it
    if code == 0 or out.strip():
        return [f"without sources: exit {code}, stdout {out.strip()[:80]!r}"]
    print(f"ok without sources: exit {code}, no result", flush=True)
    return []


def main() -> int:
    errors = check_metrics() + check_pool_digests() + check_refusal()
    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
