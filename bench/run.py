"""The rackalg benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload dialg_s3 --seed 1 --seconds 35 --trace 0

Run it from the repository root; it measures the package in ``src/``.
Every measurement runs in a fresh single-threaded interpreter with the hash
seed pinned, one at a time:

* set-up: one warm-up and ``SETUP_RUNS`` timed interpreters that only import
  the modules the workload uses, load fixtures and draw the seeded inputs,
  half of them before and half after the measuring interpreter;
* ``--trace 0``: one interpreter that, after a warm-up round, repeats
  rounds of the valid and the reject phase for about ``--seconds``, at
  least two, and checks every output against ``reference.json``;
* ``--trace 1``: two interpreters that each run one valid and one reject
  phase under cProfile and then one plain valid phase, the base of the
  tracing overhead ratio.  The metrics are the first one's; every count
  must be the same in both, or the run counts a failure.

The second to last output line holds the context and the raw samples; the
last line is the result: ``correct``, ``attempted``, ``failed`` and the
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "rackalg")
HASH_SEED = "0"
SETUP_RUNS = 11
# Every run must end within 180 s; children get what is left of this.
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class HarnessError(RuntimeError):
    """A measuring interpreter crashed or ran out of time."""


def child(mode: str, workload: str, seed: int, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "harness.py"), mode,
           "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} did not finish in time") from exc
    if proc.returncode != 0:
        raise HarnessError(f"{mode} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> dict[str, int]:
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                out[name[:-3]] = sum(1 for _ in fh)
    return out


def end_to_end(setups: list[dict], r: dict) -> tuple[dict, dict]:
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "run_s": r["run_s"],
        "reject_s": r["reject_s"],
        "peak_rss_mb": r["peak_rss_mb"],
        "ok_frac": 1 - r["failed"] / r["attempted"],
    }
    details = {k: r[k] for k in ("rounds", "round_s", "op_s", "corruptions", "fired",
                                 "problems")}
    return metrics, details


def repeat_check(t: dict, again: dict, counts: list[str]) -> None:
    """Count one more operation, failed unless both traced runs agree on
    every count."""
    differ = [name for name in counts if t["metrics"][name] != again["metrics"][name]]
    t["attempted"] += 1
    if differ:
        t["failed"] += 1
        t["problems"].append(f"counts differ between two traced runs: {differ}")


def per_layer(setups: list[dict], t: dict) -> tuple[dict, dict]:
    metrics = dict(t["metrics"])
    metrics["star_product.import_s"] = statistics.median(
        s["import_s"].get("star_product", 0.0) for s in setups)
    details = {k: t[k] for k in ("traced_run_s", "untraced_run_s", "missing", "problems")}
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="rackalg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isdir(SRC):
        print(f"run.py: no package source at {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S
    w, seed = args.workload, args.seed
    try:
        # A warm-up fills the bytecode and page caches.  Half the timed
        # set-ups run before the measuring interpreter and half after, so
        # their median spans the run instead of one moment of it.
        setups = [child("setup", w, seed, deadline) for _ in range(1 + SETUP_RUNS // 2)][1:]
        if args.trace:
            r = child("trace", w, seed, deadline)
            repeat_check(r, child("trace", w, seed, deadline),
                         [m["name"] for m in benchmark["per_layer"] if m["unit"] == "count"])
        else:
            r = child("run", w, seed, deadline, "--seconds", str(args.seconds))
        setups += [child("setup", w, seed, deadline)
                   for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
        metrics, details = per_layer(setups, r) if args.trace else end_to_end(setups, r)
        declared = benchmark["per_layer" if args.trace else "end_to_end"]
        if set(metrics) != {m["name"] for m in declared}:
            raise HarnessError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    details["setup_s"] = [s["setup_s"] for s in setups]
    context = {"workload": w, "seed": seed, "hash_seed": HASH_SEED,
               "python": platform.python_version(), "nproc": os.cpu_count(),
               "src_lines": src_lines()}
    print(json.dumps({"context": context, "details": details}))
    print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
