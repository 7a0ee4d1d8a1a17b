"""Measure one workload inside one process.

    python3 bench/harness.py setup --workload W --seed N
    python3 bench/harness.py run   --workload W --seed N --seconds S
    python3 bench/harness.py trace --workload W --seed N

``run.py`` starts each of these in a fresh interpreter with a pinned hash
seed and reads the JSON object on the last line of its output.  The package
is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from workloads import WORKLOADS, Workload  # noqa: E402

# Every measured round runs the valid phase and then the reject phase; a
# further round starts only if it is expected to end within --seconds, and
# at least MIN_ROUNDS run.
MIN_ROUNDS = 2
REFERENCE = os.path.join(HERE, "reference.json")
MAX_PROBLEMS = 20


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(why[:400])


def _plain(x: Any) -> Any:
    return json.loads(json.dumps(x))


class Timeline(dict):
    """Results by operation name, and in ``seconds`` the time each took: from
    the previous store, or from the creation of the timeline for the first."""

    def __init__(self) -> None:
        super().__init__()
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def __setitem__(self, name: str, value: Any) -> None:
        now = time.perf_counter()
        self.seconds[name] = now - self._last
        self._last = now
        super().__setitem__(name, value)


def valid_rep(wl: Workload, inp: Any) -> tuple[float, Timeline, str]:
    """One timed valid phase: (seconds, results so far, error text or '')."""
    error = ""
    t0 = time.perf_counter()
    out = Timeline()
    try:
        wl.valid(inp, out)
    except Exception:  # counted against the operations that did not return
        error = traceback.format_exc(limit=3)
    return time.perf_counter() - t0, out, error


def check_valid(wl: Workload, inp: Any, out: dict, error: str, reference: dict,
                tally: Tally) -> None:
    """Compare every operation's summary with its reference entry."""
    for name in wl.ops:
        tally.attempted += 1
        if name not in out:
            tally.fail(f"{name}: no result; {error.strip().splitlines()[-1] if error else ''}")
            continue
        got = _plain(wl.summarize(inp, name, out[name]))
        want = reference.get(name)
        if got != want:
            tally.fail(f"{name}: got {json.dumps(got)} want {json.dumps(want)}")


def reject_rep(calls: list[tuple[str, Callable]]) -> list:
    """One timed reject phase: [(description, exception or None, seconds of
    this call)]."""
    seen = []
    last = time.perf_counter()
    for desc, call in calls:
        try:
            call()
        except Exception as exc:  # classified below, outside the timed loop
            seen.append((desc, exc, time.perf_counter() - last))
        else:
            seen.append((desc, None, time.perf_counter() - last))
        last = time.perf_counter()
    return seen


def check_reject(seen: list, error_type: type, tally: Tally, fired: dict[str, int]) -> None:
    for desc, exc, _ in seen:
        tally.attempted += 1
        if exc is None:
            tally.fail(f"corruption {desc} was accepted")
        elif not isinstance(exc, error_type):
            tally.fail(f"corruption {desc} raised {type(exc).__name__}: {exc}"[:400])
        else:
            name = getattr(exc, "axiom", None) or getattr(exc, "identity", None) \
                or type(exc).__name__
            fired[name] = fired.get(name, 0) + 1


def corrupted_calls(wl: Workload, inp: Any, out: dict | None, tally: Tally) -> list:
    """Reject-phase inputs; without a complete valid result they all fail."""
    if out is None:
        for c in inp.corruptions:
            tally.attempted += 1
            tally.fail(f"corruption {c} not built: the valid phase failed")
        return []
    return wl.corrupted(inp, out)


def error_type() -> type:
    from rackalg.errors import RackalgError
    return RackalgError


def fastest_sum(samples: dict[Any, list[float]]) -> float:
    """Sum over items of each item's fastest repetition."""
    return sum(min(v) for v in samples.values())


def measure(wl: Workload, inp: Any, seconds: float, reference: dict) -> dict:
    """Repeat rounds of the valid and the reject phase for ``seconds``.

    One checked warm-up round comes first; the corrupted inputs are built
    from its valid results.  A phase's time is the sum over its operations
    (valid phase) or corruptions (reject phase) of each one's fastest
    repetition.  On a shared machine slow spells only ever add time, and
    the operations are short enough, tens of milliseconds, for some
    repetitions of each to run between them; interleaving the phases
    spreads each item's repetitions over the whole run.
    """
    tally = Tally()
    fired: dict[str, int] = {}
    _, out, error = valid_rep(wl, inp)
    check_valid(wl, inp, out, error, reference, tally)
    calls = corrupted_calls(wl, inp, None if error else out, tally)
    seen = reject_rep(calls)
    check_reject(seen, error_type(), tally, fired)
    round_s: list[float] = []
    op_s: dict[str, list[float]] = {}
    item_s: dict[int, list[float]] = {}
    start = time.perf_counter()
    while (len(round_s) < MIN_ROUNDS
           or time.perf_counter() - start + statistics.median(round_s) <= seconds):
        t0 = time.perf_counter()
        gc.collect()
        _, out, error = valid_rep(wl, inp)
        for name, sec in out.seconds.items():
            op_s.setdefault(name, []).append(sec)
        check_valid(wl, inp, out, error, reference, tally)
        seen = reject_rep(calls)
        for i, (_, _, sec) in enumerate(seen):
            item_s.setdefault(i, []).append(sec)
        check_reject(seen, error_type(), tally, {})
        round_s.append(time.perf_counter() - t0)
    return {"run_s": fastest_sum(op_s), "reject_s": fastest_sum(item_s),
            "rounds": len(round_s), "round_s": round_s,
            "op_s": {name: min(v) for name, v in op_s.items()},
            "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
            "fired": fired, "corruptions": len(calls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def trace(wl: Workload, inp: Any, reference: dict) -> dict:
    """One valid and one reject phase under cProfile, then per-layer metrics.

    A plain valid phase follows, the base of the tracing overhead ratio.
    """
    import layers
    import rackalg.exact_core
    tally = Tally()
    elim = layers.ElimCounter(rackalg.exact_core)
    prof = cProfile.Profile(builtins=False)
    elim.install()
    try:
        prof.enable()
        traced_s, out, error = valid_rep(wl, inp)
        prof.disable()
        check_valid(wl, inp, out, error, reference, tally)
        calls = corrupted_calls(wl, inp, None if error else out, tally)
        prof.enable()
        seen = reject_rep(calls)
        prof.disable()
    finally:
        elim.uninstall()
    check_reject(seen, error_type(), tally, {})
    profile = layers.Profile(pstats.Stats(prof).stats)
    metrics = layers.layer_metrics(profile, elim)
    plain_s, out, error = valid_rep(wl, inp)
    check_valid(wl, inp, out, error, reference, tally)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    return {"metrics": metrics, "traced_run_s": traced_s, "untraced_run_s": plain_s,
            "missing": profile.missing, "attempted": tally.attempted, "failed": tally.failed,
            "problems": tally.problems}


def load_reference(name: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[name]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    inp = wl.setup(args.seed)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        result = {"setup_s": setup_s, "import_s": getattr(inp, "import_s", {})}
    elif args.mode == "run":
        result = measure(wl, inp, args.seconds, load_reference(wl.name))
    else:
        result = trace(wl, inp, load_reference(wl.name))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
