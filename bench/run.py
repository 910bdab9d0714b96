"""Verdict benchmark for moribound.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One caller drives the workload in a closed
loop in this process: it sends the next item only after the previous verdict
returns.  Set-up (imports and input generation) is timed on its own and
repeated; the loop then runs whole rounds until `--seconds` have passed.
Every verdict is checked against the workload's expected file afterwards.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics; with `--trace 1` the same items are run once untraced
and once under the layer tracer, and it carries the per-layer metrics
(the spans go to `.bench_work/`).  `--workload all` runs each workload in
turn.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("sweep", "wide", "cross_section")
# Set-ups per run; setup_s takes their median.  One sweep set-up is the
# whole 4-ray enumeration (12-15 s), so it runs twice, keeping a run short
# enough that every run of every workload fits the benchmark's time budget.
SETUP_REPEATS = {"sweep": 2, "wide": 3, "cross_section": 3}
VERDICT_LIMIT_S = 20  # a verdict running longer counts as failed
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 75.0, 50.0)
# The tail percentile each workload reports: the highest with at least ten
# samples beyond it at the reference commit.  It is pinned, so that faster
# code, which fits more samples into a run, is not measured at a higher
# percentile; a run with too few samples falls back down the ladder.
TAIL_PERCENTILE = {"sweep": 99.0, "wide": 90.0, "cross_section": 90.0}

# Host-speed probe.  On a shared host the speed of the same pure-Python work
# drifts by 20-60% within seconds, which would swamp any change to the
# program.  A timer interrupts the run every TICK_S and times a fixed probe;
# each time is divided by the host factor, the median probe time around it
# over the probe's reference time.  The reference is a constant (the probe's
# median on a 2-core sandbox), so that factors compare across runs.  The
# probes' own time is taken out of the times they interrupt.
PROBE_STEPS = 400
PROBE_REFERENCE_S = 0.003
TICK_S = 0.1
WINDOW_S = 0.5  # probes this close to a timed span count toward its factor


class VerdictTimeout(BaseException):
    """Raised in the main thread when one verdict exceeds its time limit.
    A BaseException, so that no handler in the program swallows it."""


class HostSpeed:
    """Timer-driven probes of host speed, and the verdict time limit.

    While `ticking()`, SIGALRM fires every TICK_S; its handler times the
    probe and raises VerdictTimeout once `deadline` has passed."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.factors: list[float] = []
        self.spent = 0.0  # seconds spent in probes so far
        self.deadline: float | None = None
        # 8 MB, twice a core's L2: a probe also misses into the shared cache,
        # whose contention slows the program's set and dict lookups.
        self._heap = bytes(range(256)) * (1 << 15)

    def probe(self) -> None:
        start = time.perf_counter()
        table: dict = {}
        heap, stride = self._heap, len(self._heap) // PROBE_STEPS
        for i in range(PROBE_STEPS):
            key = frozenset((i % 13, i % 17, i % 19))
            table[key] = table.get(key, 0) + Fraction(i % 7 - 3, i % 5 + 1)
            table[key] += heap[(i * stride * 7919) % len(heap)]
        end = time.perf_counter()
        self.ends.append(end)
        self.factors.append((end - start) / PROBE_REFERENCE_S)
        self.spent += end - start

    def _tick(self, signum, frame) -> None:
        self.probe()
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.deadline = None
            raise VerdictTimeout()

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args, limit: float | None = None):
        """(result, seconds): fn's time without the probes inside it."""
        spent = self.spent
        start = time.perf_counter()
        self.deadline = None if limit is None else start + limit
        try:
            result = fn(*args)
        finally:
            self.deadline = None
        return result, start, time.perf_counter() - start - (self.spent - spent)

    def factor(self, start: float, end: float) -> float:
        """Median factor of the probes within WINDOW_S of [start, end]; the
        median, so that a probe the host stalled does not skew it."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        return statistics.median(self.factors[lo:hi] or self.factors[-1:])

    def median(self) -> float:
        return statistics.median(self.factors)


def tail(samples: list[float], highest: float) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile up to `highest`
    that has at least ten samples beyond it, by nearest rank."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        if p > highest:
            continue
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def run_loop(workload, seconds: float, speed: HostSpeed, count: int = 0,
             tracer=None) -> list:
    """Send items in order, whole rounds at a time, until `seconds` passed,
    or exactly `count` items when it is given.  Returns
    [(key, verdict or None, start, seconds)]."""
    results = []
    items = workload.items
    start = time.perf_counter()
    i = 0
    with speed.ticking():
        while True:
            key, payload = items[i % len(items)]
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    verdict, t0, dt = speed.timed(workload.verdict, payload,
                                                  limit=VERDICT_LIMIT_S)
                else:
                    with tracer.verdict(i, str(key)):
                        verdict, t0, dt = speed.timed(workload.verdict, payload,
                                                      limit=VERDICT_LIMIT_S)
            except VerdictTimeout:
                verdict, dt = None, time.perf_counter() - t0
            except Exception as exc:  # a failed item, reported and counted
                print(f"# {key}: {type(exc).__name__}: {exc}", file=sys.stderr)
                verdict, dt = None, time.perf_counter() - t0
            results.append((key, verdict, t0, dt))
            i += 1
            if count:
                if i == count:
                    break
            elif i % workload.round_size == 0 and time.perf_counter() - start >= seconds:
                break
        time.sleep(WINDOW_S)  # lets probes after the last item land
    return results


def normalized_times(results: list, speed: HostSpeed) -> list[float]:
    return [dt / speed.factor(t0, t0 + dt) for _, _, t0, dt in results]


def failures(workload, expected, results) -> int:
    return sum(
        1
        for key, verdict, _, _ in results
        if verdict is None or workload.digest_of(verdict) != expected[key]
    )


def timed_setup(workload, seed: int, repeats: int, speed: HostSpeed) -> float:
    """Median host-normalized set-up time over `repeats` set-ups."""
    times = []
    with speed.ticking():
        for _ in range(repeats):
            _, t0, dt = speed.timed(workload.setup, seed)
            times.append((t0, dt))
        time.sleep(WINDOW_S)
    return statistics.median(dt / speed.factor(t0, t0 + dt) for t0, dt in times)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def end_to_end(workload, args, results, failed: int, setup_s: float,
               speed: HostSpeed) -> None:
    times = normalized_times(results, speed)
    attempted = len(results)
    p, tail_s = tail(times, TAIL_PERCENTILE[workload.name])
    raw_s = sum(dt for _, _, _, dt in results)
    print(f"# {workload.name} seed={args.seed}: {attempted} verdicts in {raw_s:.3f} s "
          f"({sum(times):.3f} s normalized, host factor median {speed.median():.3f}), "
          f"failed_share={failed / attempted:.6f}, tail=p{p:g} of {len(times)} samples, "
          f"verdict limit {VERDICT_LIMIT_S} s")
    metrics = {
        "verdicts_per_s": {"value": (attempted - failed) / sum(times), "unit": "1/s"},
        "verdict_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "verdict_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "ok_share": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    print(result_line(failed == 0, attempted, failed, metrics))


def traced(workload, expected, args, untraced: list, speed: HostSpeed) -> None:
    """Set up and send the untraced run's items again, under the tracer, and
    report the per-layer metrics."""
    import workloads
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(args.seed)
        gc.collect()
        gc.freeze()
        tracer.phase = "verdicts"
        results = run_loop(workload, 0, speed, count=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
    failed = failures(workload, expected, untraced) + failures(workload, expected, results)
    attempted = len(untraced) + len(results)
    untraced_s = sum(normalized_times(untraced, speed))
    traced_s = sum(normalized_times(results, speed))
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    path = os.path.join(workloads.WORK_DIR, f"trace-{workload.name}-{args.seed}.json")
    tracer.dump(path, {"workload": workload.name, "seed": args.seed,
                       "untraced_s": untraced_s, "traced_s": traced_s})
    shares = ", ".join(f"{layer} {share:.0%}" for layer, share
                       in tracer.layer_shares("verdicts").items())
    print(f"# {workload.name} seed={args.seed}: {len(results)} verdicts, "
          f"{traced_s:.3f} s traced vs {untraced_s:.3f} s untraced (normalized); "
          f"verdict self time: {shares}; spans in {path}")
    metrics = tracer.layer_metrics(overhead_ratio=traced_s / untraced_s)
    print(result_line(failed == 0, attempted, failed, metrics))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the inputs (smoke test only)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            one = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
            status = status or subprocess.run(one).returncode
        return status

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(ROOT, "src", "moribound", "__init__.py")):
        print(f"error: no moribound sources under {ROOT}/src", file=sys.stderr)
        return 2
    speed = HostSpeed()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    with speed.ticking():
        workloads, t0, dt = speed.timed(importlib.import_module, "workloads")
        time.sleep(WINDOW_S)
    import_s = dt / speed.factor(t0, t0 + dt)

    workload = workloads.make(args.workload, tiny=args.tiny)
    expected = workloads.load_expected(workload.name)
    repeats = 1 if args.trace else SETUP_REPEATS[workload.name]
    setup_s = import_s + timed_setup(workload, args.seed, repeats, speed)
    # Set-up data is the harness's, not the program's: keep the collector
    # from walking it during the timed loop.
    gc.collect()
    gc.freeze()

    results = run_loop(workload, args.seconds, speed)
    failed = failures(workload, expected, results)
    if args.trace:
        traced(workload, expected, args, results, speed)
    else:
        end_to_end(workload, args, results, failed, setup_s, speed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
