"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --rep I --trace 0|1 [--setup-only]

Run from the root of a checkout: the library is imported from ``src/``.
Sets up (import, input generation, warm-up), then runs the workload's
operations in a closed loop, one after the other, and checks every answer
after the timed region.  Prints one JSON object on its last stdout line.
With ``--trace 1`` a span is kept in memory around every call the benchmark
makes into the library and returned in that object; nothing inside the
library is instrumented.  The host probe (``probe.py``) runs during the
timed region.  Every time reported is on its clock, which leaves the probe
out; latencies are scaled, each by the probe's scale around it, and the
other times are reported unscaled with the repetition's ``scale``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


class Tracer:
    """Spans as [layer, tag, start_ns, end_ns]."""

    def __init__(self, clock_ns) -> None:
        self.clock_ns = clock_ns
        self.spans: list[list] = []

    def call(self, layer: str, tag: str, fn, *args):
        start = self.clock_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append([layer, tag, start, self.clock_ns()])


class NoTracer:
    spans = ()

    @staticmethod
    def call(layer: str, tag: str, fn, *args):
        return fn(*args)


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import stacksort

    if not os.path.abspath(stacksort.__file__).startswith(src + os.sep):
        print(f"stacksort imported from {stacksort.__file__}, not {src}", file=sys.stderr)
        return 2
    import probe
    import workloads

    wl = workloads.make(args.workload)
    wl.setup(args.seed, args.rep)
    wl.warm_up()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    host = probe.Probe()
    clock_ns = host.clock_ns
    tracer = Tracer(clock_ns) if args.trace else NoTracer()
    answers: list[object] = []
    bounds_ns: list[tuple[int, int]] = []
    errors: list[str] = []
    host.start()
    cpu0 = _cpu_s() - host.slice_ns / 1e9
    t0 = clock_ns()
    for op in wl.operations():
        a0 = clock_ns()
        try:
            answers.append(op.run(tracer.call))
        except Exception:
            errors.append(f"{op.name}: {traceback.format_exc()}")
            answers.append(None)
        bounds_ns.append((a0, clock_ns()))
    wall_s = (clock_ns() - t0) / 1e9
    cpu_s = _cpu_s() - host.slice_ns / 1e9 - cpu0
    host.stop()
    # each latency at the host speed measured around it
    latencies_ms = [(b - a) / 1e6 * host.local_scale(a, b) for a, b in bounds_ns]

    if not errors:
        errors = wl.check(answers)
    print(
        json.dumps(
            {
                "ready": ready,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "scale": host.scale(),
                "slice_s": host.mean_slice_s(),
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "latencies_ms": latencies_ms,
                "attempted": len(answers),
                "failed": len(errors),
                "errors": errors[:5],
                "counters": {} if errors else wl.counters(answers),
                "spans": tracer.spans,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
