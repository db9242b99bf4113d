"""Benchmark of the stacksort library.

    python3 perfbench/run.py --workload enumerate|verify|queries --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of a workload runs in a
fresh process (``worker.py``), so the library's in-process caches start cold
as they do for a command-line user.  Repetitions follow one another until
the next one, if it took their median time, would end after ``--seconds``;
at least one runs, and with ``--trace 1`` at least one traced and one
untraced.  Set-up is measured in every repetition and in SETUP_SAMPLES
extra processes that only set up, half of them before the repetitions and
half after.

Every time but set-up is scaled to the host's usual speed (see
``probe.py``): a latency by the scale the host probe measured around it, a
repetition's other times by the scale over the repetition.  Set-up time
follows the probe too loosely to gain from it (their correlation was 0.46,
and scaling widened its spread from 0.09 to 0.13 of the median).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer ones, derived from the
spans of the traced repetitions, which are also written to
``.bench_trace/<workload>-seed<N>.json``.  The exit code is 1 when any
answer is wrong or a repetition fails, 2 when the checkout has no library.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("enumerate", "verify", "queries")
SETUP_SAMPLES = 6
RUN_LIMIT_S = 170  # a run must end within 180 s

# (layer, tags): each gets .calls, .busy_s, .p50_us and .p99_us per tag.
TIMED_LAYERS = (
    ("enumeration.count_sortable", ("k3", "k4")),
    ("enumeration.sorted_profile", ("k3", "k4")),
    ("machine.machine_output", ("k3", "k4")),
    ("machine.stack_pass_traced", ("k3", "k4")),
    ("machine.is_sortable", ("k3", "k4")),
    ("perms.contains", ("k3", "k4", "k5")),
    ("bivincular.contains_bivincular", ("fishburn",)),
    ("bivincular.contains_anchored_132", ("",)),
    ("classify.classification_row", ("",)),
)
# Called once per repetition: busy time only.
BUSY_LAYERS = (
    "verify.verify_theorems",
    "verify.verify_tables",
    "verify.verify_conjectures",
    "conjectures.equidistribution_report",
)
SUFFIX_UNITS = (("calls", "count"), ("busy_s", "s"), ("p50_us", "us"), ("p99_us", "us"))


class RepFailed(Exception):
    pass


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spawn(root: str, args: argparse.Namespace, rep: int, traced: bool, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--rep", str(rep), "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the worker imports the library from src/ only
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition {rep} killed after the run limit") from None
    if proc.returncode != 0:
        raise RepFailed(f"repetition {rep} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["span_s"] = time.monotonic() - start
    result["traced"] = traced
    return result


def end_to_end(reps: list[dict], setups: list[float]) -> dict[str, tuple[float, str]]:
    """Each figure of a repetition, scaled, then the median over
    repetitions, so that a run's figures do not depend on how many
    repetitions it made.  Set-up is the median over all set-ups."""

    def median(figure) -> float:
        return statistics.median(figure(r) for r in reps)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median(lambda r: r["wall_s"] * r["scale"]), "s"),
        "throughput_rps": (median(lambda r: r["attempted"] / (r["wall_s"] * r["scale"])), "1/s"),
        "latency_p50_ms": (median(lambda r: percentile(r["latencies_ms"], 50)), "ms"),
        "latency_p99_ms": (median(lambda r: percentile(r["latencies_ms"], 99)), "ms"),
        "peak_rss_mb": (median(lambda r: r["rss_mb"]), "MB"),
    }


def per_layer(reps: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, on every workload: a function the workload
    never calls reads 0 calls and 0 time, and a counter of another
    workload reads 0.  Times are scaled by each repetition's scale."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    durations: dict[str, list[float]] = {}
    for r in traced:
        for layer, tag, start, end in r["spans"]:
            key = f"{layer}.{tag}" if tag else layer
            durations.setdefault(key, []).append((end - start) / 1e3 * r["scale"])
    out: dict[str, tuple[float, str]] = {}
    for layer, tags in TIMED_LAYERS:
        for tag in tags:
            key = f"{layer}.{tag}" if tag else layer
            us = durations.get(key, [])
            stats = (
                len(us) / len(traced),
                sum(us) / 1e6 / len(traced),
                statistics.median(us) if us else 0.0,
                percentile(us, 99) if us else 0.0,
            )
            for (suffix, unit), value in zip(SUFFIX_UNITS, stats):
                out[f"{key}.{suffix}"] = (value, unit)
    for layer in BUSY_LAYERS:
        out[f"{layer}.busy_s"] = (sum(durations.get(layer, [])) / 1e6 / len(traced), "s")
    counters: dict[str, int] = {}
    for r in reps:
        for name, value in r["counters"].items():
            counters[name] = counters.get(name, 0) + value
    for name in ("enumeration.count_sortable.leaves", "enumeration.sorted_profile.outputs"):
        out[name] = (counters.get(name, 0) / len(reps), "count")
    checked = counters.get("is_sortable.calls", 0)
    out["machine.is_sortable.accept_ratio"] = (
        counters.get("is_sortable.accepted", 0) / checked if checked else 0.0, "ratio")
    out["process.cpu_s"] = (statistics.median(r["cpu_s"] * r["scale"] for r in plain), "s")
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] * r["scale"] for r in traced)
        / statistics.median(r["wall_s"] * r["scale"] for r in plain), "ratio")
    out["trace.spans"] = (sum(len(r["spans"]) for r in traced) / len(traced), "count")
    out["host.slice_ms"] = (statistics.median(r["slice_s"] for r in reps) * 1e3, "ms")
    return out


def write_trace(root: str, args: argparse.Namespace, reps: list[dict]) -> None:
    os.makedirs(os.path.join(root, ".bench_trace"), exist_ok=True)
    path = os.path.join(root, ".bench_trace", f"{args.workload}-seed{args.seed}.json")
    fields = ["layer", "tag", "start_ns", "end_ns"]
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "fields": fields,
                   "repetitions": [r["spans"] for r in reps if r["traced"]]}, f)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stacksort", "__init__.py")):
        print("run from the root of a stacksort checkout: src/stacksort is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S

    def set_up(count: int) -> list[float]:
        return [spawn(root, args, 0, False, True, deadline)["setup_s"] for _ in range(count)]

    reps: list[dict] = []
    setups: list[float] = []
    failures: list[str] = []
    try:
        # The first set-up compiles bytecode and warms the file cache; not counted.
        spawn(root, args, 0, False, True, deadline)
        setups = set_up(SETUP_SAMPLES // 2)
        begin = time.monotonic()
        while True:
            i = len(reps)
            traced = bool(args.trace) and i % 2 == 1
            # a traced repetition serves the same inputs as the untraced one before it
            reps.append(spawn(root, args, i // 2 if args.trace else i, traced, False, deadline))
            setups.append(reps[-1]["setup_s"])
            # the median, as one request of queries can take half a minute
            typical = statistics.median(r["span_s"] for r in reps)
            if len(reps) >= 1 + args.trace and time.monotonic() - begin + typical > args.seconds:
                break
        # the rest after the repetitions, so that a burst of load on the
        # machine does not meet every sample
        setups += set_up(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except RepFailed as exc:
        failures.append(str(exc))

    attempted = sum(r["attempted"] for r in reps) + len(failures)
    failed = sum(r["failed"] for r in reps) + len(failures)
    for msg in failures + [e for r in reps for e in r["errors"]]:
        print(msg, file=sys.stderr)
    metrics = {}
    if reps and not failures:
        if args.trace:
            metrics = per_layer(reps)
            write_trace(root, args, reps)
        else:
            metrics = end_to_end(reps, setups)
    print(f"{args.workload}: {len(reps)} repetitions, {attempted} operations, "
          f"{sum(len(r['latencies_ms']) for r in reps)} latency samples; "
          f"unscaled wall_s {[round(r['wall_s'], 3) for r in reps]}, "
          f"scale {[round(r['scale'], 3) for r in reps]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
