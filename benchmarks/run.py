"""End-to-end benchmark of bgwkem, with a traced per-layer run.

Run from the repository root:

    python3 benchmarks/run.py --workload kem-curve160 --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times, runs the output checks
and a second of untimed warm-up round trips, then runs closed-loop round
trips for ``--seconds`` and reports the end-to-end metrics. ``--trace 1``
reports the per-layer metrics instead: the ladder sweep, then for every
workload the checks, the warm-up, and an untraced and a traced slice of
``--seconds / 6`` each (see README.md for why every workload). The last
line of stdout is one JSON object; the lines before it are the same
metrics for people.
"""

import argparse
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was

LADDER_MIN_SECONDS = 0.1
MIN_TAIL_SAMPLES = 10
# Untimed round trips before each timed loop: the first ops of a process
# run up to twice as slow and would otherwise be most of the tail.
WARMUP_SECONDS = 1.0


def _import_program():
    """Import bgwkem from ./src of the checkout, or exit with status 1."""
    src = Path.cwd() / "src"
    if not (src / "bgwkem" / "__init__.py").is_file():
        sys.exit("error: src/bgwkem not found; run from the repository root")
    sys.path.insert(0, str(src))
    import bgwkem
    if src.resolve() not in Path(bgwkem.__file__).resolve().parents:
        sys.exit(f"error: imported bgwkem from {bgwkem.__file__}, not from {src}")


class Loop:
    """Closed-loop round trips of one workload for a fixed time."""

    def __init__(self, workload, state, rng, seconds, span):
        self.send_ns, self.recv_ns = [], []
        self.attempted = self.failed = 0
        start = time.perf_counter()
        deadline = start + seconds
        while self.attempted == 0 or time.perf_counter() < deadline:
            self.attempted += 1
            try:
                send, recv, ok = workload.op(rng, state, span)
            except Exception:  # a failed op is counted, and the loop goes on
                if not self.failed:
                    traceback.print_exc(file=sys.stderr)
                ok = False
            if ok:
                self.send_ns.append(send)
                self.recv_ns.append(recv)
            else:
                self.failed += 1
                print(f"op {self.attempted} failed", file=sys.stderr)
        self.elapsed = time.perf_counter() - start

    @property
    def rate(self) -> float:
        return self.attempted / self.elapsed


def _tail(samples):
    """The highest-ranked sample with at least MIN_TAIL_SAMPLES above it,
    but never below the median; returns (value, percentile)."""
    xs = sorted(samples)
    k = max(len(xs) - MIN_TAIL_SAMPLES - 1, len(xs) // 2)
    return xs[k], 100 * (k + 1) / len(xs)


def untraced_run(name, seed, seconds, workdir):
    from workloads import WORKLOADS, no_span, run_checks

    rng = random.Random(f"{seed}:{name}")
    workload = WORKLOADS[name](rng, workdir)
    setup_s = []
    for _ in range(workload.setup_reps):
        t0 = time.perf_counter()
        state = workload.setup(rng, no_span)
        setup_s.append(time.perf_counter() - t0)
    failures = run_checks(workload, state, rng)
    warmup = Loop(workload, state, rng, WARMUP_SECONDS, no_span)
    loop = Loop(workload, state, rng, seconds, no_span)
    payload_mib = workload.payload_bytes(state) / (1 << 20)

    metrics, notes = {}, {}
    metrics["setup_s"] = (statistics.median(setup_s), "s")
    for label, samples in (("send_ms", loop.send_ns), ("recv_ms", loop.recv_ns)):
        if not samples:
            continue
        metrics[f"{label}.p50"] = (statistics.median(samples) / 1e6, "ms")
        value, pct = _tail(samples)
        metrics[f"{label}.tail"] = (value / 1e6, "ms")
        notes[f"{label}.tail"] = f"p{pct:.1f} of {len(samples)} samples"
    if loop.send_ns:
        metrics["seal_MiBps"] = (payload_mib / (metrics["send_ms.p50"][0] / 1e3), "MiB/s")
        metrics["open_MiBps"] = (payload_mib / (metrics["recv_ms.p50"][0] / 1e3), "MiB/s")
    metrics["roundtrips_per_s"] = (len(loop.send_ns) / loop.elapsed, "1/s")
    metrics["peak_rss_MiB"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    metrics["ops_attempted"] = (loop.attempted, "count")
    notes["setup_s"] = f"median of {len(setup_s)} set-ups"
    return (metrics, notes, warmup.attempted + loop.attempted,
            warmup.failed + loop.failed, failures)


def traced_run(seed, seconds, workdir):
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, ladder_sweep, no_span, run_checks

    ladder = ladder_sweep(random.Random(f"{seed}:ladder"), LADDER_MIN_SECONDS)
    metrics = {name: (value, "ms") for name, value in ladder.items()}
    attempted = failed = 0
    failures = []
    slice_s = seconds / (2 * len(WORKLOADS))
    for name, cls in WORKLOADS.items():
        rng = random.Random(f"{seed}:{name}:trace")
        workload = cls(rng, workdir)
        state = workload.setup(rng, no_span)
        failures += run_checks(workload, state, rng)
        warmup = Loop(workload, state, rng, WARMUP_SECONDS, no_span)
        plain = Loop(workload, state, rng, slice_s, no_span)
        tracer = Tracer()
        with tracer.installed():
            state = workload.setup(rng, tracer.span)
            traced = Loop(workload, state, rng, slice_s, tracer.span)
        metrics.update(layer_metrics(name, tracer, traced.attempted,
                                     workload.payload_bytes(state)))
        metrics[f"trace.overhead.{name}"] = (traced.rate / plain.rate, "ratio")
        attempted += warmup.attempted + plain.attempted + traced.attempted
        failed += warmup.failed + plain.failed + traced.failed
    return metrics, {}, attempted, failed, failures


def main(argv=None) -> int:
    _import_program()
    from workloads import CHECKS, WORKLOADS, check_ladder

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    check_ladder()
    workroot = Path.cwd() / ".bench-work"
    workroot.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workroot)
    try:
        if args.trace:
            result = traced_run(args.seed, args.seconds, workdir)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)
        if not any(workroot.iterdir()):
            workroot.rmdir()
    metrics, notes, ops, ops_failed, check_failures = result

    for message in check_failures:
        print(f"check failed: {message}", file=sys.stderr)
    attempted = ops + CHECKS * (len(WORKLOADS) if args.trace else 1)
    failed = ops_failed + len(check_failures)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} round_trips={ops} failed={failed}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:14.6f} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
