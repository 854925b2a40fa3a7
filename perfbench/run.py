"""The repository benchmark: one command, every end-to-end metric, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload onchain-exact --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats whole passes of the workload (set-up, rounds,
settlement, audit), at least twice and then while another fits in
``--seconds``, with no probes installed, and reports the end-to-end metrics
in reference seconds (see ``speed.py``) next to the raw wall times.  ``--trace 1`` runs one plain pass and
one traced pass of the same seed and reports the per-layer metrics of
``probes.PER_LAYER`` plus the tracing overhead.  Either way every pass is
checked (see ``workloads.py``), a table of the metrics with units and sample
counts is printed, and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads are single-process and serial by design, and a
# second thread would measure the machine's scheduler rather than the program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
#: Set-ups are also timed on their own before the passes, at least twice and
#: for at least this long, so ``setup_s`` is a median of several samples even
#: when only one or two passes fit in a run.
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPEATS = 25
#: Audits of each pass's final chain; ``audit_s`` is the median of all of them.
AUDIT_REPEATS = 5
#: Passes run even past ``--seconds``, so the slowest workload (about 20 s a
#: pass) still takes the median round of six, not three.
MIN_PASSES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(rows, correct: bool, attempted: int, failed: int, digests: list[str], workload: str, seed: int) -> None:
    width = max(len(name) for name, *_ in rows)
    for name, value, unit, samples in rows:
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} n={samples}")
    for digest in sorted(set(digests)):
        print(f"head {workload} seed {seed}: {digest}")
    # A phase that a failure kept from running has no value; JSON has no NaN.
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, value, unit, _ in rows
        },
    }))


def _measure(workload, seed: int, seconds: float, scratch: Path):
    """Untraced set-ups and passes (see the module doc); returns the end-to-end rows."""
    from speed import Speedometer
    from workloads import now, scratch_directory

    began = now()
    setups = []
    passes = []
    with Speedometer() as speedometer:
        while len(setups) < 2 or (
            now() - began < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPEATS
        ):
            with scratch_directory(scratch) as scratch_dir:
                setups.append(workload.setup_only(seed, scratch_dir))
        while True:
            started = now()
            with scratch_directory(scratch) as scratch_dir:
                record = workload.run_pass(seed, scratch_dir, audits=AUDIT_REPEATS)
            passes.append(record)
            if len(passes) == 1:
                # Memory of one pass: later passes would add the allocator's
                # retained arenas, and their number depends on the clock.
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if record.error or record.failed:
                break
            # Past the minimum, start a pass only if it should end in time.
            if len(passes) >= MIN_PASSES and now() - began + (now() - started) > seconds:
                break
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = [p.digest for p in passes if p.digest]
    if len(passes) > 1:
        # Every pass of one seed must reproduce the first pass's head.
        attempted += len(passes) - 1
        failed += sum(1 for digest in digests[1:] if digest != digests[0]) + len(passes) - len(digests)
    for record in passes:
        if record.error:
            print(f"pass failed: {record.error}", file=sys.stderr)
    setups += [p.setup for p in passes if p.setup]
    rounds = [interval for p in passes for interval in p.rounds]
    audits = [interval for p in passes for interval in p.audits]
    updates = sum(sum(p.round_updates) for p in passes)
    print(f"ops_failed_frac {failed / attempted:.6g} (failed {failed} of {attempted} operations)")

    def times(clock):
        setup = [clock(i) for i in setups]
        round_ = [clock(i) for i in rounds]
        audit = [clock(i) for i in audits]
        nan = float("nan")
        return [
            ("setup_s", statistics.median(setup) if setup else nan, "s", len(setup)),
            ("round_s.p50", statistics.median(round_) if round_ else nan, "s", len(round_)),
            ("round_s.max", max(round_) if round_ else nan, "s", len(round_)),
            ("updates_per_s", updates / sum(round_) if round_ else nan, "1/s", len(round_)),
            ("audit_s", statistics.median(audit) if audit else nan, "s", len(audit)),
        ]

    for name, value, unit, samples in times(speedometer.wall):
        print(f"wall {name} {value:.6g} {unit} n={samples}")
    return times(speedometer.seconds) + [("peak_rss_mb", peak_mb, "MB", 1)], attempted, failed, digests


def _trace(workload, seed: int, scratch: Path):
    """One plain pass, then one traced pass of the same seed; per-layer rows.

    The timer-driven calibration would run inside the spans, so the core's
    speed is sampled between the passes instead, which still removes the
    minutes-scale drift from ``trace.overhead_frac``.
    """
    import probes
    from speed import kernel_seconds
    from tracer import Tracer
    from workloads import scratch_directory

    speed = [kernel_seconds()]
    with scratch_directory(scratch) as scratch_dir:
        plain = workload.run_pass(seed, scratch_dir)
    speed.append(kernel_seconds())
    tracer = Tracer()
    probes.install(tracer)
    with scratch_directory(scratch) as scratch_dir:
        traced = workload.run_pass(seed, scratch_dir, tracer)
    tracer.unpatch()
    speed.append(kernel_seconds())
    checks = {
        "traced head equals plain head": bool(plain.digest) and plain.digest == traced.digest,
        "every wrapper removed": not tracer.leftovers(),
        "span tree well formed": not tracer.violations(),
    }
    for name, passed in checks.items():
        if not passed:
            print(f"check failed: {name}", file=sys.stderr)
    for record in (plain, traced):
        if record.error:
            print(f"pass failed: {record.error}", file=sys.stderr)
    attempted = plain.attempted + traced.attempted + len(checks)
    failed = plain.failed + traced.failed + sum(1 for passed in checks.values() if not passed)
    wall = [r.wall[1] - r.wall[0] if r.wall else float("nan") for r in (plain, traced)]
    overhead = (wall[1] / (speed[1] + speed[2])) / (wall[0] / (speed[0] + speed[1])) - 1.0
    values = probes.layer_metrics(tracer, traced.public, overhead)
    rows = [(name, values[name], unit, 1) for name, unit, _ in probes.PER_LAYER]
    return rows, attempted, failed, [d for d in (plain.digest, traced.digest) if d]


def main(argv=None) -> int:
    args = _parse(argv)
    # One core for the whole run: a single-threaded process that migrates
    # between cores of different speed reads as noise, not as the program.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(CHECKOUT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program from {CHECKOUT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if CHECKOUT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"error: imported the program from {repro.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = CHECKOUT / ".perfbench-tmp"
    if args.trace:
        rows, attempted, failed, digests = _trace(workload, args.seed, scratch)
    else:
        rows, attempted, failed, digests = _measure(workload, args.seed, args.seconds, scratch)
    try:
        scratch.rmdir()
    except OSError:
        pass
    _report(rows, failed == 0, attempted, failed, digests, workload.name, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
