"""divcert's benchmark: four workloads, one closed-loop client, no threads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; divcert is imported from `src/` as Tier-1
does (pure-Python matching kernel unless a compiled one was built in place).

* certify_n64    `divcert certify` in-process on spread pairs of exactly 64
                 slots: the peel and its matchings dominate.
* certify_mixed  the same op over pairs of 1 to 32 slots in fixed
                 proportions, one in ten of them rejected (exit 1): per-call
                 overhead and the reject path show.
* compare        dominance, risk and transport queries on arbitrary pairs: no
                 peel and no verify, so certificate work should not move it.
* audit          parse and verify bundles that `divcert certify` wrote, a
                 quarter of them tampered with: the verifiers and the parser
                 without the construction.

With `--trace 0` a run times ops for `--seconds` and prints ops_per_s,
op_p50_ms, op_p90_ms (at 100 ops or more), setup_s (the import of divcert plus
input generation, each the mean of several repeats), peak_rss_mb and
error_rate.  Times are in reference seconds: wall seconds scaled by the host's
speed, measured with a fixed kernel between ops (see `Clock`); the wall-clock
figures are printed beside them.  With `--trace 1` it runs a fixed
list of ops twice, untraced and then with every layer wrapped (see
tracing.py), and prints the per-layer metrics, exact counts and the tracing
overhead.  Every op's output is checked (workloads.py); a sha256 digest covers
every certify bundle byte and every compare and audit verdict.  The last line
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibration import REFERENCE_KERNEL_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: After one untimed set-up, a run repeats it until SETUP_MIN_S wall seconds
#: have passed, calibrating CALIBRATION_PASSES times before each and as it
#: goes (`workloads.pause`).  It times `import divcert.cli` in IMPORT_PROBES
#: fresh interpreters, each calibrating CALIBRATION_PASSES times on either
#: side of its imports.
SETUP_MIN_S = 2.0
IMPORT_PROBES = 10
CALIBRATION_PASSES = 5

#: ops per second on a 2-core x86-64 box with the pure-Python kernel; a traced
#: run's fixed op list is sized from these so each of its passes takes about
#: half of --seconds.  Constants, so that the list, its counts and its digest
#: depend on the seed and --seconds only.
NOMINAL_OPS_PER_S = {"certify_n64": 1.4, "certify_mixed": 40, "compare": 700, "audit": 80}

#: op_n buckets for the traced run's histogram
BUCKETS = [(1, 8), (9, 16), (17, 32), (33, 64), (65, None)]

#: Share of a timed run's or a set-up's wall time spent calibrating.
CALIBRATION_SHARE = 0.1


class Clock:
    """Wall time converted to reference seconds.

    On a shared host the CPU speed a process gets flips between about one
    and two times a base rate every few tens of milliseconds, and drifts by a
    third from one minute to the next, which moves every wall-clock figure
    whatever the program does.  So the timed loop runs `calibration_kernel`
    between ops, CALIBRATION_SHARE of the time, and an op's wall time is
    scaled by REFERENCE_KERNEL_S over the mean time of the passes next to it
    (those it was owed on either side, and at least one each side): the op's
    time on a machine running at the reference speed.  Sums over a run
    average out what this misses.  The kernel is the benchmark's own code, so
    a change to the program moves the op times and not the scale.
    """

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0  # wall seconds inside `sample`
        self.start = time.perf_counter()

    def sample(self, passes: int = 1) -> None:
        t0 = time.perf_counter()
        for _ in range(passes):
            self.times.append(time.perf_counter())
            self.kernel_s.append(calibrate())
        self.spent += time.perf_counter() - t0

    def tick(self) -> None:
        """Calibrate until CALIBRATION_SHARE of the clock's life was spent so."""
        while self.spent < CALIBRATION_SHARE * (time.perf_counter() - self.start):
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per wall second over [t0, t1], from the passes
        within the calibration time it was owed on either side, and at least
        the one just before and the one just after it."""
        owed = (t1 - t0) * CALIBRATION_SHARE / (1 - CALIBRATION_SHARE)
        lo = min(bisect.bisect_left(self.times, t0 - owed),
                 max(0, bisect.bisect_left(self.times, t0) - 1))
        hi = max(bisect.bisect_right(self.times, t1 + owed), bisect.bisect_right(self.times, t1) + 1)
        return REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s[lo:hi])

    def pooled(self, walls: list[float]) -> float:
        """The mean of `walls`, wall seconds of work repeated between
        calibration passes, in reference seconds at the mean speed of every
        pass so far: the speed flips too fast to be caught around one
        repeat, but not around many."""
        return statistics.fmean(walls) * REFERENCE_KERNEL_S / trimmed_mean(self.kernel_s)


def trimmed_mean(values: list[float]) -> float:
    """Mean without the largest and smallest tenth (at least one of each
    from five values on): a kernel pass that a page fault or another
    process stalls must not set the scale."""
    values = sorted(values)
    cut = max(len(values) // 10, 1) if len(values) >= 5 else 0
    return statistics.fmean(values[cut:len(values) - cut])


IMPORT_PROBE = """
import sys, time
passes = int(sys.argv[1])
sys.path[:0] = sys.argv[2:]
from calibration import calibrate
kernel = [calibrate() for _ in range(passes)]
t0 = time.perf_counter()
import divcert.cli
import workloads
wall = time.perf_counter() - t0
kernel += [calibrate() for _ in range(passes)]
print(repr(wall), *map(repr, kernel))
"""


def import_seconds() -> float:
    """Reference seconds that `import divcert.cli` and the benchmark's
    workloads take in a fresh interpreter: the mean of IMPORT_PROBES child
    processes, each timing its own imports and calibrating itself around
    them (a child may not run at the speed its parent sees)."""
    walls, kernel_s = [], []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(CALIBRATION_PASSES),
                                os.path.join(ROOT, "src"), HERE], cwd=ROOT, capture_output=True,
                               text=True, timeout=60, check=True)
        wall, *kernel = map(float, probe.stdout.split())
        walls.append(wall)
        kernel_s += kernel
    return statistics.fmean(walls) * REFERENCE_KERNEL_S / trimmed_mean(kernel_s)


def environment() -> dict:
    from divcert import matching

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "backend": matching.active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def measure(ops, seconds=None, count=None, tracer=None, clock=None) -> dict:
    """Run ops in a closed loop, cycling through the list, for `seconds` of
    wall time or exactly `count` ops; time each call and check its output.
    With a clock, calibrate between ops and report durations in reference
    seconds too."""
    durations, starts, sizes, failures = [], [], [], []
    digest = hashlib.sha256()
    start = time.perf_counter()
    i = 0
    while i == 0 or (i < count if count is not None else time.perf_counter() - start < seconds):
        op = ops[i % len(ops)]
        i += 1
        if clock is not None:
            clock.tick()
        if tracer is not None:
            tracer.start_op()
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a crashing op is a failed op, not a failed run
            result = exc
        durations.append(time.perf_counter() - t0)
        starts.append(t0)
        if tracer is not None:
            tracer.end_op()
        sizes.append(op.n)
        try:
            if isinstance(result, Exception):
                raise result
            digest.update(op.check(result))
        except Exception as exc:
            failures.append(f"op {i - 1}: {type(exc).__name__}: {exc}")
    run = {"durations": durations, "sizes": sizes, "failures": failures,
           "digest": digest.hexdigest()}
    if clock is not None:
        clock.sample()
        run["reference"] = [d * clock.scale(t0, t0 + d) for t0, d in zip(starts, durations)]
    return run


def end_to_end(run: dict, setup_s: float) -> tuple[dict, list[str]]:
    """The gated metrics, in reference seconds, and the printed-only lines,
    wall-clock figures among them."""
    durations = run["reference"]
    wall = run["durations"]
    attempted = len(durations)
    failed = len(run["failures"])
    metrics = {
        "ops_per_s": {"value": (attempted - failed) / sum(durations), "unit": "1/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(durations), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    if attempted >= 100:
        p90 = f"{1000 * statistics.quantiles(durations, n=10)[-1]!r} ms"
    else:
        p90 = f"n/a ({attempted} ops; p90 needs 100)"
    lines = [f"op_p90_ms {p90}",
             f"error_rate {failed / attempted!r} ({failed} of {attempted} ops failed)",
             f"wall ops_per_s={(attempted - failed) / sum(wall)!r} "
             f"op_p50_ms={1000 * statistics.median(wall)!r} "
             f"speed={sum(durations) / sum(wall)!r} (reference seconds per wall second)"]
    return metrics, lines


def histogram(sizes: list[int]) -> dict:
    counts = {}
    for lo, hi in BUCKETS:
        label = f"{lo}-{hi}" if hi else f"{lo}+"
        counts[label] = sum(1 for n in sizes if n >= lo and (hi is None or n <= hi))
    return counts


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float,
                 make_ops=None) -> dict:
    """One workload's result; import_s is in reference seconds."""
    import tracing
    import workloads

    make_ops = make_ops or workloads.WORKLOADS[name]
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(HERE, ".work"))
    try:
        # the first set-up grows the heap and is not timed; a traced run
        # needs no other
        ops = make_ops(seed, workdir)
        clock = Clock()
        walls = []
        start = time.perf_counter()
        pause, workloads.pause = workloads.pause, clock.tick
        try:
            while not trace and (not walls or time.perf_counter() - start < SETUP_MIN_S):
                ops = None  # each set-up starts from the same heap
                clock.sample(CALIBRATION_PASSES)
                t0, spent = time.perf_counter(), clock.spent
                ops = make_ops(seed, workdir)
                walls.append(time.perf_counter() - t0 - (clock.spent - spent))
        finally:
            workloads.pause = pause
        workloads.write_inputs(ops)
        # the op list is the benchmark's, not the program's: keep it out of
        # the collections that run inside timed ops
        gc.collect()
        gc.freeze()
        if not trace:
            clock.sample(CALIBRATION_PASSES)
            inputs_s = clock.pooled(walls)
            run = measure(ops, seconds=seconds, clock=clock)
            metrics, lines = end_to_end(run, import_s + inputs_s)
            lines.append(f"setup import_s={import_s!r} inputs_s={inputs_s!r} (reference "
                         f"seconds; {len(walls)} set-ups, wall "
                         f"{' '.join(f'{w:.4f}' for w in walls)})")
            runs = [run]
        else:
            count = max(1, round(seconds * NOMINAL_OPS_PER_S[name] / 2))
            plain = measure(ops, count=count)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(ops, count=count, tracer=tracer)
            finally:
                tracer.uninstall()
            runs = [plain, traced]
            metrics = tracing.per_layer(tracer)
            base, with_trace = sum(plain["durations"]), sum(traced["durations"])
            sizes = traced["sizes"]
            lines = [
                f"trace ops={count} untraced_s={base!r} traced_s={with_trace!r} "
                f"overhead_s={with_trace - base!r} ({100 * (with_trace - base) / base:.1f} %)",
                f"op_n_histogram {json.dumps(histogram(sizes))}",
                "op_n_share " + json.dumps({k: v / len(sizes)
                                            for k, v in histogram(sizes).items()}),
            ]
            if plain["digest"] != traced["digest"]:
                traced["failures"].append("outputs differ between the untraced and traced pass")
        failures = [f for run in runs for f in run["failures"]]
        return {
            "workload": name,
            "attempted": sum(len(run["durations"]) for run in runs),
            "failed": len(failures),
            "failures": failures,
            "metrics": metrics,
            "lines": lines + [f"digest sha256:{runs[-1]['digest']} over "
                              f"{len(runs[-1]['durations'])} ops"],
        }
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)


def report(res: dict, seed: int, seconds: float, trace: bool) -> dict:
    print("run " + json.dumps({"workload": res["workload"], "seed": seed,
                               "seconds": seconds, "trace": int(trace)}))
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for line in res["lines"]:
        print(line)
    for failure in res["failures"][:5]:
        print(f"{res['workload']}: {failure}", file=sys.stderr)
    return {"correct": not res["failures"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": res["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="divcert benchmark")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))

    try:
        import divcert.cli as cli
        import workloads
    except ImportError as exc:
        print(f"error: cannot import divcert from {os.path.join(ROOT, 'src')}: {exc}",
              file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src", "")
    if not cli.__file__.startswith(src):
        print(f"error: divcert was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    import_s = 0.0 if args.trace else import_seconds()
    results = [report(run_workload(name, args.seed, args.seconds, bool(args.trace), import_s),
                      args.seed, args.seconds, bool(args.trace))
               for name in names]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        for name, res in zip(names, results):
            print(f"result {name} " + json.dumps(res))
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{name}.{k}": v for name, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
