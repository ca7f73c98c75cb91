"""Benchmark for tlurkit.  Run from the repository root:

    python3 perfbench/run.py --workload fig1_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process per workload.  It imports tlurkit from ./src, builds the
workload's inputs from --seed, then repeats whole rounds of operations until
--seconds have passed, checks every output against computations of its own
(checks.py) and prints, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run is traced (tracing.py), the
metrics are the per-layer ones and the spans go to perfbench/out/traces/.
See perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
NAMES = ("fig1_sweep", "example2_bisect", "cli_batch")
SETUP_PROBES = 12  # extra set-ups in fresh processes; setup_s is the median of 1 + these
UNITS = {"ops_per_s": "1/s", "op_ms_p90": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}


def import_tlurkit(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tlurkit", "__init__.py")):
        sys.exit(f"perfbench: no tlurkit source under {src}; run from the repository root")
    sys.path.insert(0, src)
    import tlurkit
    import tlurkit.cli  # noqa: F401  (the cli module is not imported by the package)

    if not os.path.abspath(tlurkit.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported tlurkit from {tlurkit.__file__}, not from {src}")
    return tlurkit


def setup(name: str, seed: int, workdir: str):
    """Import tlurkit and build the inputs; returns (tlurkit, workload, seconds)."""
    t0 = time.perf_counter()
    tk = import_tlurkit(os.getcwd())
    import workloads

    wl = workloads.WORKLOADS[name](tk, seed, workdir)
    return tk, wl, time.perf_counter() - t0


def measure(wl, seconds: float, tracer=None, max_rounds=None, after_op=None):
    """Whole rounds of operations until ``seconds`` have passed.

    Each output is checked as soon as it is collected, outside the op's
    timer, and then dropped: the run keeps only op times and failure
    messages, so its memory does not grow with the number of operations.
    ``after_op(elapsed)`` runs between operations; its own time does not
    count towards ``seconds``, so it does not change how many rounds run.
    """
    times, fails, failed, rounds, paused = [], [], 0, 0, 0.0
    start = time.perf_counter()
    while True:
        for i in range(wl.round_size):
            if tracer is not None:
                tracer.op = len(times)
            t = time.perf_counter()
            try:
                raw = wl.op(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                times.append(time.perf_counter() - t)
                failed += 1
                print(f"perfbench: op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            times.append(time.perf_counter() - t)
            fails += wl.check([(i, wl.collect(i, raw))])
            if after_op is not None:
                t = time.perf_counter()
                after_op(t - start - paused)
                paused += time.perf_counter() - t
        rounds += 1
        if time.perf_counter() - start - paused >= seconds or rounds == max_rounds:
            break
    return {"wall": time.perf_counter() - start, "times": times, "fails": fails,
            "failed": failed, "rounds": rounds}


class SetupProbes:
    """Set-ups timed in fresh processes, spread over the timed loop.

    One probe runs between operations each time the loop passes another
    ``seconds / SETUP_PROBES`` mark, so the probes sample the host over the
    whole run rather than in one burst; ``finish`` runs any left over.
    """

    def __init__(self, name: str, seed: int, seconds: float):
        self.argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                     "--seed", str(seed), "--setup-only"]
        self.step = seconds / SETUP_PROBES
        self.times = []

    def _probe(self):
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120,
                              check=True)
        self.times.append(float(proc.stdout.split()[-1]))

    def __call__(self, elapsed: float):
        if len(self.times) < SETUP_PROBES and elapsed >= self.step * (len(self.times) + 1):
            self._probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return self.times


def peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.  ``ru_maxrss`` is not
    used where /proc is readable: Linux carries it over an exec from the
    forking parent, so a large parent would set the figure."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def deciles_ms(times) -> list[float]:
    return [1e3 * t for t in (statistics.quantiles(times, n=10) if len(times) > 1
                              else times * 9)]


def end_to_end(run, setups) -> dict:
    """The gated metrics.  Throughput is over the time spent inside
    operations, so checks and set-up probes between them do not count.  The
    10th and 50th percentile op times are only printed: on a host whose
    speed switches between two states they jump between them from run to
    run (see README)."""
    times = run["times"]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p90": deciles_ms(times)[-1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    os.environ.pop("TLURKIT_THREADS", None)  # the sweeps use the default worker count
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        tk, wl, setup_s = setup(name, seed, workdir)
        tracer = probes = None
        if trace:
            import tracing

            tracer = tracing.Tracer(tk)
            tracer.install()
        else:
            probes = SetupProbes(name, seed, seconds)
        try:
            run = measure(wl, seconds, tracer, after_op=probes)
        finally:
            if tracer is not None:
                tracer.uninstall()
        run["peak_rss_kb"] = peak_rss_kb()
        fails = run["fails"]
        for msg in fails[:20]:
            print(f"perfbench: check failed: {msg}", file=sys.stderr)
        info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                "rounds": run["rounds"], "ops": len(run["times"]), "wall_s": run["wall"],
                "op_ms_p10": deciles_ms(run["times"])[0],
                "op_ms_p50": 1e3 * statistics.median(run["times"]),
                "records_per_op": wl.records_per_op,
                "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
                "numpy": sys.modules["numpy"].__version__,
                "check_failures": len(fails), **wl.summary()}
        if trace:
            metrics = tracer.layer_metrics(len(run["times"]))
            units = {k: "count" if k.endswith("_op") or k.endswith("_bisection") else "ms"
                     for k in metrics}
            os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
            tracer.write(os.path.join(OUT, "traces", f"{name}-seed{seed}.json"), info)
        else:
            metrics = end_to_end(run, [setup_s] + probes.finish())
            units = UNITS
        print("info " + json.dumps(info))
        print(json.dumps({
            "correct": not fails,
            "attempted": len(run["times"]),
            "failed": run["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0 if not fails else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one result line per workload."""
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"{name} {lines[-1] if lines else '{}'}")
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used to take the median)")
    parser.add_argument("--inputs", action="store_true",
                        help="print the inputs made from --seed as JSON and exit")
    args = parser.parse_args(argv)
    # One BLAS thread, so that a sweep's threads are its nproc workers and no
    # BLAS pool competes with them; the matrices here are at most 16x16.
    # Every figure is measured at this setting, and setup_s leaves out the
    # BLAS pool start-up, which made it swing by 2x.  Revisit when the
    # sweeps move to large stacked arrays.  Set before numpy is imported,
    # and inherited by the set-up probes.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if (args.inputs or args.setup_only) and args.workload == "all":
        parser.error("--inputs and --setup-only take a single workload")
    if args.inputs or args.setup_only:  # set-up writes nothing to its work directory
        _, wl, seconds = setup(args.workload, args.seed, OUT)
        print(json.dumps(wl.describe(), indent=1) if args.inputs else seconds)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
