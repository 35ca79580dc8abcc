#!/usr/bin/env python3
"""Benchmark of mdelab: one workload, one seed, checked outputs.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mdelab is imported from its src/. The
workload's round (a fixed list of calls, see workloads.py) runs once to
warm up, its outputs are checked, then rounds repeat for S seconds and
every round's outputs are compared with the checked ones. The last line
of standard output is one JSON object: correct, attempted, failed and
the metrics. With --trace 0 these are the end-to-end metrics; with
--trace 1 the rounds alternate untraced and traced (see tracing.py) and
the metrics are the per-layer figures, medians over the traced rounds.
Progress notes go to standard error.
"""

import os

# One thread for the benchmark's own numerics, set before numpy is
# imported: OpenBLAS would otherwise start a worker per CPU at import.
# MDE_LAB_THREADS is left unset so the program's default applies.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MDE_LAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3     # setups per run; setup_s is their median
PROBE_TIMEOUT_S = 120


def process_age() -> float:
    """Seconds since this process was created, from /proc/self/stat."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def os_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Raised:
    """Stands for the return value of a call that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def run_round(ops) -> tuple[float, list]:
    """One timed pass over ops; returns its wall time and the raw results."""
    raws = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            raws.append(op.call())
        except Exception as exc:  # a call that raises is a failed operation
            raws.append(Raised(exc))
    return time.perf_counter() - t0, raws


class Ledger:
    """Checked reference outputs, and the failed-operation count."""

    def __init__(self, ops, raws, check):
        self.ops = ops
        self.reference = []
        self.ok = []
        self.attempted = 0
        self.failed = 0
        for op, raw in zip(ops, raws):
            if isinstance(raw, Raised):
                self._report(op, raw)
                self.reference.append(None)
                self.ok.append(False)
                continue
            value = op.collect(raw)
            failures = check(op, value)
            for message in failures:
                print(f"check failed: {message}", file=sys.stderr)
            self.reference.append(value)
            self.ok.append(not failures)

    @staticmethod
    def _report(op, raw: Raised) -> None:
        print(f"{op.name} raised:", file=sys.stderr)
        traceback.print_exception(raw.exc, file=sys.stderr)

    def record(self, raws) -> None:
        """Count a timed round: an operation fails if it raised, if its
        warm-up output failed a check, or if its output differs from the
        checked warm-up output."""
        for i, (op, raw) in enumerate(zip(self.ops, raws)):
            self.attempted += 1
            if isinstance(raw, Raised):
                self.failed += 1
                if self.ok[i]:
                    self._report(op, raw)
                    self.ok[i] = False
            elif not self.ok[i]:
                self.failed += 1
            elif op.collect(raw) != self.reference[i]:
                print(f"{op.name}: output differs from the warm-up round",
                      file=sys.stderr)
                self.failed += 1


def setup_probe(args) -> float:
    """Set up in a fresh process and return its setup time."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for group in ("end_to_end", "per_layer") for m in spec[group]}


def emit(ledger: Ledger, values: dict[str, float], units: dict[str, str]):
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


def timed_rounds(args, ops, ledger) -> list[float]:
    times = []
    start = time.perf_counter()
    while True:
        elapsed, raws = run_round(ops)
        times.append(elapsed)
        ledger.record(raws)
        if time.perf_counter() - start >= args.seconds:
            return times


def traced_rounds(args, ops, ledger):
    """Alternate untraced and traced rounds for the run's duration."""
    from tracing import COUNT_METRICS, SELF_TIME_METRICS, Tracer
    tracer = Tracer()
    untraced, traced, figures = [], [], []
    start = time.perf_counter()
    while True:
        elapsed, raws = run_round(ops)
        untraced.append(elapsed)
        ledger.record(raws)
        tracer.take_round()
        try:
            tracer.install()
            elapsed, raws = run_round(ops)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        figures.append(tracer.take_round())
        ledger.record(raws)
        if time.perf_counter() - start >= args.seconds:
            break
    # counts repeat exactly from round to round; median_low keeps them whole
    values = {k: statistics.median_low(f[k] for f in figures)
              for k in COUNT_METRICS}
    values.update({k: statistics.median(f[k] for f in figures)
                   for k in SELF_TIME_METRICS})
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))
    round_s = statistics.median(traced)
    shares = {k: values[k] / round_s for k in SELF_TIME_METRICS}
    shares["outside_layers"] = 1.0 - statistics.median(
        f["instrumented_s"] for f in figures) / round_s
    tracer.write(OUT / f"spans-{args.workload}.json",
                 {"workload": args.workload, "seed": args.seed,
                  "traced_rounds": len(traced),
                  "untraced_round_p50_s": statistics.median(untraced),
                  "traced_round_p50_s": round_s,
                  "self_time_share": shares})
    print("self-time share of a traced round: " + ", ".join(
        f"{k} {v:.3f}" for k, v in shares.items()), file=sys.stderr)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mdelab" / "__init__.py").is_file():
        print(f"error: no mdelab package under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import mdelab
    if pathlib.Path(mdelab.__file__).resolve().parent != SRC / "mdelab":
        print(f"error: imported mdelab from {mdelab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = OUT / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, scratch)
        _, warm = run_round(ops)
        setup_s = process_age()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        units = load_units()
        ledger = Ledger(ops, warm, workloads.check)
        if args.trace:
            values = traced_rounds(args, ops, ledger)
        else:
            times = timed_rounds(args, ops, ledger)
            threads = os_threads()
            peak_rss_mib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setups = [setup_s] + [setup_probe(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
            values = {"setup_s": statistics.median(setups),
                      "round_p50_s": statistics.median(times),
                      "peak_rss_mib": peak_rss_mib}
            p90 = (f", p90 {statistics.quantiles(times, n=10)[-1]:.4f} s"
                   if len(times) >= 2 else "")
            print(f"{len(times)} rounds of {len(ops)} operations, median "
                  f"{values['round_p50_s']:.4f} s{p90}; setups "
                  f"{[round(s, 3) for s in setups]} s; {threads} OS threads",
                  file=sys.stderr)
        emit(ledger, values, units)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
