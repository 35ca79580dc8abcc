#!/usr/bin/env python3
"""Check self-test: every check must reject a perturbed output.

usage: python3 bench/selftest.py [--seed N] [WORKLOAD ...]

For each operation of each workload (all by default) this runs the call
once, confirms that its unperturbed output passes every check, then
feeds each check the perturbation paired with it (a distance shifted by
1e-6, mass moved between atoms, an atom pushed out of its bound, a digit
changed in a CLI output, ...). The named check must reject it, and a
timed round returning it must count the operation as failed. Exits 1
if any check lets its perturbation through.
"""

import argparse
import os
import shutil
import sys

import run  # pins the numeric thread pools before numpy is imported


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (run.SRC / "mdelab" / "__init__.py").is_file():
        print(f"error: no mdelab package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(run.SRC), str(run.BENCH)]
    import workloads

    scratch = run.OUT / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    problems = []
    verified = 0
    try:
        for name in args.workloads or sorted(workloads.WORKLOADS):
            ops = workloads.WORKLOADS[name](args.seed, scratch)
            _, raws = run.run_round(ops)
            ledger = run.Ledger(ops, raws, workloads.check)
            for i, op in enumerate(ops):
                where = f"{name}/{op.name}"
                if not ledger.ok[i]:
                    problems.append(f"{where}: unperturbed output fails")
                    continue
                if set(op.perturb) != set(op.checks):
                    problems.append(f"{where}: checks without perturbation")
                value = ledger.reference[i]
                for check_name, perturb in op.perturb.items():
                    bad = perturb(value)
                    prefix = f"{op.name}/{check_name}:"
                    caught = any(f.startswith(prefix)
                                 for f in workloads.check(op, bad))
                    round_raws = list(raws)
                    round_raws[i] = _as_raw(op, bad, scratch, workloads)
                    before = ledger.failed
                    ledger.record(round_raws)
                    counted = ledger.failed - before == 1
                    if bad == value or not caught or not counted:
                        problems.append(
                            f"{where}/{check_name}: perturbation changed="
                            f"{bad != value} caught={caught} "
                            f"counted={counted}")
                    else:
                        verified += 1
                        print(f"PASS {where}/{check_name}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in problems:
        print(f"FAIL {line}")
    print(f"{verified} checks reject their perturbation, "
          f"{len(problems)} problems")
    return 1 if problems else 0


def _as_raw(op, value, scratch, workloads):
    """What a call would have returned for this collected output."""
    if op.collect is workloads.read_output:
        path = scratch / f"perturbed-{op.name}"
        path.write_bytes(value)
        return path
    return value


if __name__ == "__main__":
    sys.exit(main())
