"""Command line of the benchmark.

``python3 -m bench``
    the five workloads one after another, each in a fresh subprocess;
``python3 -m bench --workload W --seed N --seconds S --trace 0|1``
    one run in this process (what the driver calls); every metric is
    printed by name with its unit and the last line is the result JSON;
``python3 -m bench --repeat N --out F``
    N rounds of runs with seeds ``--seed``, ``--seed + 1``, ..., one JSON
    line per run appended to F with the machine's fingerprint;
``python3 -m bench --compare A [B] [--raw]``
    the agreement table of two result files (or of A's two halves);
    exit 1 unless every row is ok.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Optional, Sequence

import bench
from bench import BenchError, metrics, workloads
from bench.measure import RunResult


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out", metavar="PATH", help="write the traced run's spans here"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny instances (self-check only)"
    )
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument(
        "--out", metavar="F", help="append one JSON line per run to F"
    )
    parser.add_argument("--compare", nargs="+", metavar="FILE")
    parser.add_argument(
        "--raw",
        action="store_true",
        help="--compare the un-normalised series instead",
    )
    return parser


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = bench.PACKAGE_DIR.parent / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "calibrate_sha256": bench.calibrate_sha256(),
    }


def run_one(args: argparse.Namespace) -> RunResult:
    """One run of one workload in this process."""
    bench.check_calibrate_pin()
    bench.ensure_repro_importable()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    if workloads.BY_NAME[args.workload].kind == "engine":
        from bench import engine as runner
    else:
        from bench import serve as runner
    return runner.run(
        args.workload,
        sizes,
        args.seed,
        args.seconds,
        bool(args.trace),
        trace_out=args.trace_out,
    )


def report(args: argparse.Namespace, result: RunResult) -> None:
    """Every metric by name with its unit, then the result line."""
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} {json.dumps(result.info, sort_keys=True)}"
    )
    for name, value in result.metrics.items():
        print(f"{name:<40} {value:>16.6f} {metrics.UNITS[name]}")
    for problem in result.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "sizes": "smoke" if args.smoke else "full",
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": result.metrics,
            "raw": result.raw,
            "info": result.info,
            "fingerprint": fingerprint(),
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in result.metrics.items()
                },
            }
        )
    )


def run_many(args: argparse.Namespace) -> int:
    """Each run in a fresh subprocess, so no run inherits a heap, a warm
    cache or a peak RSS from the one before."""
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (str(bench.PACKAGE_DIR.parent), env.get("PYTHONPATH"))
        if part
    )
    status = 0
    for repeat in range(args.repeat):
        for name in names:
            command = [sys.executable, "-m", "bench", "--workload", name]
            command += ["--seed", str(args.seed + repeat)]
            command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.smoke:
                command.append("--smoke")
            if args.out:
                command += ["--out", args.out]
            status = max(status, subprocess.run(command, env=env).returncode)
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        from bench.compare import compare

        if len(args.compare) > 2:
            raise SystemExit("--compare takes one or two files")
        table, all_ok = compare(
            args.compare[0],
            args.compare[1] if len(args.compare) == 2 else None,
            args.raw,
        )
        print(table)
        return 0 if all_ok else 1
    if args.workload is None or args.repeat > 1:
        return run_many(args)
    try:
        result = run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(args, result)
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
