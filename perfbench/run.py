"""The benchmark's one command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload.  Prints every metric by name with its
        unit, then (last line of stdout) the result object the driver reads.
    python3 perfbench/run.py [--seed N] [--repeat R] [--tiny] [--out FILE]
        The whole matrix: every workload untraced and traced, R times, each
        run in a process of its own; writes one results file.
    python3 perfbench/run.py --compare A.json B.json
        One row per (workload, end-to-end metric) of two results files.

``BENCHMARK.json`` at the root of the checkout is the single list of
workloads, metrics, units, directions and bounds; this program reads it
and refuses to report a metric it does not declare.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="128-bit keys, 16 rows: a smoke test, not a measurement")
    parser.add_argument("--repeat", type=int, default=1,
                        help="matrix mode: run the whole matrix this many times")
    parser.add_argument("--out", help="matrix mode: results file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--detail", help="also write this run's detail record here")
    parser.add_argument("--spans", help="traced run: dump every span here")
    args = parser.parse_args(argv)
    try:
        # Before anything imports the program: see bootstrap().
        perfbench.bootstrap()
        with open(perfbench.ROOT / "BENCHMARK.json") as handle:
            manifest = json.load(handle)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench import report

    if args.compare:
        return report.compare(*args.compare, manifest)
    if args.seconds is None:
        args.seconds = 1.0 if args.tiny else float(manifest["run_seconds"])
    if args.workload:
        if args.workload not in [w["name"] for w in manifest["workloads"]]:
            parser.error(f"unknown workload {args.workload!r}")
        from perfbench import driver

        return driver.run_once(args, manifest)
    if args.out is None:
        stem = "BENCH_tiny" if args.tiny else f"BENCH_{report.PR}"
        args.out = str(perfbench.BUILD_DIR / f"{stem}.json")
    return report.run_matrix(args, manifest, pathlib.Path(__file__).resolve())


if __name__ == "__main__":
    sys.exit(main())
