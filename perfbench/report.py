"""The whole matrix in one results file, and the comparison of two."""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys

import perfbench

SCHEMA = "perfbench/1"
PR = 12
#: Metadata two results files must share to be comparable.
COMPARABLE = ("backend", "key_bits", "seed", "cpu_count", "scale", "seconds", "sizes")


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=perfbench.ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(values: list) -> dict:
    """Median and quartiles of one metric's per-repeat values."""
    out = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def run_matrix(args, manifest, script: pathlib.Path) -> int:
    """Run every workload untraced and traced, ``args.repeat`` times, each
    as ``script --workload ...`` in a process of its own."""
    seconds = args.seconds
    detail_dir = perfbench.BUILD_DIR / "tmp"
    workloads_out: dict = {}
    failed = False
    meta: dict = {}
    for repeat in range(args.repeat):
        for entry in manifest["workloads"]:
            name = entry["name"]
            slot = workloads_out.setdefault(name, {"runs": []})
            for trace in (0, 1):
                detail_path = detail_dir / f"detail-{os.getpid()}-{name}-{trace}.json"
                command = [sys.executable, str(script),
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--detail", str(detail_path)]
                if args.tiny:
                    command.append("--tiny")
                print(f"[{repeat + 1}/{args.repeat}] {name} trace={trace}", file=sys.stderr)
                done = subprocess.run(command, stdout=subprocess.DEVNULL)
                if not detail_path.exists():
                    print(f"run failed without a result: {' '.join(command)}", file=sys.stderr)
                    return 1
                with open(detail_path) as handle:
                    detail = json.load(handle)
                detail_path.unlink()
                failed = failed or done.returncode != 0 or not detail["result"]["correct"]
                meta.setdefault("backend", detail["backend"])
                meta.setdefault("scale", detail["scale"])
                slot.setdefault("sizes", detail["sizes"])
                slot["runs"].append({
                    "trace": trace, "wall_s": detail["wall_s"], "run_s": detail["run_s"],
                    "samples": detail["samples"], "attempted": detail["attempted"],
                    "failed": detail["failed"], "problems": detail["problems"],
                    "metrics": {k: v["value"] for k, v in detail["result"]["metrics"].items()},
                })
    for name, slot in workloads_out.items():
        for trace, key, declared in ((0, "end_to_end", manifest["end_to_end"]),
                                     (1, "per_layer", manifest["per_layer"])):
            runs = [run for run in slot["runs"] if run["trace"] == trace]
            slot[key] = {
                m["name"]: {"unit": m["unit"],
                            **summarize([run["metrics"][m["name"]] for run in runs])}
                for m in declared
            }
    first = next(iter(workloads_out.values()))
    report = {
        "schema": SCHEMA,
        "pr": PR,
        "claim": None,
        "meta": {
            "cpu_count": os.cpu_count(),
            "backend": meta["backend"],
            "key_bits": first["sizes"]["key_bits"],
            "python": platform.python_version(),
            "git_sha": _git_sha(),
            "seed": args.seed,
            "seconds": seconds,
            "repeat": args.repeat,
            "scale": meta["scale"],
            "sizes": {name: slot["sizes"] for name, slot in workloads_out.items()},
        },
        "workloads": workloads_out,
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for name, slot in workloads_out.items():
        for metric, summary in slot["end_to_end"].items():
            print(f"{name:18s} {metric:20s} {summary['median']:14.4f} {summary['unit']}")
    print(f"wrote {out}", file=sys.stderr)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Comparing two results files.
# ----------------------------------------------------------------------


def _spread(summary: dict):
    """Interquartile range as a share of the median; ``None`` when the
    file holds too few repeats to tell."""
    if len(summary["values"]) < 3 or not summary["median"]:
        return None
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def compare(path_a: str, path_b: str, manifest) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    differing = [key for key in COMPARABLE if a["meta"].get(key) != b["meta"].get(key)]
    if differing:
        print(f"refusing to compare: {', '.join(differing)} differ between "
              f"{path_a} and {path_b}", file=sys.stderr)
        return 2
    regressed = False
    print(f"{'workload':18s} {'metric':18s} {'A median':>14s} {'B median':>14s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    for entry in manifest["workloads"]:
        name = entry["name"]
        for metric in manifest["end_to_end"]:
            sa = a["workloads"][name]["end_to_end"][metric["name"]]
            sb = b["workloads"][name]["end_to_end"][metric["name"]]
            base = sa["median"]
            ratio = sb["median"] / base if base else math.nan
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            spreads = (_spread(sa), _spread(sb))
            if None in spreads or max(spreads) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            print(f"{name:18s} {metric['name']:18s} {sa['median']:14.4f} {sb['median']:14.4f} "
                  f"{ratio:8.3f} {metric['bound']:6.2f}  {verdict}"
                  f"  (ratio base: A = {base:.4f} {metric['unit']})")
    return 1 if regressed else 0
