"""Repeat the benchmark over two sets of seeds and summarise each metric.

For every workload this runs ``run.py`` in a fresh process, one run at a
time: RUNS seeds from each first seed in SETS, then one traced run.  Per
set and end-to-end metric it reports the median, the quartiles and the
spread (interquartile distance over the median) next to the bound in
BENCHMARK.json, and how much worse the second set's median is than the
first's.  Each run keeps its scaled and unscaled metrics and the host
slowdown it measured.  Usage::

    python3 bench/record.py --out bench/baseline.json

Exit status 1 means a run failed or reported wrong output, a spread
other than that of ``setup_s`` reached a third of its bound, or the
second set's median was worse than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Runs per set, and the first seed of each set.
RUNS = 10
SETS = (1, 1001)

#: Seed of the traced run of each workload.
TRACE_SEED = 0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    summary, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return summary, result, elapsed


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def run_set(name: str, first_seed: int, run_seconds: int, bounds: dict) -> tuple[dict, bool]:
    """RUNS untraced runs of one workload from consecutive seeds."""
    ok = True
    values: dict[str, list[float]] = {}
    runs = []
    for seed in range(first_seed, first_seed + RUNS):
        summary, result, elapsed = run_once(name, seed, run_seconds, 0)
        ok = ok and result["correct"]
        for metric, entry in result["metrics"].items():
            values.setdefault(metric, []).append(entry["value"])
        runs.append({"seed": seed, "wall_s": round(elapsed, 1),
                     "commands": summary["commands"], "correct": result["correct"],
                     "output_sha256_first_100": summary["output_sha256_first_100"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                     "unscaled": summary["unscaled"],
                     "host_slowdown": summary["host_slowdown"]})
        print(f"{name} seed {seed}: {elapsed:.1f} s, {summary['commands']} commands, "
              f"correct={result['correct']}", file=sys.stderr)
    metrics = {}
    for metric, vals in values.items():
        entry = spread(vals)
        entry["bound"] = bounds[metric]
        metrics[metric] = entry
        if metric != "setup_s" and entry["spread"] >= bounds[metric] / 3:
            ok = False
        print(f"  {metric}: median {entry['median']:.4g}, spread {entry['spread']:.3f}"
              f" (bound {bounds[metric]})", file=sys.stderr)
    return {"first_seed": first_seed, "metrics": metrics, "runs": runs}, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    ok = True
    report: dict = {
        "machine": {"python": platform.python_version(), "machine": platform.machine(),
                    "processor": _cpu_model()},
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        sets = []
        for first_seed in SETS:
            result, set_ok = run_set(name, first_seed, bench["run_seconds"], bounds)
            sets.append(result)
            ok = ok and set_ok
        agreement = {}
        for metric, bound in bounds.items():
            first, second = (s["metrics"][metric]["median"] for s in sets)
            worse = (second - first if lower[metric] else first - second) / first
            agreement[metric] = {"second_worse_by": worse, "bound": bound}
            ok = ok and worse <= bound
        summary, result, elapsed = run_once(name, TRACE_SEED, bench["run_seconds"], 1)
        ok = ok and result["correct"]
        report["workloads"][name] = {
            "sets": sets,
            "agreement": agreement,
            "trace": {
                "seed": TRACE_SEED,
                "wall_s": round(elapsed, 1),
                "correct": result["correct"],
                "missing": summary["trace_missing"],
                "self_time_split": summary["self_time_split"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            },
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
