"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads fit-256 train-240 --seeds 1 2 3 \
        --out perfbench/results/summary.json

Runs perfbench/run.py once per (workload, seed), one at a time, with the
run length and metric bounds from BENCHMARK.json. For every metric it
reports the median, the quartiles and their distance as a share of the
median (statistics.quantiles, n=4), and flags spreads above a third of the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    record = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    result["environment"] = json.loads(record.read_text())["environment"]
    return result


def summarise(values: list[float]) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2 and out["median"]:
        out["spread"] = quartile_spread(values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {}
        units = {}
        env = None
        walls = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: {json.dumps(result)[:500]}")
            env = result["environment"]
            walls.append(result["wall_s"])
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        env.pop("seed", None)
        rows = {name: {"unit": units[name], **summarise(vals)} for name, vals in per_metric.items()}
        summary["workloads"][workload] = {"environment": env, "run_wall_s": walls, "metrics": rows}
        print(f"\n{workload}: runs took {min(walls):.1f}-{max(walls):.1f} s")
        for name, row in rows.items():
            bound = bounds.get(name)
            spread = row.get("spread")
            flag = ""
            if bound is not None and spread is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound" if spread <= bound else "  <-- ABOVE BOUND"
            spread_text = f"{spread:8.4f}" if spread is not None else "       -"
            print(f"  {name:32s} median {row['median']:14.6f} {row['unit']:6s} "
                  f"spread {spread_text} bound {bound}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
