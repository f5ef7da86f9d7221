"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/measure_baseline.py --seeds 1-10 [--workloads belief,baselines]
        [--out perfbench/baseline.json]

For every workload and metric it prints the median, the quartiles and
the spread (interquartile distance over the median) next to the bound
from BENCHMARK.json, and with ``--out`` writes them as JSON.  Runs are
sequential, one seed after another.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        provenance = None
        seeds = _seeds(args.seeds)
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            provenance = json.loads(lines[-2])["provenance"]
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            latest = {k: round(v[-1], 4) for k, v in values.items()}
            print(workload, seed, latest, flush=True)
        rows = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals
            }
            print(f"  {workload:9s} {name:15s} median {med:10.4f}  spread {spread:.4f}"
                  f"  bound {bounds[name]}")
        summary["workloads"][workload] = {
            "seeds": seeds,
            "metrics": rows,
            "provenance": {
                k: v for k, v in provenance.items() if k not in ("seed", "passes")
            },
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
