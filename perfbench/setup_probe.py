"""Set-up probe: import epipower and resolve one workload's config and grids.

``run.py`` times this script in fresh interpreters to measure ``setup_s``:

    python3 perfbench/setup_probe.py --workload belief --seed 42
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    items = workloads.build_items(args.workload, args.seed)
    return 0 if items else 1


if __name__ == "__main__":
    sys.exit(main())
