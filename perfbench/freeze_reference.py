"""Write reference.json: exact outputs of every item at the reference seed.

    python3 perfbench/freeze_reference.py

Run it only when a change of results is intended and explained; the
benchmark fails any run at the reference seed whose outputs differ.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    frozen = {}
    for name in workloads.WORKLOADS:
        items = workloads.build_items(name, workloads.REFERENCE_SEED)
        for item, res in zip(items, workloads.run_pass(items, time.perf_counter)):
            if res.error is not None:
                return 1
            problems = workloads.check_item(item, res.output, None)
            if problems:
                print(f"{item.name}: {problems}", file=sys.stderr)
                return 1
            frozen[item.name] = workloads.digest(item, res.output)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
