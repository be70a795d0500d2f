"""Record the rates workload's excess risks for a range of seeds.

The benchmark reports `rates.excess_risk_max_rel_dev` against this file, so a
change that moves rate-study results beyond round-off shows in its output.
Regenerate it only on purpose, and say so where the change is recorded.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py FIRST_SEED LAST_SEED
"""

import json
import os
import sys

from speed import Clock
from workloads import RatesWorkload

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_rates.json")


def main(first, last):
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    clock = Clock()
    for seed in range(first, last + 1):
        result = RatesWorkload(seed).run_pass(clock)
        if result.failed:
            raise SystemExit(f"seed {seed}: {result.failed} rate cells failed")
        reference[str(seed)] = [row[6] for row in result.outputs]
        print(f"seed {seed}: {len(result.outputs)} cells", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(dict(sorted(reference.items(), key=lambda kv: int(kv[0]))), fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
