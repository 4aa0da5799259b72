"""Check that per-layer call counts repeat exactly across traced runs.

    python3 bench/same_counts.py

Reads ``.bench_results/results.jsonl`` and, for every workload with at least
two traced runs of the same sources, compares the ``*.calls`` metrics of its
last two runs.  Exits 1 if any count differs, so count-based claims can rely
on the counts being exact.
"""

import json
import sys

from run import RESULTS


def main():
    runs = {}
    with open(RESULTS / "results.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] and record["correct"]:
                key = (record["workload"], record["env"]["src_sha256"])
                runs.setdefault(key, []).append(record)
    status = 0
    for (workload, _), records in sorted(runs.items()):
        if len(records) < 2:
            continue
        a, b = records[-2], records[-1]
        calls = sorted(k for k in a["metrics"] if k.endswith(".calls"))
        differ = [k for k in calls if a["metrics"][k] != b["metrics"].get(k)]
        seeds = f"seeds {a['seed']} and {b['seed']}"
        if differ:
            status = 1
            for k in differ:
                print(f"{workload}: {k} differs ({seeds}): {a['metrics'][k]} vs {b['metrics'].get(k)}")
        else:
            total = sum(a["metrics"][k] for k in calls)
            print(f"{workload}: all {len(calls)} call counts equal ({seeds}; {total} calls)")
    return status


if __name__ == "__main__":
    sys.exit(main())
