"""Run the benchmark once per seed and summarize each end-to-end metric.

    python3 perfbench/repeat.py --workload gaussian_baseline --seeds 101-110 --seconds 30

Runs are made one after another from the repository root.  For each metric
it prints the median, the quartiles and the spread (q3 - q1) / median, the
figure the benchmark's bounds apply to.  ``--json`` writes the summary and
the raw values to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": round(spread, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        values = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    names = results[0]["metrics"]
    summary = {
        "correct": all(r["correct"] for r in results),
        "metrics": {
            name: {
                **summarize([r["metrics"][name]["value"] for r in results]),
                "values": [r["metrics"][name]["value"] for r in results],
            }
            for name in names
        },
    }
    for name, s in summary["metrics"].items():
        print(f"{name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
