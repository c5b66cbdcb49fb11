"""Compare two checkouts on one benchmark workload in alternating pairs:

    python scripts/bench_pairs.py BASE_DIR HEAD_DIR --workload W --pairs N \\
        --seconds S [--first-seed K] [--json PATH]

Pair i runs each checkout's own ``perfbench/run.py --trace 0`` once, with
seed K + i on both sides, the base first in even pairs and the head first
in odd ones; one process runs at a time.  It prints every pair's
end-to-end metrics, each side's median and quartiles, and then the
verdicts of the rules for a speed claim:

* the claim on ``ops_per_s`` is met when the head wins at least 9 in 10
  of the pairs (ties count for neither side) and its median beats the
  base's by more than the base's interquartile range;
* every other metric passes when the head's median is no worse than the
  base's by more than its bound in the base's ``BENCHMARK.json``.  It is
  unresolved when the base's own interquartile range, relative to its
  median, is wider than the bound, unless every head run is better than
  every base run.

A run that exits non-zero or reports ``correct: false`` stops the script.
With ``--json PATH`` it also writes what it printed, and every pair's
values, to PATH as one JSON object (:func:`record`).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CLAIMED = "ops_per_s"
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a: float, b: float, higher: bool) -> bool:
    """Whether ``a`` is strictly better than ``b``."""
    return a > b if higher else a < b


def claim_verdict(base: list[float], head: list[float], higher: bool = True) -> dict:
    """The verdict on a claimed gain from paired runs ``base[i]``,
    ``head[i]``: the head's wins, the median gap in the better direction,
    the base's interquartile range, and whether the claim is met."""
    if len(base) != len(head) or len(base) < 2:
        raise ValueError("need two or more pairs, the same number on each side")
    wins = sum(better(h, b, higher) for b, h in zip(base, head))
    q1, base_median, q3 = quartiles(base)
    gap = statistics.median(head) - base_median
    gap = gap if higher else -gap
    met = wins >= WIN_SHARE * len(base) and gap > q3 - q1
    return {"wins": wins, "pairs": len(base), "gap": gap, "iqr": q3 - q1, "met": met}


def bound_verdict(base: list[float], head: list[float], bound: float, higher: bool) -> dict:
    """Whether the head's median is worse than the base's by more than
    ``bound`` (relative to the base's median), or unresolved because the
    base's relative interquartile range exceeds the bound while some head
    run is no better than some base run."""
    q1, base_median, q3 = quartiles(base)
    head_median = statistics.median(head)
    worse = (base_median - head_median) if higher else (head_median - base_median)
    worse = worse / abs(base_median) if base_median else 0.0
    spread = (q3 - q1) / abs(base_median) if base_median else 0.0
    clear = all(better(h, b, higher) for h in head for b in base)
    if worse > bound:
        status = "WORSE beyond bound"
    elif spread > bound and not clear:
        status = "unresolved"
    else:
        status = "within bound"
    return {"worse": worse, "spread": spread, "status": status}


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of ``checkout``; its last output line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: run.py exited {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["correct"] is not True:
        sys.exit(f"{checkout}: seed {seed} incorrect\n{done.stdout}")
    return result


def record(workload: str, seconds: float, first_seed: int, runs: dict, metrics: dict) -> dict:
    """The whole result of paired runs as one JSON-ready dict.

    ``runs`` maps "base" and "head" to their run outputs in pair order,
    ``metrics`` the end-to-end metrics' names to their ``BENCHMARK.json``
    entries.  It holds every pair's seed, which side ran first and both
    sides' metric values; for each metric, each side's quartiles, the
    head's wins and the bound verdict, and for ``CLAIMED`` the claim
    verdict; and each side's failed and attempted operations.
    """
    pairs = [
        {
            "seed": first_seed + i,
            "first": "base" if i % 2 == 0 else "head",
            **{
                side: {name: runs[side][i]["metrics"][name]["value"] for name in metrics}
                for side in ("base", "head")
            },
        }
        for i in range(len(runs["base"]))
    ]
    summary = {}
    for name, m in metrics.items():
        higher = m["better"] == "higher"
        base, head = ([p[side][name] for p in pairs] for side in ("base", "head"))
        entry = {
            "better": m["better"],
            "bound": m["bound"],
            "base_quartiles": quartiles(base),
            "head_quartiles": quartiles(head),
            "head_wins": sum(better(h, b, higher) for b, h in zip(base, head)),
            "bound_verdict": bound_verdict(base, head, m["bound"], higher),
        }
        if name == CLAIMED:
            entry["claim"] = claim_verdict(base, head, higher)
        summary[name] = entry
    operations = {
        side: {key: sum(r[key] for r in runs[side]) for key in ("failed", "attempted")}
        for side in ("base", "head")
    }
    return {
        "workload": workload,
        "seconds": seconds,
        "pairs": pairs,
        "metrics": summary,
        "operations": operations,
    }


def report(rec: dict) -> list[str]:
    """The printed summary and verdicts of a :func:`record`."""
    n = len(rec["pairs"])
    lines = [f"{rec['workload']}, {n} pairs of {rec['seconds']:g} s, base/head:"]
    for name, e in rec["metrics"].items():
        cells = []
        for side in ("base", "head"):
            q1, q2, q3 = e[f"{side}_quartiles"]
            cells.append(f"{side} median {q2:.6g} (quartiles {q1:.6g}-{q3:.6g})")
        wins = f"; head better in {e['head_wins']} of {n}"
        lines.append(f"  {name:<12} " + "; ".join(cells) + wins)
    for side, ops in rec["operations"].items():
        lines.append(f"  {side} failed {ops['failed']} of {ops['attempted']} operations")
    lines += ["", "verdict:"]
    for name, e in rec["metrics"].items():
        if "claim" in e:
            v = e["claim"]
            lines.append(
                f"  claim {name}: {'met' if v['met'] else 'NOT met'} (head wins "
                f"{v['wins']} of {v['pairs']}, needs {WIN_SHARE * v['pairs']:g}; median gap "
                f"{v['gap']:.6g} against the base's IQR {v['iqr']:.6g})"
            )
        v = e["bound_verdict"]
        way = "worse" if v["worse"] > 0 else "better"
        change = f"{way} by {100 * abs(v['worse']):.2f} %" if v["worse"] else "unchanged"
        lines.append(
            f"  {name:<12} {v['status']}: head median {change} (bound "
            f"{100 * e['bound']:g} %, base spread {100 * v['spread']:.2f} %)"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write the record to this file")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sides = {"base": args.base, "head": args.head}
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run(sides[side], args.workload, seed, args.seconds))
        cells = []
        for name in metrics:
            b, h = (runs[s][-1]["metrics"][name]["value"] for s in ("base", "head"))
            cells.append(f"{name} {b:.6g}/{h:.6g}")
        print(f"pair {i + 1} seed {seed} {order[0]} first: " + "  ".join(cells), flush=True)

    rec = record(args.workload, args.seconds, args.first_seed, runs, metrics)
    print("\n" + "\n".join(report(rec)))
    if args.json is not None:
        args.json.write_text(json.dumps(rec, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
