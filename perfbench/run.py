"""Benchmark of coverage_inekf campaigns and its truncated-moment estimator.

Run from the repository root:

    python3 perfbench/run.py --workload mixture_coverage --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` prints the per-layer ones from a fixed
amount of traced work (spans are written to ``perfbench/out/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads; the campaigns are
# single-threaded Python loops over small matrices.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh processes timed for setup_s; the median is reported.  Each is
# scaled by the median of REFERENCE_PASSES reference passes on either side:
# one pass is too short to gauge the host over a 1.5 s start-up.
SETUP_REPEATS = 3
REFERENCE_PASSES = 3
SETUP_TIMEOUT_S = 120


def measure_setup(workload: str) -> float:
    """Median wall time of a fresh interpreter importing the package and
    making the workload's first call, scaled to nominal host speed by
    reference passes before and after each interpreter."""
    import calibrate

    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        f"import workloads; workloads.WORKLOADS[{workload!r}].first_call()"
    )
    times = []
    before = calibrate.reference_seconds(REFERENCE_PASSES)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
            cwd=ROOT,
        )
        wall = time.perf_counter() - t0
        after = calibrate.reference_seconds(REFERENCE_PASSES)
        times.append(wall / calibrate.slowdown(before, after))
        before = after
    return statistics.median(times)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coverage_inekf" / "__init__.py").is_file():
        sys.exit(f"coverage_inekf sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import coverage_inekf
    import workloads

    if not Path(coverage_inekf.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"coverage_inekf imported from {coverage_inekf.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    out = workloads.Outcome()

    if args.trace:
        dump = HERE / "out" / f"spans-{args.workload}-{args.seed}.npz"
        workload.traced(args.seed, out, dump)
        units = workloads.per_layer_units()
        # a layer or sweep the workload does not exercise reads 0
        metrics = {name: out.metrics.get(name, 0.0) for name in units}
    else:
        setup_s = measure_setup(args.workload)
        workload.untraced(args.seed, args.seconds, out)
        out.metrics["setup_s"] = setup_s
        out.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.metrics["ok_frac"] = 1.0 - out.failed / out.attempted
        units = workloads.END_TO_END
        metrics = {name: out.metrics[name] for name in units}

    unknown = set(out.metrics) - set(units)
    if unknown:
        sys.exit(f"metrics missing from the metric tables: {sorted(unknown)}")
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed}))
    for problem in out.problems:
        print(f"incorrect: {problem}")
    print(
        json.dumps(
            {
                "correct": out.correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
