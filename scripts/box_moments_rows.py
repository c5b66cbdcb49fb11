"""Print one line per seeded ``box_moments`` problem, with ``float.hex`` of
its mass, mean and second moment and its ``degenerate`` flag, so that two
source trees can be compared bit for bit:

    PYTHONPATH=<tree>/src python scripts/box_moments_rows.py <tree>/src

3000 problems on 3-D boxes, the only dimension ``BoxRegion`` accepts:
correlated covariances at scales 1e-3 to 1e3, finite, half-open and open
faces, and boxes far in a tail so that the degenerate branch runs too.
Line k is ``3 k`` and the row of the problem drawn from
``default_rng([3, k])``, so the first 1000 lines are the 3-D lines of the
script's earlier form, which also ran d = 1 and 2.  The script uses only
``box_moments`` and ``BoxRegion``, so it runs on older trees too, and it
refuses to run on a package imported from outside the tree it is given.
"""

import sys
from pathlib import Path

import numpy as np

from coverage_inekf import tmvn
from coverage_inekf.tmvn import BoxRegion, box_moments

PROBLEMS = 3000


def problem(rng):
    """A seeded 3-D (mean, cov, box)."""
    d = 3
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    a = rng.standard_normal((d, d))
    cov = scale * (a @ a.T + 0.1 * np.eye(d))
    sd = np.sqrt(np.diag(cov))
    mean = sd * rng.standard_normal(d)
    if rng.random() < 0.1:
        # far in one tail: mostly below the mass floor
        centre = mean + sd * rng.choice([-1.0, 1.0], d) * rng.uniform(6.0, 12.0, d)
    else:
        centre = mean + sd * rng.uniform(-2.0, 2.0, d)
    half = sd * 10.0 ** rng.uniform(-2.0, 0.7, d)
    lower, upper = centre - half, centre + half
    # each face open with probability 0.2, so half-open and open axes occur
    lower[rng.random(d) < 0.2] = -np.inf
    upper[rng.random(d) < 0.2] = np.inf
    return mean, cov, BoxRegion(lower, upper)


def row(result):
    values = [result.prob]
    values += np.ravel(result.mean).tolist() + np.ravel(result.second_moment).tolist()
    return " ".join(float(v).hex() for v in values) + f" {bool(result.degenerate)}"


def main(tree: str) -> None:
    if not Path(tmvn.__file__).resolve().is_relative_to(Path(tree).resolve()):
        sys.exit(f"{tmvn.__file__} is not under {tree}")
    for seed in range(PROBLEMS):
        rng = np.random.default_rng([3, seed])
        print(3, seed, row(box_moments(*problem(rng))))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
