"""Print the rows of forty short campaigns, one ``repr`` per line, so that
two source trees can be compared byte for byte:

    PYTHONPATH=<tree>/src python scripts/campaign_rows.py <tree>/src

Seeds 1-20, each with both noise models (the biased mixture and white
noise of sigma 0.1), a 2 s trajectory, two trials, and the Gaussian arm
plus gamma 0.5, 0.8 and 0.95, so that certified, active and skipped
coverage updates all run: 160 rows.  Before each campaign's rows it
prints, as ``float.hex`` values and with gamma ``None``, the column sums
of the deployed errors of ``synthesize_measurements`` on the campaign's
truth at its seed (three entries), the Gaussian arm's R (nine entries,
row by row) and, with their gamma, the radii of each coverage arm: 40
stream lines, 40 R lines and 120 radii lines.  So a change in the
deployed errors, in calibration or in the filter shows apart.  The
script uses only the API the benchmark also relies on and ``sim._arms``,
so it runs on older trees too, and it refuses to run on a package
imported from outside the tree it is given.
"""

import sys
from pathlib import Path

from coverage_inekf import sim

MODELS = {
    "mixture": sim.FixedComponentMixture.default_biased,
    "gaussian": lambda: sim.FixedComponentMixture.isotropic(0.1),
}


def main(tree: str) -> None:
    if not Path(sim.__file__).resolve().is_relative_to(Path(tree).resolve()):
        sys.exit(f"{sim.__file__} is not under {tree}")
    for name, model in MODELS.items():
        for seed in range(1, 21):
            cfg = sim.CampaignConfig(
                trajectory=sim.TrajectorySpec(duration=2.0),
                noise_model=model(),
                trials=2,
                seed=seed,
                gammas=(0.5, 0.8, 0.95),
            )
            truth = sim.generate_truth(cfg.trajectory)
            meas = sim.synthesize_measurements(truth, cfg.noise_model, seed)
            sums = (meas - truth.body_velocities()).sum(axis=0).tolist()
            print(name, seed, None, "stream", " ".join(float.hex(v) for v in sums))
            for arm in sim._arms(cfg):
                if isinstance(arm, sim.CoverageSpec):
                    radii = " ".join(float.hex(r) for r in arm.epsilon.tolist())
                    print(name, seed, arm.gamma, "radii", radii)
                else:
                    entries = " ".join(float.hex(r) for r in arm.ravel().tolist())
                    print(name, seed, None, "R", entries)
            for row in sim.run_monte_carlo(cfg):
                print(name, seed, repr(row))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
