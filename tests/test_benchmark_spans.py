"""The benchmark's per-layer span names still bind to the package."""

import importlib
from pathlib import Path

from coverage_inekf.sim import (
    CampaignConfig,
    FixedComponentMixture,
    TrajectorySpec,
    run_monte_carlo,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_binds_and_the_update_spans_are_called(monkeypatch):
    """A 0.5 s biased-mixture campaign, Gaussian arm and gamma 0.8, under
    the benchmark's tracer: every name in ``workloads.TRACED`` resolves to
    a function, and every ``sim.*`` span, the Gaussian rule, every
    ``coverage.*`` span and ``tmvn.box_moments`` record calls, so no span
    of a trial's stages or of the update reads 0.  The grid must run
    inside ``tmvn.box_moments``: a coverage update that reached it under
    another name would leave that span at 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    campaign = CampaignConfig(
        trajectory=TrajectorySpec(duration=0.5),
        noise_model=FixedComponentMixture.default_biased(),
        trials=1,
        seed=1,
        gammas=(0.8,),
    )
    tracer = spans.Tracer(workloads.TRACED)
    with tracer:
        run_monte_carlo(campaign)
    assert tracer.absent == []
    calls = {name: row["calls"] for name, row in tracer.summary(1.0).items()}
    update_spans = ["filter.gaussian_update", "tmvn.box_moments"] + [
        name for name in workloads.TRACED if name.startswith("coverage.")
    ]
    assert [name for name in update_spans if calls[name] == 0] == []
    sim_spans = [name for name in workloads.TRACED if name.startswith("sim.")]
    assert len(sim_spans) == 4
    assert [name for name in sim_spans if calls[name] == 0] == []
