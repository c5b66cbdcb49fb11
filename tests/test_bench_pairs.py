"""The verdicts of ``scripts/bench_pairs.py`` on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# ten base runs: quartiles 4905 and 4957.5 (inclusive), IQR 52.5, median 4935
BASE = [4870.0, 4900.0, 4880.0, 4950.0, 4920.0, 4990.0, 4940.0, 4930.0, 4960.0, 5010.0]


def test_claim_is_met_with_nine_wins_and_a_gap_beyond_the_iqr():
    head = [b + 300.0 for b in BASE[:9]] + [BASE[9] - 1.0]
    v = bench_pairs.claim_verdict(BASE, head)
    assert (v["wins"], v["pairs"], v["iqr"]) == (9, 10, 52.5)
    assert v["gap"] == 290.0 and v["met"]  # head median 5225


def test_claim_fails_on_eight_wins_or_ties():
    head = [b + 300.0 for b in BASE[:8]] + BASE[8:]  # two ties count for neither
    v = bench_pairs.claim_verdict(BASE, head)
    assert v["wins"] == 8 and not v["met"]


def test_claim_fails_when_the_gap_is_inside_the_iqr():
    head = [b + 40.0 for b in BASE]
    v = bench_pairs.claim_verdict(BASE, head)
    assert v["wins"] == 10 and v["gap"] == pytest.approx(40.0) and not v["met"]


def test_lower_is_better_turns_the_claim_around():
    head = [b - 300.0 for b in BASE]
    assert bench_pairs.claim_verdict(BASE, head, higher=False)["met"]
    assert not bench_pairs.claim_verdict(BASE, head, higher=True)["met"]


def test_claim_needs_matching_pairs():
    with pytest.raises(ValueError, match="pairs"):
        bench_pairs.claim_verdict(BASE, BASE[:9])


def test_bound_check():
    """A median 30 % worse breaks a 25 % bound; 10 % worse is within it;
    a base whose IQR is 40 % of its median leaves a 25 % bound unresolved
    unless every head run is better than every base run."""
    check = bench_pairs.bound_verdict
    assert check(BASE, [0.7 * b for b in BASE], 0.25, True)["status"] == "WORSE beyond bound"
    assert check(BASE, [0.9 * b for b in BASE], 0.25, True)["status"] == "within bound"
    wide = [0.6, 0.8, 1.0, 1.2, 1.4]
    assert check(wide, wide, 0.25, False)["status"] == "unresolved"
    assert check(wide, [0.5] * 5, 0.25, False)["status"] == "within bound"
