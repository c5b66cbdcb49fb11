import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy_stats_or_optimize():
    """Importing the package and the harness, and calibrating the mixture
    and Gaussian noise models, keep the slow SciPy subpackages off the start-up path
    (about 1.3 s of import time)."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import coverage_inekf, coverage_inekf.sim; "
        "coverage_inekf.sim.FixedComponentMixture.default_biased().epsilon_for(0.8); "
        "coverage_inekf.sim.GaussianNoise.isotropic(0.1).epsilon_for(0.8); "
        "print(*sorted(m for m in sys.modules "
        "if m.startswith(('scipy.stats', 'scipy.optimize'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.split() == []


def test_every_exported_name_resolves():
    import coverage_inekf

    names = coverage_inekf.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(coverage_inekf, n)] == []
