import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy_stats_or_optimize():
    """Importing the package and the harness, and calibrating the arms of
    campaigns on the mixture and on Gaussian noise, keep the slow SciPy
    subpackages off the start-up path (about 1.3 s of import time)."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import coverage_inekf; from coverage_inekf import sim; "
        "sim._arms(sim.CampaignConfig("
        "noise_model=sim.FixedComponentMixture.default_biased())); "
        "sim._arms(sim.CampaignConfig("
        "noise_model=sim.FixedComponentMixture.isotropic(0.1))); "
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


def test_only_tmvn_imports_scipy():
    """The package's one SciPy need is ``ndtr`` in ``tmvn``; every other
    module runs on numpy and the standard library."""
    importers = set()
    for path in (SRC / "coverage_inekf").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                importers.add(path.stem)
    assert importers == {"tmvn"}
