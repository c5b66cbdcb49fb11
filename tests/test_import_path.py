import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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


def test_every_exported_name_has_a_user_outside_the_tests():
    """Each ``__all__`` name is read outside the tests: in a module of
    ``src/`` other than ``__init__.py``, or in ``perfbench/`` or
    ``scripts/`` outside their ``test_*.py`` files.  A read is an ``ast``
    ``Name`` or ``Attribute`` load, so docstrings and strings do not count.
    A name that only tests read belongs in ``tests/oracles.py``."""
    import coverage_inekf

    paths = [p for p in (SRC / "coverage_inekf").glob("*.py") if p.name != "__init__.py"]
    for folder in ("perfbench", "scripts"):
        paths += [p for p in (ROOT / folder).glob("*.py") if not p.name.startswith("test_")]
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    assert [n for n in coverage_inekf.__all__ if n not in loaded] == []


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
