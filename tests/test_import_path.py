import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy_stats_or_optimize():
    """Importing the package and the harness keeps the slow SciPy
    subpackages off the start-up path (about 1.3 s of import time)."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        "import coverage_inekf, coverage_inekf.sim; "
        "print(*sorted(m for m in sys.modules "
        "if m.startswith(('scipy.stats', 'scipy.optimize'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.split() == []
