"""The figures ``scripts/rows_delta.py`` prints for two small rows files."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "rows_delta.py"
_spec = importlib.util.spec_from_file_location("rows_delta", SCRIPT)
rows_delta = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rows_delta)


def row_line(rmse_mean, rmse_std, nees_mean, nees_std):
    """One Gaussian-arm line of ``scripts/campaign_rows.py``, seed 14."""
    return (
        f"gaussian 14 CampaignRow(method='gaussian', gamma=None, rmse_mean={rmse_mean!r}, "
        f"rmse_std={rmse_std!r}, nees_mean={nees_mean!r}, nees_std={nees_std!r}, "
        "frac_active=nan, diverged=0, skipped=0)\n"
    )


R_LINE = "gaussian 14 None R " + " ".join(["0x1.0000000000000p-7"] * 9) + "\n"


def test_a_deviation_is_sized_by_its_mean(tmp_path, capsys):
    """A 2-trial row's deviation can halve while its mean does not move:
    ``rmse_std`` 2^-8 -> 2^-9 reads 2^-9 / 0.5 = 3.91e-03 of ``rmse_mean``,
    not the -50 % it is of itself, and ``nees_std`` 1 -> 1.5 reads 0.5 / 4
    of ``nees_mean``, which itself moved by 2^-10 / 4."""
    base, head = tmp_path / "base.txt", tmp_path / "head.txt"
    base.write_text(R_LINE + row_line(0.5, 2.0**-8, 4.0, 1.0))
    head.write_text(R_LINE + row_line(0.5, 2.0**-9, 4.0 + 2.0**-10, 1.5))
    assert rows_delta.main(str(base), str(head)) == 0
    label = "  (gaussian 14 gaussian None)"
    assert capsys.readouterr().out.splitlines() == [
        "1 rows, 0 radii lines, 1 R lines and 0 stream lines in both",
        "rmse_mean max change relative to rmse_mean 0.00e+00",
        "rmse_std  max change relative to rmse_mean 3.91e-03" + label,
        "nees_mean max change relative to nees_mean 2.44e-04" + label,
        "nees_std  max change relative to nees_mean 1.25e-01" + label,
        "0 mismatches",
    ]
