"""Size the difference between two outputs of ``scripts/campaign_rows.py``:

    python scripts/rows_delta.py BASE HEAD

A change that moves the filter's arithmetic only at roundoff changes
every row of the text diff without changing what the rows say.  For each
float field a roundoff change may move (``rmse_mean``, ``rmse_std``,
``nees_mean``, ``nees_std``) this prints the largest change over all rows,
relative to the base row's matching mean, and the row where it occurs:
|head - base| / |base mean|.  A deviation is sized by its mean, not by
itself, because a 2-trial row's deviation is half the difference of its
two trials and can nearly cancel: a move of 0.005 % in the mean can halve
it.  It
prints a MISMATCH line for each difference in what must not move: the set
of rows, a row's method or gamma, a coverage arm's radii, the Gaussian
arm's R or the deployed errors' sums (each compared as its ``float.hex``
text), ``frac_active``, ``diverged`` or ``skipped``; and for a float field
that is NaN on one side only.  It counts what both outputs hold, as "160
rows, 120 radii lines, 40 R lines and 40 stream lines".  Exits 1 on any
mismatch.
"""

import ast
import math
import sys

FLOAT_FIELDS = ("rmse_mean", "rmse_std", "nees_mean", "nees_std")
# the field each float field's change is sized by
MEAN_OF = {name: name.replace("_std", "_mean") for name in FLOAT_FIELDS}
EXACT_FIELDS = ("frac_active", "diverged", "skipped")


def parse_row(text: str) -> dict:
    """The fields of one ``repr(CampaignRow)``; ``nan`` and ``inf`` are
    the names float repr leaves in it."""
    call = ast.parse(text, mode="eval").body
    return {
        kw.arg: float(kw.value.id) if isinstance(kw.value, ast.Name)
        else ast.literal_eval(kw.value)
        for kw in call.keywords
    }


def read(path: str) -> dict:
    """Lines keyed by (model, seed, method, gamma); a radii, R or stream
    line is keyed with its tag, "radii", "R" or "stream", as the method and
    keeps its hex text."""
    entries = {}
    with open(path) as f:
        for line in f:
            model, seed, rest = line.rstrip("\n").split(" ", 2)
            if rest.startswith("CampaignRow("):
                row = parse_row(rest)
                key = (model, seed, row["method"], repr(row["gamma"]))
                entries[key] = row
            else:
                gamma, tag, values = rest.split(" ", 2)
                if tag not in ("radii", "R", "stream"):
                    sys.exit(f"{path}: unrecognised line {line!r}")
                entries[(model, seed, tag, gamma)] = values
    return entries


def same(a, b) -> bool:
    """Exact equality; NaN matches only NaN."""
    return a == b or (
        isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    )


def relative_change(a: float, b: float, scale: float) -> float:
    """|b - a| / |scale|: 0 when a and b are the same, inf on a 0 scale."""
    if same(a, b):
        return 0.0
    return abs(b - a) / abs(scale) if scale != 0.0 else math.inf


def main(base_path: str, head_path: str) -> int:
    base, head = read(base_path), read(head_path)
    mismatches = [f"MISMATCH only in base: {' '.join(k)}" for k in base if k not in head]
    mismatches += [f"MISMATCH only in head: {' '.join(k)}" for k in head if k not in base]
    worst = {name: (0.0, None) for name in FLOAT_FIELDS}
    counts = {"rows": 0, "radii": 0, "R": 0, "stream": 0}
    for key in base.keys() & head.keys():
        a, b = base[key], head[key]
        label = " ".join(key)
        if isinstance(a, str):
            counts[key[2]] += 1
            if a != b:
                mismatches.append(f"MISMATCH {label}: {a} != {b}")
            continue
        counts["rows"] += 1
        for name in EXACT_FIELDS:
            if not same(a[name], b[name]):
                mismatches.append(f"MISMATCH {label} {name}: {a[name]!r} != {b[name]!r}")
        for name in FLOAT_FIELDS:
            if math.isnan(a[name]) != math.isnan(b[name]):
                mismatches.append(f"MISMATCH {label} {name}: {a[name]!r} != {b[name]!r}")
                continue
            change = relative_change(a[name], b[name], a[MEAN_OF[name]])
            if change > worst[name][0]:
                worst[name] = (change, label)
    rows, radii, r_lines, streams = counts.values()
    print(
        f"{rows} rows, {radii} radii lines, {r_lines} R lines and {streams} "
        "stream lines in both"
    )
    for name, (change, label) in worst.items():
        print(
            f"{name:<9} max change relative to {MEAN_OF[name]:<9} {change:.2e}"
            + (f"  ({label})" if label else "")
        )
    for line in sorted(mismatches):
        print(line)
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
