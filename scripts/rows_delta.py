"""Size the difference between two outputs of ``scripts/campaign_rows.py``:

    python scripts/rows_delta.py BASE HEAD

A change that moves the filter's arithmetic only at roundoff changes
every row of the text diff without changing what the rows say.  For each
float field a roundoff change may move (``rmse_mean``, ``rmse_std``,
``nees_mean``, ``nees_std``) this prints the largest relative change
|head - base| / |base| over all rows and the row where it occurs.  It
prints a MISMATCH line for each difference in what must not move: the set
of rows, a row's method or gamma, a coverage arm's radii (compared as
their ``float.hex`` text), ``frac_active``, ``diverged`` or ``skipped``;
and for a float field that is NaN on one side only.  Exits 1 on any
mismatch.
"""

import ast
import math
import sys

FLOAT_FIELDS = ("rmse_mean", "rmse_std", "nees_mean", "nees_std")
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
    """Lines keyed by (model, seed, method, gamma); a radii line is keyed
    with the method "radii" and keeps its hex text."""
    entries = {}
    with open(path) as f:
        for line in f:
            model, seed, rest = line.rstrip("\n").split(" ", 2)
            if rest.startswith("CampaignRow("):
                row = parse_row(rest)
                key = (model, seed, row["method"], repr(row["gamma"]))
                entries[key] = row
            else:
                gamma, tag, radii = rest.split(" ", 2)
                if tag != "radii":
                    sys.exit(f"{path}: unrecognised line {line!r}")
                entries[(model, seed, "radii", gamma)] = radii
    return entries


def same(a, b) -> bool:
    """Exact equality; NaN matches only NaN."""
    return a == b or (
        isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    )


def relative_change(a: float, b: float) -> float:
    if same(a, b):
        return 0.0
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def main(base_path: str, head_path: str) -> int:
    base, head = read(base_path), read(head_path)
    mismatches = [f"MISMATCH only in base: {' '.join(k)}" for k in base if k not in head]
    mismatches += [f"MISMATCH only in head: {' '.join(k)}" for k in head if k not in base]
    worst = {name: (0.0, None) for name in FLOAT_FIELDS}
    rows = radii = 0
    for key in base.keys() & head.keys():
        a, b = base[key], head[key]
        label = " ".join(key)
        if isinstance(a, str):
            radii += 1
            if a != b:
                mismatches.append(f"MISMATCH {label}: {a} != {b}")
            continue
        rows += 1
        for name in EXACT_FIELDS:
            if not same(a[name], b[name]):
                mismatches.append(f"MISMATCH {label} {name}: {a[name]!r} != {b[name]!r}")
        for name in FLOAT_FIELDS:
            if math.isnan(a[name]) != math.isnan(b[name]):
                mismatches.append(f"MISMATCH {label} {name}: {a[name]!r} != {b[name]!r}")
                continue
            change = relative_change(a[name], b[name])
            if change > worst[name][0]:
                worst[name] = (change, label)
    print(f"{rows} rows and {radii} radii lines in both")
    for name, (change, label) in worst.items():
        print(f"{name:<9} max relative change {change:.2e}" + (f"  ({label})" if label else ""))
    for line in sorted(mismatches):
        print(line)
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
