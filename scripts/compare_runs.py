"""Check that two run directories hold the same results.

  python3 scripts/compare_runs.py OLD_DIR NEW_DIR

The CSVs of the two directories are paired by file name (run files are
named `{run_id}_{kind}.csv`, and the run id hashes the config).  Cells are
compared column by column; `key=value;...` cells (the report's context) are
split into one column per key.  For every file kind and column the worst
absolute and relative difference is printed.  Exit status 1 when a CSV is
missing on either side, the headers or row counts differ, a `holds` value
or a text cell differs, a number differs and one side is not finite, or a
number differs by more than RTOL (relative to the larger magnitude) and
also by more than ATOL; 0 otherwise.
"""

import argparse
import csv
import math
import os
import re
import sys

RTOL = 1e-9
ATOL = 1e-10
_RUN_FILE = re.compile(r"^[0-9a-f]{12}_(.+)\.csv$")


def _kind(name: str) -> str:
    m = _RUN_FILE.match(name)
    return m.group(1) if m else name[:-len(".csv")]


def _read(path: str) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _cells(column: str, text: str):
    """(column, text) pairs of one cell; a `k=v;k=v` cell yields one per key."""
    parts = text.split(";")
    if all("=" in p for p in parts):
        for p in parts:
            key, val = p.split("=", 1)
            yield f"{column}.{key}", val
    else:
        yield column, text


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


class Comparison:
    def __init__(self):
        self.worst: dict[tuple[str, str], list[float]] = {}
        self.failures: list[str] = []

    def cell(self, where: str, kind: str, column: str, old: str, new: str):
        worst = self.worst.setdefault((kind, column), [0.0, 0.0])
        if old == new:
            return
        a, b = _number(old), _number(new)
        if (column == "holds" or a is None or b is None
                or not (math.isfinite(a) and math.isfinite(b))):
            self.failures.append(f"{where} {column}: {old!r} != {new!r}")
            return
        diff = abs(a - b)
        rel = diff / max(abs(a), abs(b)) if diff else 0.0
        worst[0], worst[1] = max(worst[0], diff), max(worst[1], rel)
        if not diff <= max(ATOL, RTOL * max(abs(a), abs(b))):
            self.failures.append(f"{where} {column}: {old} vs {new} (abs {diff:.3g})")

    def files(self, name: str, old_path: str, new_path: str):
        old, new = _read(old_path), _read(new_path)
        if not old or not new or old[0] != new[0] or len(old) != len(new):
            self.failures.append(f"{name}: header or row count differs")
            return
        kind = _kind(name)
        for i, (ro, rn) in enumerate(zip(old[1:], new[1:]), start=2):
            if len(ro) != len(rn):
                self.failures.append(f"{name}:{i}: field count differs")
                continue
            for column, co, cn in zip(old[0], ro, rn):
                so, sn = list(_cells(column, co)), list(_cells(column, cn))
                if [c for c, _ in so] != [c for c, _ in sn]:
                    self.failures.append(f"{name}:{i} {column}: {co!r} != {cn!r}")
                    continue
                for (col, vo), (_, vn) in zip(so, sn):
                    self.cell(f"{name}:{i}", kind, col, vo, vn)


def compare(old_dir: str, new_dir: str) -> Comparison:
    cmp = Comparison()
    old = {f for f in os.listdir(old_dir) if f.endswith(".csv")}
    new = {f for f in os.listdir(new_dir) if f.endswith(".csv")}
    for name in sorted(old ^ new):
        side = "new" if name in old else "old"
        cmp.failures.append(f"{name}: missing in the {side} directory")
    for name in sorted(old & new):
        cmp.files(name, os.path.join(old_dir, name), os.path.join(new_dir, name))
    return cmp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_dir")
    ap.add_argument("new_dir")
    args = ap.parse_args(argv)
    cmp = compare(args.old_dir, args.new_dir)
    print(f"{'kind':<20} {'column':<28} {'max abs diff':>12} {'max rel diff':>12}")
    for (kind, column), (diff, rel) in sorted(cmp.worst.items()):
        print(f"{kind:<20} {column:<28} {diff:>12.3g} {rel:>12.3g}")
    for line in cmp.failures:
        print(f"DIFFERS {line}")
    print(f"{len(cmp.failures)} differences beyond rtol={RTOL:g}, atol={ATOL:g}")
    return 1 if cmp.failures else 0


if __name__ == "__main__":
    sys.exit(main())
