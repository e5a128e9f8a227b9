"""Check that two run directories hold the same results.

  python3 scripts/compare_runs.py OLD_DIR NEW_DIR

The CSVs and npz archives of the two directories are paired by file name
(run files are named `{run_id}_{kind}.csv` or `.npz`, and the run id
hashes the config).  CSV cells are compared column by column;
`key=value;...` cells (the report's context) are split into one column per
key.  Archive arrays are compared element by element, and the JSON
manifest an archive holds value by value (one column per key path); when
the two manifests' keys differ, the keys found on one side only are named
and the shared keys are still compared.  For every file kind and column the
worst absolute and relative difference is printed.  Exit status 1 when a CSV
or archive is missing on either side, the headers or row counts differ, the
array names or shapes differ, the manifests' keys or a shared key's nested
keys or list lengths differ, a `holds` value or a text cell differs, a
number differs and one side is not finite, or a number differs by more than
RTOL (relative to the larger magnitude) and also by more than ATOL; 0
otherwise.
"""

import argparse
import csv
import json
import math
import os
import re
import sys

import numpy as np

RTOL = 1e-9
ATOL = 1e-10
_RUN_FILE = re.compile(r"^[0-9a-f]{12}_(.+)$")
_SUFFIXES = (".csv", ".npz")


def _kind(name: str) -> str:
    """`forward` for `{run_id}_forward.csv`, `trajectory.npz` for an archive."""
    m = _RUN_FILE.match(name)
    rest = m.group(1) if m else name
    return rest[:-len(".csv")] if rest.endswith(".csv") else rest


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


def _load_npz(path: str) -> tuple[dict, dict]:
    """(manifest, arrays) of a run archive; the manifest is {} when absent."""
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    manifest = arrays.pop("manifest", None)
    return (json.loads(manifest.item()) if manifest is not None else {}), arrays


def _leaves(value, path: str):
    """(key path, index path, value) of every scalar in a parsed JSON value."""
    if isinstance(value, dict):
        for key in sorted(value):
            for col, idx, v in _leaves(value[key], f"{path}.{key}"):
                yield col, idx, v
    elif isinstance(value, list):
        for i, item in enumerate(value):
            for col, idx, v in _leaves(item, path):
                yield col, f"[{i}]{idx}", v
    else:
        yield path, "", value


def _shape(value):
    """The key and length structure of a parsed JSON value, without its scalars."""
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return None


def _text(value) -> str:
    """A manifest scalar as a cell: floats by repr, so the cell comparison applies."""
    return repr(value) if isinstance(value, float) else str(value)


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

    def arrays(self, name: str, old: np.ndarray, new: np.ndarray, kind: str, column: str):
        worst = self.worst.setdefault((kind, column), [0.0, 0.0])
        if old.shape != new.shape:
            self.failures.append(f"{name} {column}: shape {old.shape} != {new.shape}")
            return
        a, b = old.astype(float).ravel(), new.astype(float).ravel()
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        finite = np.isfinite(a) & np.isfinite(b)
        diff, scale = np.zeros(a.size), np.zeros(a.size)
        diff[finite] = np.abs(a[finite] - b[finite])
        scale[finite] = np.maximum(np.abs(a[finite]), np.abs(b[finite]))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=diff > 0)
        if diff.size:
            worst[0], worst[1] = max(worst[0], float(diff.max())), max(worst[1], float(rel.max()))
        bad = ~same & (~finite | (diff > np.maximum(ATOL, RTOL * scale)))
        for i in np.flatnonzero(bad)[:5]:
            idx = [int(j) for j in np.unravel_index(i, old.shape)]
            self.failures.append(f"{name} {column}{idx}: {float(a[i])!r} vs {float(b[i])!r}")
        if np.count_nonzero(bad) > 5:
            self.failures.append(f"{name} {column}: {np.count_nonzero(bad)} elements differ")

    def archives(self, name: str, old_path: str, new_path: str):
        (old_man, old_arr), (new_man, new_arr) = _load_npz(old_path), _load_npz(new_path)
        kind = _kind(name)
        if sorted(old_arr) != sorted(new_arr):
            self.failures.append(f"{name}: array names differ: {sorted(old_arr)} != "
                                 f"{sorted(new_arr)}")
        for key in sorted(set(old_arr) & set(new_arr)):
            self.arrays(name, old_arr[key], new_arr[key], kind, key)
        if set(old_man) != set(new_man):
            self.failures.append(f"{name}: manifest keys differ: only in the old archive "
                                 f"{sorted(set(old_man) - set(new_man))}, only in the new "
                                 f"{sorted(set(new_man) - set(old_man))}")
        for key in sorted(set(old_man) & set(new_man)):
            if _shape(old_man[key]) != _shape(new_man[key]):
                self.failures.append(f"{name}: manifest.{key}: keys or list lengths differ")
                continue
            for (col, idx, vo), (_, _, vn) in zip(_leaves(old_man[key], f"manifest.{key}"),
                                                  _leaves(new_man[key], f"manifest.{key}")):
                self.cell(f"{name}{idx}", kind, col, _text(vo), _text(vn))

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
    old = {f for f in os.listdir(old_dir) if f.endswith(_SUFFIXES)}
    new = {f for f in os.listdir(new_dir) if f.endswith(_SUFFIXES)}
    for name in sorted(old ^ new):
        side = "new" if name in old else "old"
        cmp.failures.append(f"{name}: missing in the {side} directory")
    for name in sorted(old & new):
        paths = os.path.join(old_dir, name), os.path.join(new_dir, name)
        if name.endswith(".npz"):
            cmp.archives(name, *paths)
        else:
            cmp.files(name, *paths)
    return cmp


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_dir")
    ap.add_argument("new_dir")
    args = ap.parse_args(argv)
    cmp = compare(args.old_dir, args.new_dir)
    print(f"{'kind':<24} {'column':<28} {'max abs diff':>12} {'max rel diff':>12}")
    for (kind, column), (diff, rel) in sorted(cmp.worst.items()):
        print(f"{kind:<24} {column:<28} {diff:>12.3g} {rel:>12.3g}")
    for line in cmp.failures:
        print(f"DIFFERS {line}")
    print(f"{len(cmp.failures)} differences beyond rtol={RTOL:g}, atol={ATOL:g}")
    return 1 if cmp.failures else 0


if __name__ == "__main__":
    sys.exit(main())
