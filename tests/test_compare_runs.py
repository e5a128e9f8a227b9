import importlib.util
import json
import os

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")

_spec = importlib.util.spec_from_file_location(
    "compare_runs", os.path.join(ROOT, "scripts", "compare_runs.py"))
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

RID = "0123456789ab"
REPORT = ("name,holds,lhs,rhs,slack,tol,context\n"
          "evi,1,0.5,{rhs},0.75,0.001,eps=0.1;gamma=1.0;n=0\n"
          "dpi_chain,{holds},1e-16,0,-1e-16,1e-10,\n")
FORWARD = "n,w2_to_q,xi_norm\n0,2.0,\n1,{w2},0.1\n"


def write_run(path, rhs="1.25", holds="1", w2="1.0"):
    os.makedirs(path)
    with open(os.path.join(path, f"{RID}_report.csv"), "w") as f:
        f.write(REPORT.format(rhs=rhs, holds=holds))
    with open(os.path.join(path, f"{RID}_forward.csv"), "w") as f:
        f.write(FORWARD.format(w2=w2))
    return str(path)


def test_differences_within_tolerance_pass(tmp_path, capsys):
    old = write_run(tmp_path / "old")
    new = write_run(tmp_path / "new", rhs="1.2500000000004", w2="1.00000000003")
    assert compare_runs.main([old, new]) == 0
    out = capsys.readouterr().out
    assert "0 differences" in out
    worst = compare_runs.compare(old, new).worst
    assert worst[("report", "rhs")][0] == pytest.approx(4e-13, rel=1e-3)
    assert worst[("forward", "w2_to_q")][0] == pytest.approx(3e-11, rel=1e-3)
    assert worst[("report", "context.eps")] == [0.0, 0.0]


def test_flipped_verdict_fails(tmp_path, capsys):
    old = write_run(tmp_path / "old")
    new = write_run(tmp_path / "new", holds="0")
    assert compare_runs.main([old, new]) == 1
    assert "holds" in capsys.readouterr().out


def test_number_beyond_both_tolerances_fails(tmp_path):
    old = write_run(tmp_path / "old")
    new = write_run(tmp_path / "new", w2="1.000001")
    assert compare_runs.main([old, new]) == 1


def test_change_to_or_from_infinity_fails(tmp_path, capsys):
    old = write_run(tmp_path / "old")
    for i, rhs in enumerate(("inf", "-inf", "nan")):
        new = write_run(tmp_path / f"new{i}", rhs=rhs)
        assert compare_runs.main([old, new]) == 1
        assert "rhs: '1.25' != " in capsys.readouterr().out
    assert compare_runs.main([write_run(tmp_path / "neg", rhs="-inf"),
                              write_run(tmp_path / "pos", rhs="inf")]) == 1
    assert compare_runs.main([write_run(tmp_path / "a", rhs="inf"),
                              write_run(tmp_path / "b", rhs="inf")]) == 0


def test_missing_csv_fails(tmp_path, capsys):
    old = write_run(tmp_path / "old")
    new = write_run(tmp_path / "new")
    os.remove(os.path.join(new, f"{RID}_forward.csv"))
    assert compare_runs.main([old, new]) == 1
    assert "missing in the new directory" in capsys.readouterr().out


def write_archive(path, values, xi_norms=(0.1, 0.1), name="trajectory", drop=()):
    """A run archive as the run store writes it: stacked arrays plus a JSON manifest
    (without the keys in `drop`)."""
    os.makedirs(path, exist_ok=True)
    manifest = {"gamma": 1.0, "family": "grid", "xi_norms": list(xi_norms),
                "spec": {"lambda_mat": [[1.0]], "variant": "kl"}}
    manifest = {k: v for k, v in manifest.items() if k not in drop}
    np.savez(os.path.join(path, f"{RID}_{name}.npz"),
             manifest=np.array(json.dumps(manifest)), values=np.asarray(values))
    return str(path)


VALUES = [[-1.0, 0.0, 1.0], [-0.5, 0.0, 0.5]]


def test_archives_within_tolerance_pass(tmp_path, capsys):
    old = write_archive(tmp_path / "old", VALUES)
    new = write_archive(tmp_path / "new", np.array(VALUES) + 3e-11,
                        xi_norms=(0.1, 0.1 + 2e-12))
    assert compare_runs.main([old, new]) == 0
    assert "0 differences" in capsys.readouterr().out
    worst = compare_runs.compare(old, new).worst
    assert worst[("trajectory.npz", "values")][0] == pytest.approx(3e-11, rel=1e-3)
    assert worst[("trajectory.npz", "manifest.xi_norms")][0] == pytest.approx(2e-12, rel=1e-3)
    assert worst[("trajectory.npz", "manifest.spec.lambda_mat")] == [0.0, 0.0]


def test_archive_element_beyond_tolerance_fails(tmp_path, capsys):
    old = write_archive(tmp_path / "old", VALUES)
    new_values = np.array(VALUES)
    new_values[1, 2] += 1e-6
    assert compare_runs.main([old, write_archive(tmp_path / "new", new_values)]) == 1
    assert "values[1, 2]: 0.5 vs 0.500001" in capsys.readouterr().out
    for i, (values, xi_norms) in enumerate([(np.array(VALUES)[:1], (0.1, 0.1)),
                                            (VALUES, (0.1,)), (VALUES, (0.1, 0.2)),
                                            (np.where(np.array(VALUES) == 1.0, np.inf, VALUES),
                                             (0.1, 0.1))]):
        assert compare_runs.main([old, write_archive(tmp_path / f"new{i}", values,
                                                     xi_norms)]) == 1


def test_missing_archive_fails(tmp_path, capsys):
    old = write_archive(tmp_path / "old", VALUES)
    write_archive(tmp_path / "old", VALUES, name="reverse_exact")
    new = write_archive(tmp_path / "new", VALUES)
    assert compare_runs.main([old, new]) == 1
    assert f"{RID}_reverse_exact.npz: missing in the new directory" in capsys.readouterr().out


def test_manifest_key_difference_names_the_keys_and_compares_the_rest(tmp_path, capsys):
    old = write_archive(tmp_path / "old", VALUES)
    new = write_archive(tmp_path / "new", VALUES, drop=("gamma", "spec"))
    assert compare_runs.main([old, new]) == 1
    out = capsys.readouterr().out
    assert ("manifest keys differ: only in the old archive ['gamma', 'spec'], "
            "only in the new []") in out
    assert "1 differences" in out
    assert compare_runs.compare(old, new).worst[("trajectory.npz", "manifest.xi_norms")] == [
        0.0, 0.0]
    newer = write_archive(tmp_path / "newer", VALUES, xi_norms=(0.1, 0.2), drop=("family",))
    assert compare_runs.main([old, newer]) == 1
    out = capsys.readouterr().out
    assert "only in the old archive ['family'], only in the new []" in out
    assert "manifest.xi_norms: 0.1 vs 0.2" in out
