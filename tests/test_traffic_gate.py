"""Every function and method in src/jkolab is entered by a CLI run, or is on ALLOWLIST.

scripts/trace_traffic.py runs tiny configs through `jkolab.cli.main` under
`sys.settrace` (in a subprocess, so that a coverage tracer cannot interfere)
and lists the functions that no run entered.  The configs cover each
family, perturbation mode and p0 kind, an eps schedule, `n = auto`, an
exact run and a config error; the script adds a sweep, a report and a usage
error.  The list must equal ALLOWLIST exactly: a function that gains
traffic leaves the list, and one that no run enters (a helper only the
tests call) either leaves src/ or joins the list with the ROADMAP item that
will run it.
"""

import os
import subprocess
import sys

from test_benchmark_layers import traced_functions

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "trace_traffic.py")

# module.qualname -> why it stays in src/ though no run enters it
ALLOWLIST = {
    "certify.check_smoothing": "ROADMAP item 7 adds it to the atomic configs' checks",
    "process.w2_grid_to_atoms": "ROADMAP item 7 measures the data-to-sample lhs with it",
    "process.w2_sq_smoothed_to_atoms": "check_smoothing's lhs for several atoms (item 7)",
    "process._atom_breaks": "the atom quantiles of the two W2s above (item 7)",
    "process._gauss_partial_sq": "w2_sq_smoothed_to_atoms's closed form (item 7)",
    "process.AtomicMeasure.second_moment": "check_smoothing's rhs (item 7)",
    "gaussian.ot_map_bw": "a BENCHMARK.json metric traces it; item 16 drops it",
    "quantile.score": "a BENCHMARK.json metric traces it; item 16 drops it",
    "quantile.invert_map": "a BENCHMARK.json metric traces it; item 16 drops it",
    "functionals.ObjectiveSpec.dim":
        "perfbench/tests/test_harness.py reads cfg.spec.dim; perfbench changes only "
        "with the benchmark",
}
BENCHMARK_ONLY = {"gaussian.ot_map_bw", "quantile.score", "quantile.invert_map"}

CONFIGS = {
    "gauss_shift.txt": """
        family = gaussian
        p0.mean = 2
        p0.cov = 4
        gamma = 1.0
        eps = 0.1
        eps_inv = 0.001
        n = 2
    """,
    "gauss_d2_weighted_dilation.txt": """
        family = gaussian
        objective.variant = weighted
        objective.alpha = 0.5
        objective.center = 0 1
        objective.lambda_mat = 1 0.2; 0.2 2
        p0.mean = 1 -1
        p0.cov = 2 0; 0 0.5
        gamma = 1.0
        eps = 0.1 0.05
        eps_inv = 0.001
        n = 2
        mode = dilation
    """,
    **{f"grid_{mode}.txt": f"""
        family = grid
        family.m = 16
        p0.mean = 1.5
        p0.cov = 2.25
        gamma = 1.0
        eps = 0.1
        eps_inv = 0.001
        n = 2
        mode = {mode}
    """ for mode in ("mean_shift", "dilation", "grid_bump")},
    "grid_atoms.txt": """
        family = grid
        family.m = 16
        p0.atoms = -1 0.5; 1 0.5
        p0.delta = 0.03
        gamma = 1.0
        eps = 0.1
        eps_inv = 0.001
        n = 2
    """,
    "gauss_auto.txt": """
        family = gaussian
        objective.lambda_mat = 4
        p0.mean = 0.1
        gamma = 1.5
        eps = 0.1
        eps_inv = 0.001
        n = auto
    """,
    "gauss_exact.txt": """
        family = gaussian
        p0.mean = 2
        gamma = 1.0
        eps = 0
        eps_inv = 0
        n = 2
    """,
    "unknown_key.txt": """
        family = gaussian
        p0.mean = 2
        gamma = 1.0
        n = 2
        bogus = 1
    """,
}


def test_unentered_functions_are_the_allowlist(tmp_path):
    args = []
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text("\n".join(line.strip() for line in text.splitlines()))
        args += ["--config", str(tmp_path / name)]
    proc = subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *lines, summary = proc.stdout.splitlines()
    unentered = {line.rsplit(": ", 1)[1] for line in lines}
    assert summary.startswith(f"{len(lines)} of ")
    assert summary.endswith("functions in src/jkolab entered by no run")
    # a listed function that gains traffic fails too, so the list only shrinks
    assert unentered == set(ALLOWLIST)


def test_every_reason_is_given():
    assert all(reason.strip() for reason in ALLOWLIST.values())
    assert BENCHMARK_ONLY <= set(ALLOWLIST)
    # what only the benchmark keeps is a name BENCHMARK.json's per-layer metrics trace
    assert BENCHMARK_ONLY <= traced_functions()
