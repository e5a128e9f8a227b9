"""Experiment runner CLI.

Subcommands: forward, reverse, certify, sweep, report.  Configuration is a
flat key = value text format with dotted keys (objective.lambda_mat,
p0.mean, ...); every run gets a short id hashed from its canonicalized
config, and all artifacts are named {run_id}_*.

Exit codes: 0 success / all bounds hold, 1 a certified bound failed,
2 solver or calibration failure, 64 config parse error or command-line usage
error, 66 missing run data, 70 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import math
import os
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from . import certify as ct
from . import functionals as fn
from . import gaussian as ga
from . import jko
from . import process as pr
from . import quantile as qt
from . import serialize as sz

EXIT_OK = 0
EXIT_BOUND_FAILED = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 64
EXIT_MISSING_DATA = 66
EXIT_INTERNAL = 70

OUTPUT_ROOT_ENV = "JKOLAB_OUTPUT_ROOT"

# Check name -> its reports, from the trajectory, the perturbed reverse run and
# eps_inv.  Each entry looks its certify function up when it is called, so a
# wrapper installed on the certify module (a profiler's) is called too.
CHECKS = {
    "evi": lambda traj, *_: ct.check_evi(traj),
    "forward_rate": lambda traj, *_: ct.check_forward_rate(traj),
    "kl_tv": lambda traj, *_: ct.check_kl_tv_guarantee(traj),
    "dpi_chain": lambda traj, *_: ct.check_dpi_chain(traj),
    "inversion": lambda *args: ct.check_inversion_bound(*args),
}
ALL_CHECKS = list(CHECKS)

SWEEP_KEYS = {"gamma", "eps", "eps_inv", "seed", "family.m"}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing and canonicalization


def _num(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ConfigError(f"non-finite number {s!r}")
    return x


def _parse_vector(s: str) -> np.ndarray:
    try:
        return np.array([_num(t) for t in s.split()])
    except ValueError as exc:
        raise ConfigError(f"bad vector {s!r}") from exc


def _parse_matrix(s: str, d: int) -> np.ndarray:
    rows = [r for r in s.split(";") if r.strip()]
    try:
        mat = np.array([[_num(t) for t in r.split()] for r in rows])
    except ValueError as exc:
        raise ConfigError(f"bad matrix {s!r}") from exc
    if mat.shape == (1, 1):
        return float(mat[0, 0]) * np.eye(d)
    if mat.shape != (d, d):
        raise ConfigError(f"matrix {s!r} is not {d}x{d}")
    return mat


def _fmt_vector(v: np.ndarray) -> str:
    return " ".join(repr(float(x)) for x in np.atleast_1d(v))


def _fmt_matrix(m: np.ndarray) -> str:
    return "; ".join(_fmt_vector(row) for row in np.atleast_2d(m))


@dataclass(frozen=True)
class RunConfig:
    spec: fn.ObjectiveSpec
    family: str
    m: int
    p0_mean: np.ndarray | None
    p0_cov: np.ndarray | None
    p0_atoms: pr.AtomicMeasure | None  # None: p0 is N(p0_mean, p0_cov)
    p0_delta: float
    gamma: float
    eps: list  # length 1 (constant) or one entry per step
    eps_inv: float
    n_steps: object  # int or the string "auto"
    seed: int
    mode: jko.PerturbMode
    checks: list

    def canonical(self) -> str:
        pot = self.spec.potential
        d: dict[str, str] = {
            "objective.variant": self.spec.variant.value,
            "objective.lambda_mat": _fmt_matrix(pot.lambda_mat),
            "objective.center": _fmt_vector(pot.center),
            "objective.alpha": repr(float(self.spec.alpha)),
            "family": self.family,
            "gamma": repr(float(self.gamma)),
            "eps": " ".join(repr(float(e)) for e in self.eps),
            "eps_inv": repr(float(self.eps_inv)),
            "n": str(self.n_steps),
            "seed": str(self.seed),
            "mode": self.mode.value,
            "checks": " ".join(self.checks),
        }
        if self.family == "grid":
            d["family.m"] = str(self.m)
        if self.p0_atoms is None:
            d["p0.mean"] = _fmt_vector(self.p0_mean)
            d["p0.cov"] = _fmt_matrix(self.p0_cov)
        else:
            at = self.p0_atoms
            d["p0.atoms"] = "; ".join(
                f"{_fmt_vector(loc)} {w!r}" for loc, w in zip(at.locations, at.weights)
            )
            d["p0.delta"] = repr(float(self.p0_delta))
        return "".join(f"{k} = {d[k]}\n" for k in sorted(d))

    def run_id(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]

    @functools.cached_property
    def p0(self):
        """p0 in the config's family, built once per command: smoothed atoms or N(p0_mean,
        p0_cov) at the grid's M quantile points, or N(p0_mean, p0_cov) itself."""
        if self.p0_atoms is not None:
            return pr.ou_smooth(self.p0_atoms, self.p0_delta, self.m)
        if self.family == "grid":
            return qt.from_gaussian(float(self.p0_mean[0]), math.sqrt(float(self.p0_cov[0, 0])),
                                    self.m)
        return ga.GaussianMeasure(self.p0_mean, self.p0_cov)

    def resolve_n(self, p0) -> int:
        if self.n_steps != "auto":
            return self.n_steps
        w2 = p0.w2(p0.minimizer(self.spec))  # pi in p0's family, built for n = auto only
        return pr.steps_needed(w2, self.spec.lam, self.gamma, self.eps[0])


def _raw_pairs(text: str) -> dict:
    """key -> value of each `key = value` line; a key given twice is a ConfigError."""
    out, seen = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        k, v = (t.strip() for t in line.split("=", 1))
        if k in seen:
            raise ConfigError(f"key {k!r} given twice, on lines {seen[k]} and {lineno}")
        out[k], seen[k] = v, lineno
    return out


def _check_list(names: list, n_steps, eps_inv: float) -> list:
    """`names` if every one is a known check and each can run on the config."""
    for c in names:
        if c not in CHECKS:
            raise ConfigError(f"unknown check {c!r}")
    if n_steps == 0 and eps_inv > 0 and "inversion" in names:
        raise ConfigError("the inversion check with eps_inv > 0 needs n >= 1")
    return names


def _built(what: str, build, *args):
    """build(*args), whose ValueError is a ConfigError naming `what`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    raw = _raw_pairs(text)

    def take(key, default=None):
        if key in raw:
            return raw.pop(key)
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default

    try:
        center = _parse_vector(take("objective.center", "0"))
        d = center.size
        lam_mat = _parse_matrix(take("objective.lambda_mat", "1"), d)
        variant = fn.Variant(take("objective.variant", "kl"))
        alpha = _num(take("objective.alpha", "1"))
        spec = fn.ObjectiveSpec(fn.QuadraticPotential(lam_mat, center), variant, alpha)
        _built("the minimizer N(center, alpha lambda_mat^-1)", ga.GaussianMeasure.minimizer, spec)

        family = take("family")
        if family not in ("grid", "gaussian"):
            raise ConfigError(f"unknown family {family!r}")
        m = int(take("family.m", "2048" if family == "grid" else "0"))
        if family == "grid" and d != 1:
            raise ConfigError("grid family requires a 1-D objective")
        if family == "grid" and m < qt.MIN_GRID_SIZE:
            raise ConfigError(f"family.m must be >= {qt.MIN_GRID_SIZE}")

        p0_mean = p0_cov = p0_atoms = None
        p0_delta = 0.0
        if "p0.atoms" in raw:
            if family != "grid":
                raise ConfigError("atomic p0 is only available in the grid family")
            rows = [r for r in take("p0.atoms").split(";") if r.strip()]
            locs, weights = [], []
            for r in rows:
                parts = [_num(t) for t in r.split()]
                locs.append(parts[:-1])
                weights.append(parts[-1])
            p0_atoms = pr.AtomicMeasure(np.array(locs), np.array(weights))
            if p0_atoms.dim != d:
                raise ConfigError("p0.atoms dimension does not match the objective")
            p0_delta = _num(take("p0.delta"))
            if p0_delta <= 0:
                raise ConfigError("p0.delta must be positive")
        else:
            p0_mean = _parse_vector(take("p0.mean"))
            if p0_mean.size != d:
                raise ConfigError("p0.mean dimension does not match the objective")
            p0_cov = _parse_matrix(take("p0.cov", "1"), d)
            if family == "grid":  # its grid is built on load; N(p0_mean, p0_cov) must exist
                _built("p0", ga.GaussianMeasure, p0_mean, p0_cov)

        gamma = _num(take("gamma"))
        if not (0 < gamma < 2):
            raise ConfigError("gamma must be in (0, 2)")
        eps = [_num(t) for t in take("eps", "0").split()]
        if any(e < 0 for e in eps):
            raise ConfigError("eps entries must be nonnegative")
        eps_inv = _num(take("eps_inv", "0"))
        if eps_inv < 0:
            raise ConfigError("eps_inv must be nonnegative")
        n_raw = take("n")
        n_steps = "auto" if n_raw == "auto" else int(n_raw)
        if n_steps == "auto":
            if len(eps) != 1 or eps[0] == 0:
                raise ConfigError(f"n = auto derives the step count from a single eps > 0, "
                                  f"not eps = {' '.join(map(repr, eps))}")
        elif n_steps < 0:
            raise ConfigError("n must be nonnegative or 'auto'")
        elif len(eps) not in (1, n_steps):
            raise ConfigError(f"eps schedule length {len(eps)} != n = {n_steps}")
        seed = int(take("seed", "0"))
        if seed < 0:
            raise ConfigError("seed must be nonnegative")
        mode = jko.PerturbMode(take("mode", "mean_shift"))
        if family == "gaussian" and mode is jko.PerturbMode.GRID_BUMP:
            raise ConfigError("mode grid_bump is only available in the grid family")
        checks_raw = take("checks", "all")
        checks = _check_list(list(ALL_CHECKS) if checks_raw == "all" else checks_raw.split(),
                            n_steps, eps_inv)
    except (ValueError, KeyError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    if raw:
        raise ConfigError(f"unrecognized keys: {sorted(raw)}")
    cfg = RunConfig(
        spec=spec, family=family, m=m, p0_mean=p0_mean,
        p0_cov=p0_cov, p0_atoms=p0_atoms, p0_delta=p0_delta, gamma=gamma,
        eps=eps, eps_inv=eps_inv, n_steps=n_steps, seed=seed, mode=mode,
        checks=checks,
    )
    if family == "gaussian":  # the p0 that every stage of the command reads
        _built("p0", lambda: cfg.p0)
    return cfg


def _built_on_grid(cfg: RunConfig) -> RunConfig:
    """cfg, once a grid config's pi and p0 are built as a run builds them (ConfigError when
    quantiles collapse); parse_config builds no grid, so a run id loads no scipy."""
    if cfg.family == "grid":  # pi reads only M: checked first, it smooths no atoms
        _built("the minimizer N(center, alpha lambda_mat^-1)",
               qt.QuantileGrid(qt.midpoints(cfg.m)).minimizer, cfg.spec)
        _built("p0", lambda: cfg.p0)
    return cfg


# ---------------------------------------------------------------------------
# Pipeline stages


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUTPUT_ROOT_ENV) or "runs"
    os.makedirs(out, exist_ok=True)
    return out


def _load_config(args) -> RunConfig:
    with open(args.config) as f:
        return _built_on_grid(parse_config(f.read()))


def _path(out: str, rid: str, suffix: str) -> str:
    return os.path.join(out, f"{rid}_{suffix}")


def do_forward(cfg: RunConfig, rid: str, out: str) -> pr.Trajectory:
    n = cfg.resolve_n(cfg.p0)
    schedule = cfg.eps * n if len(cfg.eps) == 1 else cfg.eps
    traj = pr.run_forward(cfg.p0, cfg.spec, cfg.gamma, n, schedule, cfg.mode, cfg.seed)
    with open(_path(out, rid, "config.txt"), "w") as f:
        f.write(cfg.canonical())
    with open(_path(out, rid, "forward.csv"), "w") as f:
        f.write(pr.forward_csv(traj))
    with open(_path(out, rid, "trajectory.npz"), "wb") as f:
        f.write(sz.trajectory_to_json(traj))
    return traj


def _read_archive(path: str, load, command: str):
    """load(the bytes at path); a stale archive is missing run data (66): re-run `command`."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return load(data)
    except sz.StaleArchiveError as exc:
        raise FileNotFoundError(f"{path}: {exc}; re-run `jkolab {command}` to rewrite it") from exc


def _load_trajectory(cfg: RunConfig, rid: str, out: str) -> pr.Trajectory:
    """The stored trajectory; a missing or stale archive is missing run data (66)."""
    return _read_archive(_path(out, rid, "trajectory.npz"),
                         lambda data: sz.trajectory_from_json(data, cfg.spec, cfg.gamma,
                                                              cfg.p0), "forward")


def do_reverse(cfg: RunConfig, rid: str, out: str) -> pr.ReverseRun | None:
    """Run and store the perturbed reverse chain, None at eps_inv = 0: the exact
    chain is derived from the trajectory, which is loaded either way (missing: 66)."""
    traj = _load_trajectory(cfg, rid, out)
    if cfg.eps_inv == 0:
        return None
    pert, measures = pr.run_reverse_perturbed(traj, cfg.eps_inv, cfg.mode, cfg.seed)
    with open(_path(out, rid, "reverse_perturbed.npz"), "wb") as f:
        f.write(sz.reverse_to_json(pert))
    with open(_path(out, rid, "reverse_perturbed.csv"), "w") as f:
        f.write(pr.reverse_csv(pert, measures))
    return pert


def _load_reverse(cfg: RunConfig, rid: str, out: str, traj: pr.Trajectory) -> pr.ReverseRun:
    """The stored perturbed reverse run; a missing or stale archive is missing run data (66)."""
    path = _path(out, rid, "reverse_perturbed.npz")
    if not os.path.exists(path):
        raise FileNotFoundError(f"the inversion check needs {path}: run `jkolab reverse`")
    return _read_archive(path, lambda data: sz.reverse_from_json(data, traj, cfg.mode, cfg.seed),
                         "reverse")


def do_certify(cfg: RunConfig, rid: str, out: str, checks=None) -> int:
    """Run `checks` (default: the config's) on the stored run data and write the report.

    The exact reverse chain is derived from the trajectory; the perturbed
    reverse run is loaded only for the inversion check, which at eps_inv = 0
    has no perturbed run to bound and reports nothing.
    """
    checks = checks or cfg.checks
    if cfg.eps_inv == 0:
        checks = [c for c in checks if c != "inversion"]
    traj = _load_trajectory(cfg, rid, out)
    pert_rev = _load_reverse(cfg, rid, out, traj) if "inversion" in checks else None
    reports = [r for name in checks for r in CHECKS[name](traj, pert_rev, cfg.eps_inv)]
    with open(_path(out, rid, "report.csv"), "w") as f:
        f.write(ct.report_lines(reports))
    failed = [r for r in reports if not r.holds]
    for r in failed:
        print(f"FAILED {r.name}: lhs={r.lhs:.6g} rhs={r.rhs:.6g} "
              f"slack={r.slack:.6g}", file=sys.stderr)
    print(f"{rid}: {len(reports) - len(failed)}/{len(reports)} bounds hold")
    return EXIT_BOUND_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands


def cmd_forward(args) -> int:
    out = _out_dir(args)
    cfg = _load_config(args)
    rid = cfg.run_id()
    traj = do_forward(cfg, rid, out)
    print(f"{rid}: forward run, {traj.n_steps} steps")
    return EXIT_OK


def cmd_reverse(args) -> int:
    out = _out_dir(args)
    cfg = _load_config(args)
    rid = cfg.run_id()
    if do_reverse(cfg, rid, out) is None:
        print(f"{rid}: eps_inv = 0, nothing to store (the exact reverse chain is derived)")
    else:
        print(f"{rid}: perturbed reverse run")
    return EXIT_OK


def cmd_certify(args) -> int:
    out = _out_dir(args)
    cfg = _load_config(args)
    checks = None
    if args.checks:
        checks = _check_list(args.checks.split(","), cfg.n_steps, cfg.eps_inv)
    return do_certify(cfg, cfg.run_id(), out, checks)


def _failure(exc: Exception, prefix: str = "") -> int:
    """Report a failure on stderr and return its exit code (unforeseen: 70, never 1)."""
    if isinstance(exc, ConfigError):
        code, what = EXIT_CONFIG, "config error"
    elif isinstance(exc, FileNotFoundError):
        code, what = EXIT_MISSING_DATA, "missing run data"
    elif isinstance(exc, (jko.SolverError, jko.CalibrationError)):
        code, what = EXIT_SOLVER, "solver failure"
    else:
        traceback.print_exception(exc, file=sys.stderr)
        code, what = EXIT_INTERNAL, "internal error"
    print(f"{prefix}{what}: {exc}", file=sys.stderr)
    return code


def _sweep_config(base_text: str, overrides: dict) -> RunConfig:
    raw = _raw_pairs(parse_config(base_text).canonical())
    raw.update(overrides)
    return _built_on_grid(parse_config("".join(f"{k} = {v}\n" for k, v in raw.items())))


def _sweep_entry(cfg: RunConfig, rid: str, out: str) -> int:
    try:
        do_forward(cfg, rid, out)
        do_reverse(cfg, rid, out)
        return do_certify(cfg, rid, out)
    except Exception as exc:
        return _failure(exc, f"{rid}: ")


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    with open(args.config) as f:
        base_text = f.read()
    parse_config(base_text)  # fail fast on a bad template
    axes = []
    for ax in args.axis or []:
        if "=" not in ax:
            raise ConfigError(f"bad axis {ax!r}: expected key=v1,v2,...")
        key, vals = ax.split("=", 1)
        if key not in SWEEP_KEYS:
            raise ConfigError(f"axis key {key!r} not sweepable (allowed: {sorted(SWEEP_KEYS)})")
        axes.append([(key, v) for v in vals.split(",")])
    combos = [dict(c) for c in itertools.product(*axes)] if axes else [{}]
    statuses = []
    configs = {}  # run_id -> config: duplicate combos run once
    for combo in combos:
        try:
            cfg = _sweep_config(base_text, combo)
        except ConfigError as exc:
            statuses.append(_failure(exc, f"combo {combo}: "))
            continue
        configs.setdefault(cfg.run_id(), cfg)
    statuses += [_sweep_entry(cfg, rid, out) for rid, cfg in configs.items()]
    print(f"sweep: {len(statuses)} runs, "
          f"{sum(1 for st in statuses if st == EXIT_OK)} fully passing")
    return max(statuses, default=EXIT_OK)


def cmd_report(args) -> int:
    out = _out_dir(args)
    rids = args.run_ids
    if not rids:
        rids = sorted({f.split("_report.csv")[0] for f in os.listdir(out)
                       if f.endswith("_report.csv")})
    if not rids:
        print("no report files found", file=sys.stderr)
        return EXIT_MISSING_DATA
    lines = ["run_id,name,holds,lhs,rhs,slack,tol,context"]
    n_fail = 0
    for rid in rids:
        path = _path(out, rid, "report.csv")
        if not os.path.exists(path):
            print(f"missing report for run {rid}", file=sys.stderr)
            return EXIT_MISSING_DATA
        with open(path) as f:
            rows = f.read().strip().splitlines()[1:]
        for row in rows:
            lines.append(f"{rid},{row}")
            if row.split(",")[1] == "0":
                n_fail += 1
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(out, "report_summary.csv"), "w") as f:
        f.write(summary)
    print(f"{len(rids)} runs, {len(lines) - 1} bound reports, {n_fail} failing")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_CONFIG (64, EX_USAGE): its own 2 is EXIT_SOLVER."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse_args call fills a new namespace."""
    top = _Parser(prog="jkolab")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("forward", help="run the forward process")
    common(p)
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("reverse", help="run the perturbed reverse process (eps_inv > 0)")
    common(p)
    p.set_defaults(func=cmd_reverse)

    p = sub.add_parser("certify", help="run bound checks on stored run data")
    common(p)
    p.add_argument("--checks", default=None,
                   help=f"comma-separated subset of {ALL_CHECKS}")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="cross-product of axis values over a template")
    common(p)
    p.add_argument("--axis", action="append",
                   help="key=v1,v2,... (repeatable); keys: " + ", ".join(sorted(SWEEP_KEYS)))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="aggregate report files")
    common(p, needs_config=False)
    p.add_argument("run_ids", nargs="*")
    p.set_defaults(func=cmd_report)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        return _failure(exc)


if __name__ == "__main__":
    sys.exit(main())
