"""The `lab` command line runner.

Usage: lab <command> --config <file> [--jobs N] [--out DIR]

Commands: verify-geometry, verify-kernel, holder-scan, harnack, covering.
Configs are JSON with a fixed per-command key schema; unknown keys and a
missing seed are config errors.  Every run writes report.json (config hash,
versions, per-check records, overall verdict) plus plot-ready CSVs with
floats at 17 significant digits into the output directory (--out, the
KINLAB_OUT environment variable, or the current directory).

Exit codes: 0 all checks passed, 2 at least one check failed, 3 config or
usage error.  Reports are deterministic for a given config and seed except
for the wall_clock_s field.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy

from . import __version__
from . import geometry as geo
from . import kernel as ker
from . import covering as cov
from . import solvers as sv
from . import degiorgi as dg
from .gridfn import Axis, GridFunction

__all__ = ["main"]


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

_SCHEMAS = {
    "verify-geometry": {"seed": None, "samples": 2000, "d": 1, "tol": 1e-6,
                        "optimality_tol": 1e-4},
    "verify-kernel": {"seed": None, "d": 1, "box": 8.0, "base_n": 48,
                      "adjoint_threshold": 0.02,
                      "adjoint_quad": [80, 144, 96], "young_pairs": 10},
    "holder-scan": {"seed": None, "instances": 8, "n": 160, "box": 1.1,
                    "coefficient": "checkerboard", "lam": 0.5, "Lam": 1.0,
                    "tiles": 8, "k_max": 6},
    "harnack": {"seed": None, "instances": 8, "nx": 64, "nv": 48, "nt": 64,
                "omega": 0.25, "t_final": 0.25, "coefficient": "identity",
                "lam": 1.0, "Lam": 1.0, "tiles": 8, "profile": "gaussian",
                "floor": 0.2},
    "covering": {"seed": None, "families": 200, "m": [1, 2, 4],
                 "maximal_fields": 5, "n": 48, "geometry": "kinetic",
                 "ink_spots": 0, "m_ink": 1, "r0": 1.0},
}


# The values each key admits beyond its type: an interval, whose bounds may
# name another key, or a tuple of choices.  A list key holds integers in its
# interval, one per interval when it has a list of them.
_RANGES = {
    "seed": "[0, inf)", "samples": "[0, inf)", "d": "[1, 3]", "tol": "(0, inf)",
    "box": "(0, inf)", "base_n": "[1, inf)", "adjoint_quad": ["[2, inf)"] * 3,
    "young_pairs": "[0, inf)", "instances": "[1, inf)", "n": "[1, inf)",
    "coefficient": sv._FIELD_KINDS, "lam": "(0, inf)", "Lam": "[lam, inf)",
    "tiles": "[1, inf)", "k_max": "[0, inf)", "nx": "[1, inf)", "nv": "[1, inf)",
    "nt": "[1, inf)", "omega": "(0, 1]", "t_final": "(0, inf)",
    "profile": ("gaussian", "constant"), "families": "[0, inf)",
    "m": "[1, inf)", "maximal_fields": "[1, inf)",
    "geometry": ("parabolic", "kinetic"), "ink_spots": "[0, inf)",
    "m_ink": "[1, inf)", "r0": "(0, 1]", "optimality_tol": "(0, inf)",
    "adjoint_threshold": "(0, inf)", "floor": "(-inf, inf)",
}


def _admits(value, rule, cfg):
    if isinstance(rule, tuple):
        return value in rule
    if isinstance(value, list):
        rules = rule if isinstance(rule, list) else [rule] * len(value)
        return len(value) == len(rules) > 0 and all(
            type(v) is int and _admits(v, r, cfg) for v, r in zip(value, rules))
    lo, hi = (cfg[b] if b in cfg else float(b) for b in rule[1:-1].split(", "))
    return ((lo < value) if rule[0] == "(" else (lo <= value)) and (
        (value < hi) if rule[-1] == ")" else (value <= hi))


def load_config(path, command):
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    schema = _SCHEMAS[command]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "seed" not in raw:
        raise ConfigError("config must set an integer seed")
    for key, value in raw.items():
        default = schema[key]
        kind = int if default is None else type(default)
        # bool is an int subclass but never a valid number; ints are valid floats
        ok = (not isinstance(value, bool)
              and isinstance(value, (int, float) if kind is float else kind))
        if not ok:
            raise ConfigError(f"{key} must be of type {kind.__name__}, "
                              f"got {json.dumps(value)}")
    cfg = dict(schema)
    cfg.update(raw)
    for key, value in cfg.items():
        if key in _RANGES and not _admits(value, _RANGES[key], cfg):
            raise ConfigError(f"{key} must be in {_RANGES[key]}, got {json.dumps(value)}")
    return cfg


def config_hash(cfg):
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def write_csv(path, names, rows):
    """CSV with 17 significant digits for floats."""
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(f"{c:.17g}" if isinstance(c, float) else str(c)
                              for c in row) + "\n")


# ---------------------------------------------------------------------------
# verify-geometry
# ---------------------------------------------------------------------------

def _random_points(rng, n, d):
    t = rng.uniform(-2.0, 2.0, n)
    x = rng.uniform(-2.0, 2.0, (n, d))
    v = rng.uniform(-2.0, 2.0, (n, d))
    return t, x, v


def _sup_norms_of_differences(t1, x1, v1, t2, x2, v2):
    """geo.sup_norm(geo.compose(geo.inverse(z2), z1)) for each row, bit for bit.

    The group arithmetic runs on arrays in the scalar code's order; the
    norms (BLAS dot) and the powers (libm pow on Python floats) are taken per
    row as sup_norm takes them, since the array forms round differently.
    """
    ct = -t2 + t1
    cx = (-x2 + t2[:, None] * v2 + x1) + t1[:, None] * -v2
    cv = -v2 + v1
    return np.array([max(abs(t) ** 0.5, float(np.linalg.norm(x)) ** (1.0 / 3.0),
                         float(np.linalg.norm(v)))
                     for t, x, v in zip(ct.tolist(), cx, cv)])


def cmd_verify_geometry(cfg, jobs, outdir):
    rng = np.random.default_rng(cfg["seed"])
    N, d, tol = cfg["samples"], cfg["d"], cfg["tol"]
    records, warnings = [], []
    if N == 0:
        warnings.append("samples=0: all geometry suites are vacuous")
        records.append({"check": "vacuous", "passed": True})
        return records, warnings, []

    # group axioms on random triples
    ok = True
    worst = 0.0
    for _ in range(min(N, 500)):
        zs = [geo.PhasePoint(t, x, v) for t, x, v in zip(*_random_points(rng, 3, d))]
        z1, z2, z3 = zs
        lhs = geo.compose(geo.compose(z1, z2), z3)
        rhs = geo.compose(z1, geo.compose(z2, z3))
        err = max(abs(lhs.t - rhs.t), np.abs(lhs.x - rhs.x).max(),
                  np.abs(lhs.v - rhs.v).max())
        zi = geo.compose(z1, geo.inverse(z1))
        err = max(err, abs(zi.t), np.abs(zi.x).max(), np.abs(zi.v).max())
        worst = max(worst, err)
        ok &= err < 1e-10
    records.append({"check": "group_axioms", "passed": bool(ok),
                    "worst_error": worst})

    # every distance below comes from one batched solve; its rows are
    # independent, so each equals the value of a solve of its own
    t1, x1, v1 = _random_points(rng, N, d)
    t2, x2, v2 = _random_points(rng, N, d)
    M = max(N // 10, 1)
    t3, x3, v3 = _random_points(rng, M, d)
    # the two optimality pairs: a pure velocity gap (v = +-e1/2) hits the 1/2
    # bound, a pure unit time gap hits the upper bound
    e1, zero = np.eye(d)[:1], np.zeros((1, d))
    z_ac = (np.array([0.0, 1.0]), np.zeros((2, d)), np.vstack([0.5 * e1, zero]))
    z_bo = (np.zeros(2), np.zeros((2, d)), np.vstack([-0.5 * e1, zero]))
    pairs = [((t1, x1, v1), (t2, x2, v2)),
             ((t1[:M], x1[:M], v1[:M]), (t3, x3, v3)),
             ((t3, x3, v3), (t2[:M], x2[:M], v2[:M])),
             (z_ac, z_bo)]
    dist, _ = geo.kinetic_distance_batch(
        *(np.concatenate([p[side][k] for p in pairs])
          for side in (0, 1) for k in range(3)))
    dist, d13, d32, (d_half, d_one) = np.split(dist, [N, N + M, N + 2 * M])

    # distance sandwiched by the sup norm of the group difference
    norms = _sup_norms_of_differences(t1, x1, v1, t2, x2, v2)
    lower_ok = bool(np.all(dist >= 0.5 * norms - tol))
    upper_ok = bool(np.all(dist <= norms + tol))
    records.append({"check": "distance_bounds", "passed": lower_ok and upper_ok,
                    "max_lower_violation": float(np.max(0.5 * norms - dist)),
                    "max_upper_violation": float(np.max(dist - norms))})
    rows = sorted(zip(range(N), dist.tolist(), norms.tolist()))
    csvs = [("distance_samples.csv", ["index", "distance", "sup_norm"], rows)]

    # both optimality instances must reproduce the exact value
    d_half, d_one = float(d_half), float(d_one)
    opt_tol = cfg["optimality_tol"]
    opt_ok = abs(d_half - 0.5) <= opt_tol and abs(d_one - 1.0) <= opt_tol
    records.append({"check": "optimality_instances", "passed": bool(opt_ok),
                    "d_half": d_half, "d_one": d_one, "tolerance": opt_tol})

    # triangle inequality on random triples
    tri = dist[:M] - (d13 + d32)
    records.append({"check": "triangle_inequality",
                    "passed": bool(np.all(tri <= 3 * tol)),
                    "max_violation": float(tri.max())})

    # cylinder membership invariance under the kinetic dilation
    ok = True
    for _ in range(200):
        z0 = geo.PhasePoint(*[a[0] for a in _random_points(rng, 1, d)])
        r = rng.uniform(0.2, 2.0)
        Q = geo.KineticCylinder(z0, r)
        z = geo.PhasePoint(z0.t - rng.uniform(0, r * r) * 0.99,
                           z0.x + rng.uniform(-1, 1, d) * r ** 3 * 0.5,
                           z0.v + rng.uniform(-1, 1, d) * r * 0.5)
        if not geo.cylinder_contains(Q, z):
            continue
        R = rng.uniform(0.5, 2.0)
        Qs = geo.KineticCylinder(geo.scale(z0, R), Q.radius * R)
        ok &= geo.cylinder_contains(Qs, geo.scale(z, R))
    records.append({"check": "membership_dilation", "passed": bool(ok)})
    return records, warnings, csvs


# ---------------------------------------------------------------------------
# verify-kernel
# ---------------------------------------------------------------------------

def cmd_verify_kernel(cfg, jobs, outdir):
    d, L, n0 = cfg["d"], cfg["box"], cfg["base_n"]
    if d not in (1, 2):
        raise ConfigError("kernel checks support d in {1, 2}")
    rng = np.random.default_rng(cfg["seed"])
    records, csvs = [], []

    # unit mass of the time-1 kernel by quadrature plus the Gaussian tail
    n = n0 * 4 if d == 1 else n0 * 2
    ax = np.linspace(-L, L, n * 2 + 1)
    h = ax[1] - ax[0]
    X, V = np.meshgrid(ax, ax, indexing="ij")
    m1 = float(ker.gamma1(X[..., None], V[..., None]).sum()) * h * h
    # the time-1 kernel factorizes exactly over (x_i, v_i) coordinate pairs,
    # so the in-box mass in dimension d is the d-th power of the planar one
    mass = m1 ** d
    tail = ker.gamma_tail_mass(L, d=d)
    err = abs(mass + tail - 1.0)
    tol = 1e-8 if d == 1 else 1e-4
    records.append({"check": "kernel_mass", "passed": bool(err < tol),
                    "mass": mass, "tail": tail, "error": err})

    # residual convergence order on nested meshes, away from the t=0
    # singularity so the asymptotic second-order regime is reached
    hs = [0.04, 0.02, 0.01]
    reps = []
    for hh in hs:
        axes_r = [Axis("t", 1.0, 1.5, round(0.5 / hh)),
                  Axis("x", -3.0, 3.0, round(6.0 / hh)),
                  Axis("v", -3.0, 3.0, round(6.0 / hh))]
        ts, xs, vs = (a.centers() for a in axes_r)
        gvals = np.empty(tuple(a.n for a in axes_r))
        for k, tk in enumerate(ts):  # one t-slab at a time: no full meshgrid
            gvals[k] = ker.gamma(tk, xs[:, None, None], vs[None, :, None])
        reps.append(ker.kolmogorov_residual(GridFunction(axes_r, gvals)))
    order = ker.residual_convergence_order(reps, hs)
    records.append({"check": "residual_order", "passed": bool(order >= 1.8),
                    "order": float(order),
                    "residuals": [r.max_residual for r in reps]})
    csvs.append(("residuals.csv", ["h", "max_residual"],
                 list(zip(hs, [r.max_residual for r in reps]))))

    if d == 1:
        bump = ker.Bump(centers=(0.6, 0.0, 0.0), widths=(0.45, 0.8, 0.8))
        rep = ker.adjoint_identity_check(bump, n_quad=tuple(cfg["adjoint_quad"]))
        records.append({"check": "adjoint_identity",
                        "passed": bool(rep.rel_error < cfg["adjoint_threshold"]),
                        "relative_error": rep.rel_error})

    # Young inequality and weak vs strong norms on random grid pairs
    axes = [Axis("t", 0, 1, 6), Axis("x", -2, 2, 20), Axis("v", -2, 2, 20)]
    shape = tuple(a.n for a in axes)
    young_ok = weak_ok = True
    admitted = 0
    for _ in range(cfg["young_pairs"]):
        f = GridFunction(axes, rng.normal(size=shape) ** 2)
        g = GridFunction(axes, rng.normal(size=shape) ** 2)
        p, q = rng.uniform(1.1, 3.0, 2)
        r_inv = 1 / p + 1 / q - 1
        if r_inv <= 0:
            continue
        admitted += 1
        young_ok &= ker.young_check(f, g, p, q).passed
        wp = rng.uniform(1.1, 4.0)
        weak_ok &= ker.weak_lp_norm(f, wp).value <= f.norm_lp(wp) * (1 + 1e-12)
    records.append({"check": "young_inequality", "passed": bool(young_ok)})
    records.append({"check": "weak_le_strong", "passed": bool(weak_ok)})
    warnings = []
    if admitted == 0:
        warnings.append("no Young pair admitted: young_inequality and "
                        "weak_le_strong are vacuous")
    return records, warnings, csvs


# ---------------------------------------------------------------------------
# holder-scan
# ---------------------------------------------------------------------------

def _holder_instance(i, cfg):
    """(i, oscillation profile) of instance i, or (i, the SolverError) when
    its solve fails."""
    rng = np.random.default_rng(cfg["seed"] + 1000 * i)
    n, b = cfg["n"], cfg["box"]
    axes = [Axis("x", -b, b, n), Axis("x", -b, b, n)]
    spec = {"kind": cfg["coefficient"], "lam": cfg["lam"], "Lam": cfg["Lam"],
            "tiles": cfg["tiles"], "point_dim": 2}
    coef = sv.make_coefficients(spec, seed=cfg["seed"] + i)
    a0, a1, a2 = rng.uniform(-1, 1, 3)
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=coef,
                   boundary=lambda p: a0 + a1 * p[..., 0] + a2 * p[..., 1],
                   source=0.0)
    try:
        sol = sv.solve_elliptic(P)
    except sv.SolverError as exc:
        return i, exc
    return i, dg.oscillation_profile(sol.u, (0.0, 0.0), k_max=cfg["k_max"])


def cmd_holder_scan(cfg, jobs, outdir):
    instances = range(cfg["instances"])
    if jobs == 1:
        # in this thread: a worker thread may get a fresh malloc arena,
        # which then holds a second copy of the solver's working set
        results = [_holder_instance(i, cfg) for i in instances]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda i: _holder_instance(i, cfg), instances))
    records, rows, warnings = [], [], []
    for i, prof in results:
        if isinstance(prof, sv.SolverError):
            records.append({"check": f"instance_{i}", "passed": False,
                            "error": str(prof)})
            continue
        mono = all(a >= b - 1e-12 for a, b in
                   zip(prof.oscillations, prof.oscillations[1:]))
        finite = np.isfinite(prof.alpha)
        if len(prof.radii) < dg.FIT_DROP + dg.FIT_POINTS:
            warnings.append(f"instance_{i}: {len(prof.radii)} resolved radii "
                            "are too few to fit an exponent; check is vacuous")
        ok = mono and (not finite or prof.alpha > 0)
        records.append({"check": f"instance_{i}", "passed": bool(ok),
                        "alpha": prof.alpha if finite else "sentinel",
                        "constant": prof.constant, "monotone": bool(mono),
                        "fit_residual": prof.fit_residual})
        rows.append((i, prof.alpha if finite else float("inf"),
                     prof.constant, prof.fit_residual, int(mono)))
    alphas = [r[1] for r in rows if np.isfinite(r[1])]
    edges = np.linspace(0.0, 1.2, 13)
    hist, _ = np.histogram(alphas, bins=edges)
    csvs = [("alphas.csv", ["index", "alpha", "constant", "fit_residual",
                            "monotone"], rows),
            ("alpha_histogram.csv", ["bin_lo", "bin_hi", "count"],
             [(float(edges[k]), float(edges[k + 1]), int(hist[k]))
              for k in range(len(hist))])]
    return records, warnings, csvs


# ---------------------------------------------------------------------------
# harnack
# ---------------------------------------------------------------------------

def _harnack_instance(i, cfg):
    axes = [Axis("x", -0.5, 0.5, cfg["nx"]), Axis("v", -1.0, 1.0, cfg["nv"])]
    X, V = np.meshgrid(axes[0].centers(), axes[1].centers(), indexing="ij")
    if cfg["profile"] == "constant":
        hist = [np.ones_like(X) for _ in range(cfg["nt"] + 1)]
        times = list(np.linspace(0.0, cfg["t_final"], cfg["nt"] + 1))
        sol = sv.Solution(GridFunction(axes, hist[-1]),
                          {"history": hist, "times": times})
    else:
        rng = np.random.default_rng(cfg["seed"] + 1000 * i)
        xc = rng.uniform(-0.2, 0.2)
        vc = rng.uniform(-0.3, 0.3)
        f0 = cfg["floor"] + np.exp(-8 * (X - xc) ** 2 - 4 * (V - vc) ** 2)
        spec = {"kind": cfg["coefficient"], "lam": cfg["lam"],
                "Lam": cfg["Lam"], "tiles": cfg["tiles"], "point_dim": 2}
        coef = sv.make_coefficients(spec, seed=cfg["seed"] + i)
        P = sv.Problem(kind="kinetic-fp", axes=axes, coefficients=coef,
                       initial=GridFunction(axes, f0), source=0.0,
                       t_final=cfg["t_final"], nt=cfg["nt"])
        sol = sv.solve_kinetic_fp(P)
    rep = dg.harnack_quotient(sol, omega=cfg["omega"])
    return i, rep


def cmd_harnack(cfg, jobs, outdir):
    records, rows = [], []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_harnack_instance, i, cfg)
                   for i in range(cfg["instances"])]
    for i, fut in enumerate(futures):
        try:
            _, rep = fut.result()
        except ValueError as exc:
            records.append({"check": f"instance_{i}", "passed": False,
                            "error": str(exc)})
            continue
        ok = np.isfinite(rep.quotient) and rep.quotient >= 1.0 - 1e-9
        if cfg["profile"] == "constant":
            ok &= abs(rep.quotient - 1.0) < 1e-12
        records.append({"check": f"instance_{i}", "passed": bool(ok),
                        "quotient": rep.quotient, "sup_past": rep.sup_past,
                        "inf_future": rep.inf_future})
        rows.append((i, rep.quotient, rep.sup_past, rep.inf_future))
    csvs = [("quotients.csv", ["index", "quotient", "sup_past", "inf_future"],
             rows)]
    return records, [], csvs


# ---------------------------------------------------------------------------
# covering
# ---------------------------------------------------------------------------

def cmd_covering(cfg, jobs, outdir):
    rng = np.random.default_rng(cfg["seed"])
    records, csvs = [], []
    warnings = []
    geometry = cfg["geometry"]

    # interval stacking sweep
    fails = 0
    rows = []
    for i in range(cfg["families"]):
        m = int(rng.choice(cfg["m"]))
        k = int(rng.integers(1, 12))
        fam = cov.IntervalFamily(list(zip(rng.uniform(-5, 5, k),
                                          rng.uniform(0.05, 1.0, k))))
        rep = cov.interval_stack_ratio(fam, m)
        fails += not rep.passed
        rows.append((i, m, rep.ratio, rep.bound, int(rep.passed)))
    if cfg["families"] == 0:
        warnings.append("families=0: interval stacking suite is vacuous")
    records.append({"check": "interval_stacking", "passed": fails == 0,
                    "failures": fails, "families": cfg["families"]})
    csvs.append(("interval_stacking.csv",
                 ["index", "m", "ratio", "bound", "passed"], rows))

    # maximal-function weak (1,1) bound on random nonnegative fields
    n = cfg["n"]
    bound = cov.leak_constant(1, geometry)
    worst = 0.0
    ok = True
    for i in range(cfg["maximal_fields"]):
        axes = ([Axis("t", -1, 0, n), Axis("x", -1, 1, n), Axis("v", -1, 1, n)]
                if geometry == "kinetic"
                else [Axis("t", -1, 0, n), Axis("x", -1, 1, n)])
        vals = rng.random(tuple(a.n for a in axes)) ** 4
        gf = GridFunction(axes, vals)
        Mg = cov.maximal_function(gf)
        kappas = np.quantile(Mg.values, [0.5, 0.8, 0.95])
        c = cov.maximal_inequality_constant(gf, Mg, kappas)
        worst = max(worst, c)
        ok &= c <= bound
    records.append({"check": "maximal_weak11", "passed": bool(ok),
                    "worst_constant": worst, "bound": bound})

    # ink spots instances
    if cfg["ink_spots"] > 0:
        bad = 0
        for i in range(cfg["ink_spots"]):
            inst_rng = np.random.default_rng(cfg["seed"] + 7000 + i)
            try:
                E, F = cov.synthesize_ink_spots_instance(
                    geometry, cfg["m_ink"], cfg["r0"], inst_rng,
                    cells_per_unit=48 if geometry == "kinetic" else 96)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            rep = cov.ink_spots_check(E, F, geometry, cfg["m_ink"], cfg["r0"])
            bad += not rep.passed
        records.append({"check": "ink_spots", "passed": bad == 0,
                        "failures": bad, "instances": cfg["ink_spots"]})
    return records, warnings, csvs


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "verify-geometry": cmd_verify_geometry,
    "verify-kernel": cmd_verify_kernel,
    "holder-scan": cmd_holder_scan,
    "harnack": cmd_harnack,
    "covering": cmd_covering,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lab", description="kinetic regularity experiment runner")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 3
    outdir = args.out or os.environ.get("KINLAB_OUT", ".")
    os.makedirs(outdir, exist_ok=True)
    t0 = time.time()
    try:
        cfg = load_config(args.config, args.command)
        records, warnings, csvs = _COMMANDS[args.command](cfg, args.jobs, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    passed = all(r.get("passed", False) for r in records)
    report = {
        "command": args.command,
        "config": cfg,
        "config_hash": config_hash(cfg),
        "versions": {"kinlab": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "records": records,
        "warnings": warnings,
        "passed": passed,
        "wall_clock_s": round(time.time() - t0, 3),
    }
    for name, cols, rows in csvs:
        write_csv(os.path.join(outdir, name), cols, rows)
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in records:
        tag = "PASS" if r.get("passed", False) else "FAIL"
        print(f"[{tag}] {r.get('check', '?')}")
    print(f"overall: {'PASS' if passed else 'FAIL'} "
          f"({report['wall_clock_s']} s)")
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
