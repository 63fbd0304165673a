"""Measurement side of the De Giorgi machinery: truncations, local energy
(Caccioppoli) ratios, class certification, the iteration lemma, oscillation
profiles with Holder-exponent fits, Harnack quotients, expansion of
positivity and intermediate-value statistics.

Each procedure measures one geometry.  Elliptic, on balls of a stationary
GridFunction: Caccioppoli ratios, oscillation profiles and intermediate
values.  Kinetic, on d = 1 kinetic cylinders of a solver Solution: Harnack
quotients, expansion of positivity, DG class membership and the backward
gradient estimate.

Conventions: ess sup/inf are grid max/min; discrete gradients are forward
differences attributed to the lower cell; all measured constants carry the
discretization slack of the raster geometry they were measured on.  Time-
dependent inputs are solver Solutions whose info dict holds the stored time
slices; times are shifted so the final slice sits at time 0 and cylinders
use the standard backward-in-time anchoring.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import GridFunction
from .geometry import (EuclideanBall, _cylinder_at, _unit_ball_volume,
                       cylinder_mask)

__all__ = [
    "truncate", "caccioppoli_report", "iterate_lemma", "oscillation_profile",
    "harnack_quotient", "expansion_experiment", "intermediate_value_stats",
    "dg_membership", "kdg_minus_gradient_check",
    "EnergyReport", "IterationResult", "OscillationProfile", "HarnackReport",
]


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

def truncate(u, kappa, sign="plus"):
    """(u - kappa)_+ or (u - kappa)_-: a new GridFunction for a GridFunction
    u, a new array for an array u."""
    vals = u.values if isinstance(u, GridFunction) else u
    if sign == "plus":
        out = np.maximum(vals - kappa, 0.0)
    elif sign == "minus":
        out = np.maximum(kappa - vals, 0.0)
    else:
        raise ValueError("sign must be 'plus' or 'minus'")
    return u.copy_with(out) if isinstance(u, GridFunction) else out


def _forward_grad_sq(vals, axes, axis_ids):
    """Sum over listed axes of squared forward differences, lower-cell cells.

    Returns an array of the full shape with the last slice along each
    differentiated axis set to zero (no forward neighbor).
    """
    out = np.zeros_like(vals)
    for k in axis_ids:
        g = np.zeros_like(vals)
        sl_lo = [slice(None)] * vals.ndim
        sl_lo[k] = slice(0, vals.shape[k] - 1)
        sl_hi = [slice(None)] * vals.ndim
        sl_hi[k] = slice(1, vals.shape[k])
        g[tuple(sl_lo)] = (vals[tuple(sl_hi)] - vals[tuple(sl_lo)]) / axes[k].h
        out += g * g
    return out


@dataclass
class _Trajectory:
    """Stored time slices of a Solution, read on the shifted time axis tau."""
    history: list
    times: list
    tau: np.ndarray
    axes: tuple       # open-mesh cell centers of the spatial lattice
    vol: float        # spatial cell volume
    dtau: float

    def masks(self, Q):
        """Cells inside Q, one boolean slice per stored time; Q is given in
        (tau, x..., v...) coordinates.  Evaluated 8 slices per call, so a
        block of masks takes no more memory than one float64 slice."""
        shape = (-1,) + (1,) * len(self.axes)
        for lo in range(0, len(self.tau), 8):
            yield from cylinder_mask(Q, (self.tau[lo:lo + 8].reshape(shape), *self.axes))

    def points(self):
        """Cell-center points (..., ndim) of the spatial lattice."""
        return np.stack(np.broadcast_arrays(*self.axes), axis=-1)


def _trajectory(sol, scale=None):
    """tau = t - t_final; with scale set, tau / (time span) * scale."""
    hist, times = sol.info["history"], sol.info["times"]
    tau = np.asarray(times) - times[-1]
    if scale is not None:
        tau = tau / (times[-1] - times[0]) * scale
    dtau = tau[1] - tau[0] if len(tau) > 1 else 0.0
    return _Trajectory(hist, times, tau, np.ix_(*sol.u.centers()),
                       sol.u.cell_volume, dtau)


# ---------------------------------------------------------------------------
# Caccioppoli reports
# ---------------------------------------------------------------------------

@dataclass
class EnergyRecord:
    center: tuple
    r: float
    R: float
    kappa: float
    lhs: float
    rhs_energy: float
    rhs_source: float
    ratio: float


@dataclass
class EnergyReport:
    records: list
    worst_ratio: float
    bound: float
    slack: float
    passed: bool
    skipped: int


# Relative discretization slack on the Caccioppoli bound.
_CACCIOPPOLI_SLACK = 0.2


def caccioppoli_report(sol, P, samples):
    """Realized local-energy ratios of an elliptic solution on sampled
    (center, r, R, kappa).

    ratio = grad-energy of (u - kappa)_+ over B_r divided by
    [(R-r)^-2 int_{B_R} w^2 + int_{B_R} |S| w], compared against the bound
    max(2/lam, 16 Lam/lam) inflated by _CACCIOPPOLI_SLACK.  Samples
    whose B_R leaves the domain are skipped.
    """
    if P.kind != "elliptic":
        raise ValueError(f"no Caccioppoli check for kind {P.kind!r}")
    lam, Lam = P.coefficients.lam, P.coefficients.Lam
    records = []
    skipped = 0
    bound = max(2.0 / lam, 16.0 * Lam / lam)
    axes = sol.u.axes
    grids = np.ix_(*sol.u.centers())
    S = P.source_at(0.0, np.stack(sol.u.meshgrid(), axis=-1))
    vol = sol.u.cell_volume
    for (x0, r, R, kappa) in samples:
        if any(c - R < a.lo or c + R > a.hi for c, a in zip(np.atleast_1d(x0), axes)):
            skipped += 1
            continue
        w = truncate(sol.u, kappa).values
        gsq = _forward_grad_sq(w, axes, range(len(axes)))
        mr = cylinder_mask(EuclideanBall(x0, r), grids)
        mR = cylinder_mask(EuclideanBall(x0, R), grids)
        lhs = float(gsq[mr].sum()) * vol
        e = float((w[mR] ** 2).sum()) * vol / (R - r) ** 2
        s = float((np.abs(S[mR]) * w[mR]).sum()) * vol
        ratio = lhs / (e + s) if e + s > 0 else 0.0
        records.append(EnergyRecord(tuple(np.atleast_1d(x0)), r, R, kappa,
                                    lhs, e, s, ratio))
    worst = max((rec.ratio for rec in records), default=0.0)
    passed = worst <= bound * (1.0 + _CACCIOPPOLI_SLACK)
    return EnergyReport(records, worst, bound, _CACCIOPPOLI_SLACK, passed,
                        skipped)


# ---------------------------------------------------------------------------
# Iteration lemma
# ---------------------------------------------------------------------------

@dataclass
class IterationResult:
    sequence: list
    threshold: float
    exponents: list
    exponent_bounds: list
    verdict: str


def iterate_lemma(A0, C, beta, k_max=60):
    """Simulate A_{k+1} = C^{k+1} A_k^beta at equality, in log space.

    Returns the sequence, the convergence threshold C^{-beta/(beta-1)^2},
    the exponents p_k of the closed form A_k <= C^{p_k} A_0^{beta^k} built
    from p_{k+1} = p_k beta + (k+1), and their bound beta^{k+1}/(beta-1)^2.
    The verdict is "converged" once A_k falls below 1e-12.
    """
    if not (C > 1 and beta > 1 and A0 >= 0):
        raise ValueError("need C > 1, beta > 1, A0 >= 0")
    threshold = C ** (-beta / (beta - 1) ** 2)
    logC = math.log(C)
    seq = [A0]
    logA = math.log(A0) if A0 > 0 else -math.inf
    p = [0.0]
    verdict = "undecided"
    for k in range(k_max):
        logA = (k + 1) * logC + beta * logA
        seq.append(math.exp(logA) if logA < 700 else math.inf)
        p.append(p[-1] * beta + (k + 1))
        if seq[-1] < 1e-12:
            verdict = "converged"
            break
        if not np.isfinite(seq[-1]):
            verdict = "diverged"
            break
    if verdict == "undecided":
        verdict = "diverged" if seq[-1] > seq[0] else "undecided"
    bounds = [beta ** (k + 1) / (beta - 1) ** 2 for k in range(len(p))]
    return IterationResult(seq, threshold, p, bounds, verdict)


# ---------------------------------------------------------------------------
# Oscillation profiles and Holder fits
# ---------------------------------------------------------------------------

# the decay fit drops this many of the largest radii (boundary pollution)
# and needs at least FIT_POINTS more
FIT_DROP, FIT_POINTS = 2, 4


@dataclass
class OscillationProfile:
    center: tuple
    radii: list
    oscillations: list
    alpha: float
    constant: float
    fit_residual: float
    dropped: list


def oscillation_profile(u, center, k_max=6):
    """Grid oscillation of u over the balls B_r(center), r = 2^-k, k <= k_max.

    Fits log(osc) against log(r) over the resolved decaying range.  The fit
    drops the two largest radii (boundary pollution) and every radius below
    two cells or whose ball holds fewer than 8 cells; fewer than 4 surviving
    points, or an identically constant u, yield the +inf sentinel exponent.
    """
    h = max(a.h for a in u.axes)
    grids = np.ix_(*u.centers())
    radii, oscs, dropped = [], [], []
    for k in range(k_max + 1):
        r = 2.0 ** (-k)
        # a half-cell pad (cells meeting the ball rather than centered in it)
        # cancels the first-order bias that grid oscillation carries at small
        # radii, which would otherwise contaminate the fitted decay exponent
        m = cylinder_mask(EuclideanBall(center, r + 0.5 * h), grids)
        if r < 2.0 * h or m.sum() < 8:
            dropped.append(r)
            continue
        vals = u.values[m]
        radii.append(r)
        oscs.append(float(vals.max() - vals.min()))
    fit_r = radii[FIT_DROP:]
    fit_o = oscs[FIT_DROP:]
    pos = [(r, o) for r, o in zip(fit_r, fit_o) if o > 0]
    if len(pos) < FIT_POINTS:
        return OscillationProfile(tuple(np.atleast_1d(center).ravel()), radii,
                                  oscs, math.inf, 0.0, 0.0, dropped)
    lr = np.log([p[0] for p in pos])
    lo = np.log([p[1] for p in pos])
    alpha, c = np.polyfit(lr, lo, 1)
    resid = float(np.sqrt(np.mean((np.polyval([alpha, c], lr) - lo) ** 2)))
    return OscillationProfile(tuple(np.atleast_1d(center).ravel()), radii,
                              oscs, float(alpha), float(math.exp(c)), resid,
                              dropped)


# ---------------------------------------------------------------------------
# Harnack quotients, expansion, intermediate values
# ---------------------------------------------------------------------------

_ETA0 = 0.5   # radius of the positivity cylinder of expansion_experiment


@dataclass
class HarnackReport:
    sup_past: float
    inf_future: float
    quotient: float
    geometry: dict


def harnack_quotient(sol, omega=0.25):
    """sup over the past cylinder vs inf over the future cylinder.

    The stored solution is read in shifted time (final slice at 0); the
    past cylinder is Q_omega(-1 + omega^2, 0, 0) and the future one is
    Q_omega, both scaled by the trajectory's time span.
    """
    tr = _trajectory(sol, scale=1.0)
    span = tr.times[-1] - tr.times[0]
    if min(h.min() for h in tr.history) <= 0:
        raise ValueError("harnack quotient needs a positive solution")
    # cylinders live in the scaled time variable; x, v stay in grid units
    past = _cylinder_at((-1.0 + omega ** 2, 0.0, 0.0), omega)
    future = _cylinder_at((0.0, 0.0, 0.0), omega)
    sup_past, inf_future = -math.inf, math.inf
    for f, m in zip(tr.history, tr.masks(past)):
        if m.any():
            sup_past = max(sup_past, float(f[m].max()))
    for f, m in zip(tr.history, tr.masks(future)):
        if m.any():
            inf_future = min(inf_future, float(f[m].min()))
    if not np.isfinite(sup_past) or not np.isfinite(inf_future):
        raise ValueError("cylinders not resolved by the stored trajectory")
    # inf_future > 0: every stored value is positive
    return HarnackReport(sup_past, inf_future, sup_past / inf_future,
                         {"omega": omega, "past": "Q_omega(-1+omega^2,0,0)",
                          "future": "Q_omega", "time_span": span})


def expansion_experiment(solutions):
    """Minimum over Q_1 for solutions seeded with mass near the initial time.

    Hypothesis per instance: |{f >= 1} cap Q_pos| >= 1/2 |Q_pos| with
    Q_pos = Q_eta0(-1, 0, 0) in scaled time, eta0 = _ETA0.
    Returns the per-instance minima and the ensemble minimum over the
    instances satisfying the hypothesis.
    """
    table = []
    pos = _cylinder_at((-1.0, 0.0, 0.0), _ETA0)
    q1 = _cylinder_at((0.0, 0.0, 0.0), 1.0)
    for sol in solutions:
        # scale the stored trajectory onto (-1 - eta0^2, 0] so the positivity
        # cylinder anchored at -1 sits fully inside the data
        tr = _trajectory(sol, scale=1.0 + _ETA0 ** 2)
        hit = tot = 0
        for f, m in zip(tr.history, tr.masks(pos)):
            hit += int((f[m] >= 1.0).sum())
            tot += int(m.sum())
        hypothesis = tot > 0 and hit >= 0.5 * tot
        mins = [float(f[m].min()) for f, m in zip(tr.history, tr.masks(q1))
                if m.any()]
        table.append({"hypothesis": hypothesis,
                      "pos_fraction": hit / tot if tot else 0.0,
                      "min_Q1": min(mins) if mins else math.nan})
    admitted = [row["min_Q1"] for row in table if row["hypothesis"]]
    ell_hat = min(admitted) if admitted else math.nan
    return {"table": table, "ell_hat": ell_hat, "admitted": len(admitted),
            "excluded": len(table) - len(admitted), "eta0": _ETA0}


def intermediate_value_stats(u, C_PW=None):
    """Raster measures of the level and intermediate-value sets over B_1.

    Measures of {u <= 1/2}, {u >= 1}, {1/2 < u < 1}, the gradient L2 norm,
    and the realized constant in
    |{u<=1/2}| |{u>=1}| <= C ||grad u||_2 |{1/2<u<1}|^{1/2}, compared to
    2 C_PW |B_1| when a Poincare constant estimate is supplied.
    """
    m1 = cylinder_mask(EuclideanBall(np.zeros(len(u.axes)), 1.0),
                       np.ix_(*u.centers()))
    vol = u.cell_volume
    vals = u.values
    low = float(((vals <= 0.5) & m1).sum()) * vol
    high = float(((vals >= 1.0) & m1).sum()) * vol
    mid = float(((vals > 0.5) & (vals < 1.0) & m1).sum()) * vol
    gsq = _forward_grad_sq(vals, u.axes, range(len(u.axes)))
    gnorm = math.sqrt(float(gsq[m1].sum()) * vol)
    denom = gnorm * math.sqrt(mid)
    measured_C = low * high / denom if denom > 0 else 0.0
    out = {"low": low, "high": high, "mid": mid, "grad_norm": gnorm,
           "measured_C": measured_C}
    if C_PW is not None:
        out["C_IVL"] = 2.0 * C_PW * _unit_ball_volume(len(u.axes))
        out["within_C_IVL"] = measured_C <= out["C_IVL"]
    return out


# ---------------------------------------------------------------------------
# DG membership
# ---------------------------------------------------------------------------

def dg_membership(sol, P, samples, p_c=None):
    """Minimal constant certifying the gain-of-integrability inequality of a
    kinetic solution.

    Samples (z0, r, R, kappa) with z0 = (t0, x0, v0): compares
    ||(f-kappa)_+||^2_{p_c, Q_r} against (R-r)^-4 int_{Q_R} (f-kappa)_+^2
    plus (R-r)^-2 int_{Q_R} |S|^2 1_{f >= kappa}; the default exponent is
    p_c = 2 + 1/(2d), inside the admissible range (2, 2 + 1/d).
    """
    if P.kind != "kinetic-fp":
        raise ValueError(f"no membership check for kind {P.kind!r}")
    d = 1
    if p_c is None:
        p_c = 2.0 + 1.0 / (2 * d)
    if not (2.0 < p_c < 2.0 + 1.0 / d):
        raise ValueError("kinetic p_c must lie in (2, 2 + 1/d)")
    tr = _trajectory(sol)
    pts = tr.points()
    records = []
    for (z0, r, R, kappa) in samples:
        Qr, QR = _cylinder_at(z0, r), _cylinder_at(z0, R)
        lhs_acc = rhs_acc = src_acc = 0.0
        for i, (f, mr, mR) in enumerate(zip(tr.history, tr.masks(Qr), tr.masks(QR))):
            w = truncate(f, kappa)
            if mr.any():
                lhs_acc += float((w[mr] ** p_c).sum()) * tr.vol * tr.dtau
            if mR.any():
                rhs_acc += float((w[mR] ** 2).sum()) * tr.vol * tr.dtau
                Sv = np.abs(P.source_at(tr.times[i], pts))
                src_acc += float(((Sv ** 2) * (f >= kappa))[mR].sum()) * tr.vol * tr.dtau
        lhs = lhs_acc ** (2.0 / p_c)
        rhs = rhs_acc / (R - r) ** 4 + src_acc / (R - r) ** 2
        const = lhs / rhs if rhs > 0 else 0.0
        records.append({"z0": z0, "r": r, "R": R, "kappa": kappa,
                        "lhs": lhs, "rhs": rhs, "constant": const})
    worst = max((rec["constant"] for rec in records), default=0.0)
    return {"records": records, "certifying_constant": worst, "p_c": p_c}


def kdg_minus_gradient_check(sol, P, samples):
    """Minimal constant in the backward gradient estimate on nested boxes.

    Samples: (T, tau_minus, tau_plus, rx, Rx, rv, Rv, kappa); compares
    ||grad_v (f-kappa)_-||_{L2(Q_int)} against e^-1 ||(f-kappa)_-||_{L2(Q_ext)}
    with e = min((tau_+ - tau_-)^1/2, Rv^-1/2 (Rx - rx)^1/2, Rv - rv),
    source term added with the active-set indicator.
    """
    tr = _trajectory(sol)
    X, V = tr.axes
    pts = tr.points()
    records = []
    for (T, tm, tp, rx, Rx, rv, Rv, kappa) in samples:
        e = min(math.sqrt(tp - tm), math.sqrt((Rx - rx) / Rv), Rv - rv)
        in_int = (tr.tau > T - tm) & (tr.tau <= T)
        in_ext = (tr.tau > T - tp) & (tr.tau <= T)
        m_int = (np.abs(X) < rx) & (np.abs(V) < rv)
        m_ext = (np.abs(X) < Rx) & (np.abs(V) < Rv)
        grad = mass = src = 0.0
        for i, f in enumerate(tr.history):
            w = truncate(f, kappa, "minus")
            if in_int[i]:
                grad += float(_forward_grad_sq(w, sol.u.axes, [1])[m_int].sum()) * tr.vol * tr.dtau
            if in_ext[i]:
                mass += float((w[m_ext] ** 2).sum()) * tr.vol * tr.dtau
                Sv = np.abs(P.source_at(tr.times[i], pts))
                src += float(((Sv ** 2) * (f <= kappa))[m_ext].sum()) * tr.vol * tr.dtau
        lhs = math.sqrt(grad)
        rhs = math.sqrt(mass) / e + math.sqrt(src)
        const = lhs / rhs if rhs > 0 else 0.0
        records.append({"T": T, "e": e, "lhs": lhs, "rhs": rhs,
                        "constant": const})
    worst = max((r["constant"] for r in records), default=0.0)
    return {"records": records, "certifying_constant": worst}
