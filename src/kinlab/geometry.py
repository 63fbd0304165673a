"""Galilean group operations, kinetic/parabolic cylinders and the kinetic distance.

Phase points z = (t, x, v) live in R^{1+2d} with the (non-commutative) group law

    z1 o z2 = (t1 + t2, x1 + x2 + t2*v1, v1 + v2),

inverse z^{-1} = (-t, -x + t*v, -v), and the anisotropic dilation
sigma_R(z) = (R^2 t, R^3 x, R v).  Cylinders are anchored at their top time.
Membership of balls, cylinders and stacks is decided in one place,
cylinder_mask, by exact comparisons (half-open in time, open in x and v,
stacks open at both time ends); covering routines depend on these boundary
semantics.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhasePoint", "EuclideanBall", "KineticCylinder", "ParabolicCylinder",
    "StackedCylinder", "origin", "compose", "inverse", "scale", "sup_norm",
    "kinetic_distance", "kinetic_distance_batch", "kinetic_distance_grid",
    "cylinder_mask", "cylinder_contains", "dilate_5Q", "stack",
    "DistanceConvergenceError",
]


def _as_vec(x, d):
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.shape != (d,):
        raise ValueError(f"expected a length-{d} vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite component")
    return a


@dataclass(frozen=True)
class PhasePoint:
    """A point z = (t, x, v) of the kinetic group, dimension d = len(x) = len(v)."""
    t: float
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t = float(self.t)
        if not math.isfinite(t):
            raise ValueError("non-finite time")
        object.__setattr__(self, "t", t)
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if x.ndim != 1 or v.ndim != 1 or x.shape != v.shape:
            raise ValueError("x and v must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValueError("non-finite component")
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def d(self):
        return self.x.shape[0]


def origin(d):
    return PhasePoint(0.0, np.zeros(d), np.zeros(d))


def compose(z1, z2):
    """Group product z1 o z2 = (t1+t2, x1+x2+t2*v1, v1+v2)."""
    if z1.d != z2.d:
        raise ValueError("dimension mismatch")
    return PhasePoint(z1.t + z2.t, z1.x + z2.x + z2.t * z1.v, z1.v + z2.v)


def inverse(z):
    """Group inverse z^{-1} = (-t, -x + t*v, -v)."""
    return PhasePoint(-z.t, -z.x + z.t * z.v, -z.v)


def scale(z, R):
    """Kinetic dilation sigma_R(z) = (R^2 t, R^3 x, R v), R > 0."""
    R = float(R)
    if R <= 0:
        raise ValueError("scaling factor must be positive")
    return PhasePoint(R * R * z.t, R ** 3 * z.x, R * z.v)


def sup_norm(z):
    """Scale-homogeneous sup norm max(|t|^{1/2}, |x|^{1/3}, |v|)."""
    return max(abs(z.t) ** 0.5,
               float(np.linalg.norm(z.x)) ** (1.0 / 3.0),
               float(np.linalg.norm(z.v)))


# ---------------------------------------------------------------------------
# Neighborhood families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EuclideanBall:
    """Open ball {|y - center| < radius}."""
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def d(self):
        return self.center.shape[0]


def _unit_ball_volume(d):
    """|B_1| in R^d, d = 1, 2, 3."""
    if d not in (1, 2, 3):
        raise ValueError(f"unit ball volume tabulated for d = 1, 2, 3, got {d}")
    return 2.0 if d == 1 else math.pi if d == 2 else 4.0 * math.pi / 3.0


@dataclass(frozen=True)
class ParabolicCylinder:
    """Top-anchored set (t0 - R^2, t0] x B_R(x0)."""
    t0: float
    x0: np.ndarray
    radius: float

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        x0.setflags(write=False)
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def d(self):
        return self.x0.shape[0]


@dataclass(frozen=True)
class KineticCylinder:
    """Slanted top-anchored cylinder

        Q_R(z0) = { -R^2 < t - t0 <= 0,
                    |x - x0 - (t - t0) v0| < R^3,
                    |v - v0| < R }.
    """
    center: PhasePoint
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def d(self):
        return self.center.d


@dataclass(frozen=True)
class StackedCylinder:
    """Stack of m copies above a base cylinder.

    Kinetic base Q_r(z0):
        { 0 < t - t0 < m r^2, |x - x0 - (t - t0) v0| < (m+2) r^3, |v - v0| < r }
    Parabolic base: (t0, t0 + m r^2) x B_r(x0).
    """
    base: object  # KineticCylinder | ParabolicCylinder
    m: int

    def __post_init__(self):
        if int(self.m) < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "m", int(self.m))


def stack(Q, m):
    return StackedCylinder(Q, m)


def _cylinder_at(anchor, r, geometry="kinetic"):
    """The d = 1 cylinder of radius r at a flat anchor (t, x) or (t, x, v)."""
    if geometry == "parabolic":
        return ParabolicCylinder(anchor[0], [anchor[1]], r)
    return KineticCylinder(PhasePoint(anchor[0], [anchor[1]], [anchor[2]]), r)


def _sq_dist(coords, center, shift=None):
    """Sum over k of (coords[k] - center[k] - shift[k])^2, in that order."""
    if shift is None:
        return sum((c - c0) ** 2 for c, c0 in zip(coords, center))
    return sum((c - c0 - s) ** 2 for c, c0, s in zip(coords, center, shift))


def cylinder_mask(Q, grids):
    """Vectorized membership of a ball, cylinder or stack on coordinate arrays.

    grids are broadcastable coordinate arrays ordered (t, x..., v...), or
    (x...) for a ball; open meshes (np.ix_ of the axis centers) broadcast to
    the full lattice.  Time is half-open for a cylinder, (t0 - R^2, t0], and
    open at both ends for a stack; x and v are open balls.
    """
    if isinstance(Q, EuclideanBall):
        return _sq_dist(grids, Q.center) < Q.radius * Q.radius
    m = Q.m if isinstance(Q, StackedCylinder) else None
    base = Q.base if m is not None else Q
    if isinstance(base, KineticCylinder):
        t0, x0, v0 = base.center.t, base.center.x, base.center.v
    elif isinstance(base, ParabolicCylinder):
        t0, x0, v0 = base.t0, base.x0, None
    else:
        raise TypeError(f"unsupported region type {type(base).__name__}")
    r, d = base.radius, len(x0)
    dt = grids[0] - t0
    if m is None:
        inside = (dt > -r * r) & (dt <= 0.0)
        wx = r if v0 is None else r ** 3
    else:
        inside = (dt > 0.0) & (dt < m * r * r)
        wx = r if v0 is None else (m + 2) * r ** 3
    xs = grids[1:1 + d]
    if v0 is None:
        return inside & (_sq_dist(xs, x0) < wx * wx)
    inside = inside & (_sq_dist(xs, x0, [dt * c for c in v0]) < wx * wx)
    return inside & (_sq_dist(grids[1 + d:1 + 2 * d], v0) < r * r)


def cylinder_contains(Q, z):
    """Exact membership of one point; the scalar form of cylinder_mask.

    z is a PhasePoint, or for a ball a vector and for a parabolic region a
    pair (t, x).
    """
    if isinstance(Q, EuclideanBall):
        coords = z.x if isinstance(z, PhasePoint) else _as_vec(z, Q.d)
    elif isinstance(Q, (ParabolicCylinder, KineticCylinder, StackedCylinder)):
        base = Q.base if isinstance(Q, StackedCylinder) else Q
        if isinstance(z, PhasePoint):
            t, y, v = z.t, z.x, z.v
        elif isinstance(base, ParabolicCylinder):
            t, y, v = float(z[0]), _as_vec(z[1], base.d), ()
        else:
            raise TypeError("a kinetic region needs a PhasePoint")
        if len(y) != base.d:
            raise ValueError("dimension mismatch")
        coords = (t, *y) if isinstance(base, ParabolicCylinder) else (t, *y, *v)
    else:
        raise TypeError(f"unsupported region type {type(Q).__name__}")
    return bool(cylinder_mask(Q, coords))


def dilate_5Q(Q):
    """The enlarged cylinder 5Q = Q_{5r} anchored at top time t0 + 12 r^2."""
    if isinstance(Q, ParabolicCylinder):
        r = Q.radius
        return ParabolicCylinder(Q.t0 + 12.0 * r * r, Q.x0, 5.0 * r)
    if isinstance(Q, KineticCylinder):
        z0, r = Q.center, Q.radius
        top = PhasePoint(z0.t + 12.0 * r * r, z0.x, z0.v)
        return KineticCylinder(top, 5.0 * r)
    if isinstance(Q, EuclideanBall):
        # classical Vitali enlargement, concentric
        return EuclideanBall(Q.center, 5.0 * Q.radius)
    raise TypeError(f"unsupported region type {type(Q).__name__}")


# ---------------------------------------------------------------------------
# Kinetic distance
# ---------------------------------------------------------------------------

class DistanceConvergenceError(RuntimeError):
    """Distance solve did not reach the requested accuracy.

    Carries the best value found and a bound on the remaining gap.
    """

    def __init__(self, best, gap):
        super().__init__(f"distance solve not converged: best={best}, gap<={gap}")
        self.best = best
        self.gap = gap


def _distance_objective(w, dt, dx, v1, v2, a=None):
    # w has shape (..., d); dt broadcastable to the leading shape of w,
    # dx/v1/v2 broadcastable to w itself; a = |dt|^{1/2} when already known
    if a is None:
        a = np.abs(dt) ** 0.5
    b = np.linalg.norm(v1 - w, axis=-1)
    c = np.linalg.norm(v2 - w, axis=-1)
    e = 2.0 ** (-1.0 / 3.0) * np.linalg.norm(dx - np.asarray(dt)[..., None] * w,
                                             axis=-1) ** (1.0 / 3.0)
    return np.maximum(np.maximum(a, b), np.maximum(c, e))


def _row_objective(w, consts):
    """_distance_objective of points w (B, d) or simplex vertices (B, k, d),
    row b against row b of consts = (a, dt, dx, v1, v2)."""
    a, dt, dx, v1, v2 = consts
    if w.ndim == 3:
        return _distance_objective(w, dt[:, None], dx[:, None, :],
                                   v1[:, None, :], v2[:, None, :], a=a[:, None])
    return _distance_objective(w, dt, dx, v1, v2, a=a)


# Iterations between the fixed-point checks of _nm_batch.
_FIXED_POINT_EVERY = 4


def _nm_batch(starts, consts, n_iter=220):
    """Batched Nelder-Mead on the distance objective, one problem per row.

    starts: (B, d) initial points; consts: the per-row constants (a, dt, dx,
    v1, v2) of _distance_objective, a = |dt|^{1/2} of shape (B,), dt (B,),
    the others (B, d).  Returns (B,) best values and (B,) value spread of the
    final simplex (an optimality gap indicator) after exactly n_iter
    iterations; there is no tolerance to stop at.

    Every operation of an iteration acts on one row's own simplex, values and
    constants, so a row whose state an iteration left bitwise unchanged is at
    a fixed point: no later iteration changes it.  Every _FIXED_POINT_EVERY
    iterations such rows are retired (their result written out) and the
    working arrays and constants are compacted to the rows still moving.
    The result is bit for bit that of running all rows n_iter iterations.
    """
    B, d = starts.shape
    h = 0.25
    simplex = np.repeat(starts[:, None, :], d + 1, axis=1)
    for i in range(d):
        step = h * np.maximum(1.0, np.abs(starts[:, i]))
        simplex[:, i + 1, i] += step

    fvals = _row_objective(simplex, consts)  # (B, d+1)
    best_val = np.empty(B)
    gap = np.empty(B)
    live = np.arange(B)  # the input row of each working row
    rows = live[:, None]
    for it in range(1, n_iter + 1):
        # every step below rebinds simplex and fvals before writing to them,
        # so the previous state can be held without a copy
        prev = (simplex, fvals) if it % _FIXED_POINT_EVERY == 0 else None
        order = np.argsort(fvals, axis=1)
        simplex = simplex[rows, order]
        fvals = fvals[rows, order]
        centroid = simplex[:, :-1, :].mean(axis=1)
        worst = simplex[:, -1, :]
        xr = centroid + (centroid - worst)
        fr = _row_objective(xr, consts)
        better_than_best = fr < fvals[:, 0]
        # expansion
        xe = centroid + 2.0 * (centroid - worst)
        fe = _row_objective(xe, consts)
        use_e = better_than_best & (fe < fr)
        # contraction (outside for fr < f_worst, inside otherwise)
        reflect_ok = (fr < fvals[:, -2]) & ~better_than_best
        xc_out = centroid + 0.5 * (centroid - worst)
        fc_out = _row_objective(xc_out, consts)
        xc_in = centroid - 0.5 * (centroid - worst)
        fc_in = _row_objective(xc_in, consts)
        new_pt = np.where(use_e[:, None], xe,
                 np.where((better_than_best & ~use_e)[:, None], xr,
                 np.where(reflect_ok[:, None], xr,
                 np.where((fc_out < fr)[:, None], xc_out, xc_in))))
        new_f = np.where(use_e, fe,
                np.where(better_than_best & ~use_e, fr,
                np.where(reflect_ok, fr,
                np.where(fc_out < fr, fc_out, fc_in))))
        accept = new_f < fvals[:, -1]
        simplex[:, -1, :] = np.where(accept[:, None], new_pt, simplex[:, -1, :])
        fvals[:, -1] = np.where(accept, new_f, fvals[:, -1])
        # shrink the problems whose trial move failed
        shrink = ~accept
        if np.any(shrink):
            best = simplex[:, 0:1, :]
            shrunk = best + 0.5 * (simplex - best)
            simplex = np.where(shrink[:, None, None], shrunk, simplex)
            fvals = np.where(shrink[:, None], _row_objective(simplex, consts),
                             fvals)
        if prev is None or it == n_iter:
            continue
        # compare bit patterns, not values: -0.0 == 0.0
        done = ((simplex.view(np.int64) == prev[0].view(np.int64)).all(axis=(1, 2))
                & (fvals.view(np.int64) == prev[1].view(np.int64)).all(axis=1))
        if done.any():
            f = fvals[done]
            lo = f.min(axis=1)
            best_val[live[done]] = lo
            gap[live[done]] = f.max(axis=1) - lo
            keep = ~done
            simplex, fvals, live = simplex[keep], fvals[keep], live[keep]
            consts = tuple(c[keep] for c in consts)
            rows = np.arange(len(live))[:, None]
            if not len(live):
                break
    lo = fvals.min(axis=1)
    best_val[live] = lo
    gap[live] = fvals.max(axis=1) - lo
    return best_val, gap


def kinetic_distance_batch(t1, x1, v1, t2, x2, v2, tol=1e-9, n_iter=220):
    """Vectorized kinetic distance for arrays of point pairs.

    Arrays: t* shape (B,), x*/v* shape (B, d), also at d = 1; any other
    shape raises ValueError.  Minimizes over the velocity shift w the
    objective

        max(|t1-t2|^{1/2}, |v1-w|, |v2-w|, 2^{-1/3} |(x1-x2) - (t1-t2) w|^{1/3})

    by multi-start batched Nelder-Mead (_nm_batch, n_iter iterations, rows
    retired at a bitwise fixed point) with starts {v1, v2, midpoint, 0} plus
    the transport root (x1-x2)/(t1-t2) when defined.  tol is accepted and
    unused: every pair gets the same n_iter iterations per start (ROADMAP
    item 1 plans a bisection whose bracket width is tol).

    Rows are independent: every operation of the solve reads only its own
    row's state and constants, so a row's (best, gap) is bit for bit the same
    whatever other rows share its batch, and the batch of concatenated pair
    sets returns the concatenation of their separate results.  `lab
    verify-geometry` relies on this to take all its distances from one call.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    if t1.ndim != 1:
        raise ValueError(f"t1 must have shape (B,), got shape {t1.shape}")
    if t2.shape != t1.shape:
        raise ValueError(f"t2 must have the shape {t1.shape} of t1, got {t2.shape}")
    x1, v1, x2, v2 = (np.asarray(a, dtype=float) for a in (x1, v1, x2, v2))
    for name, a in (("x1", x1), ("v1", v1), ("x2", x2), ("v2", v2)):
        # x1 comes first, so x1.shape[1] is read only once x1 is 2-d
        if a.ndim != 2 or a.shape != (t1.shape[0], x1.shape[1]):
            raise ValueError(f"{name} must have shape (B, d), B the length of "
                             f"t1 and d the width of x1; got shape {a.shape}")
    dt = t1 - t2  # (B,)
    dx = x1 - x2
    dtc = dt[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        transport_root = np.where(dtc != 0.0, dx / np.where(dtc == 0.0, 1.0, dtc),
                                  0.5 * (v1 + v2))
    starts = [v1, v2, 0.5 * (v1 + v2), np.zeros_like(v1), transport_root]
    consts = (np.abs(dt) ** 0.5, dt, dx, v1, v2)

    best = np.full(t1.shape, np.inf)
    gap = np.zeros_like(best)
    for s in starts:
        val, g = _nm_batch(s, consts, n_iter=n_iter)
        improved = val < best
        gap = np.where(improved, g, gap)
        best = np.minimum(best, val)
    return best, gap


def kinetic_distance(z1, z2, tol=1e-9):
    """Kinetic distance between two phase points, to absolute accuracy tol.

    Symmetric, left invariant, 1-homogeneous under the kinetic dilation, and
    sandwiched between 0.5*|z2^{-1} o z1|_inf and |z2^{-1} o z1|_inf.
    Raises DistanceConvergenceError if the simplex solve cannot certify tol.
    """
    if z1.d != z2.d:
        raise ValueError("dimension mismatch")
    if not float(tol) > 0:  # NaN too
        raise ValueError("tol must be positive")
    for n_iter in (220, 800, 3000):
        best, gap = kinetic_distance_batch(
            np.array([z1.t]), z1.x[None, :], z1.v[None, :],
            np.array([z2.t]), z2.x[None, :], z2.v[None, :], tol=tol, n_iter=n_iter)
        val, g = float(best[0]), float(gap[0])
        if g <= tol:
            return val
    raise DistanceConvergenceError(val, g)


def kinetic_distance_grid(z1, z2, n=121):
    """Independent cross-check: brute-force grid minimum over the velocity box
    hull(v1, v2) inflated by the sup-norm upper bound in every coordinate."""
    upper = sup_norm(compose(inverse(z2), z1))
    lo = np.minimum(z1.v, z2.v) - upper - 1e-12
    hi = np.maximum(z1.v, z2.v) + upper + 1e-12
    axes = [np.linspace(lo[i], hi[i], n) for i in range(z1.d)]
    W = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, z1.d)
    vals = _distance_objective(W, z1.t - z2.t, z1.x - z2.x, z1.v, z2.v)
    return float(vals.min())
