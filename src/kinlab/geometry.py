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
    "kinetic_distance", "kinetic_distance_batch", "cylinder_mask",
    "cylinder_contains", "dilate_5Q", "DistanceConvergenceError",
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


# Rounding allowance of the level test, in units of the magnitudes it
# combines: 16 unit roundoffs, several times what its operations and the
# differencing of the inputs lose (about 0.3 of a unit on the test draws,
# measured against an extended-precision rerun).
_SLACK = 16 * 2.0 ** -53

# The objective at the midpoint of v1, v2 is at most twice the distance
# (both lie in [u/2, u], u the sup norm of the group difference), so about
# 55 halvings leave no float between the ends of a bracket.
_MAX_HALVINGS = 100


def _level_witness(s, a, h, c, e, dt):
    """Test the level s of the distance objective around the midpoint w0.

    With w = w0 + y, y lies in the level set when s >= a, |y - h| <= s,
    |y + h| <= s and |e - dt y| <= 2 s^3.  The two balls meet in a lens
    symmetric about the axis through +-h; y is the point of that lens
    nearest to c = e/dt (c = 0 when dt == 0, where every point of the lens
    gives e - dt y = e), so the level set is empty exactly when y misses the
    last condition.  Returns (ok, y): whether s passed and y, shape (B, d).
    """
    hn = np.linalg.norm(h, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # axis coordinate of c; the lens arc facing c lies on the sphere
        # about the far centre f
        p = np.where(hn > 0.0, (c * h).sum(axis=-1) / hn, 0.0)
        f = np.where((p >= 0.0)[:, None], -h, h)
        n = np.linalg.norm(c - f, axis=-1)
        arc = f + (s / n)[:, None] * (c - f)
        # the projection lies on the arc when its axis coordinate,
        # s (|p| + |h|) / n - |h|, is >= 0; past the rim of the arc the
        # nearest point is on the rim, the circle of radius
        # sqrt(s^2 - |h|^2) about the axis, towards c
        radial = c - (p / hn)[:, None] * h
        q = np.linalg.norm(radial, axis=-1)
        rim = (np.sqrt((s - hn) * (s + hn)) / q)[:, None] * radial
        on_arc = (s * (np.abs(p) + hn) >= hn * n) | (q == 0.0)
        y = np.where((n <= s)[:, None], c, np.where(on_arc[:, None], arc, rim))
    ok = (a <= s) & (hn <= s)
    return ok & (np.linalg.norm(e - dt[:, None] * y, axis=-1) <= 2.0 * s ** 3), y


def kinetic_distance_batch(t1, x1, v1, t2, x2, v2):
    """Vectorized kinetic distance for arrays of point pairs.

    Arrays: t* shape (B,), x*/v* shape (B, d), also at d = 1; any other
    shape raises ValueError.  Minimizes over the velocity shift w the
    objective

        max(|t1-t2|^{1/2}, |v1-w|, |v2-w|, 2^{-1/3} |(x1-x2) - (t1-t2) w|^{1/3})

    by bisection on its level s (the objective is quasiconvex in w).  The
    level set is empty for s < |t1-t2|^{1/2} and otherwise the intersection
    of B(v1, s), B(v2, s) and B((x1-x2)/(t1-t2), 2 s^3/|t1-t2|), or, when
    t1 == t2, of the first two if |x1-x2| <= 2 s^3; _level_witness decides
    it.  Each row bisects [0, f(w0)], w0 = (v1+v2)/2, until no float lies
    strictly between the ends.

    Returns (best, gap): best is the objective at an explicit witness, w0
    or the point found at the lowest level that passed; best - gap is the
    highest level that failed, lowered by the test's rounding allowance, so
    a certified lower end.  gap is a few ulps of the magnitudes involved on
    every row.

    Rows are independent: every operation reads only its own row's state,
    and a row stops by its own rule, so a row's (best, gap) is bit for bit
    the same whatever other rows share its batch, and the batch of
    concatenated pair sets returns the concatenation of their separate
    results.  `lab verify-geometry` relies on this to take all its
    distances from one call.
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
    a = np.abs(dt) ** 0.5
    w0 = 0.5 * (v1 + v2)
    h = 0.5 * (v1 - v2)
    e = dx - dt[:, None] * w0
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where((dt != 0.0)[:, None], e / dt[:, None], 0.0)

    lo = np.zeros_like(dt)
    f0 = hi = _distance_objective(w0, dt, dx, v1, v2, a=a)
    y = np.zeros_like(w0)
    for _ in range(_MAX_HALVINGS):
        live = np.nextafter(lo, np.inf) < hi
        if not live.any():
            break
        s = 0.5 * (lo + hi)
        ok, y_s = _level_witness(s, a, h, c, e, dt)
        ok &= live
        hi = np.where(ok, s, hi)
        lo = np.where(live & ~ok, s, lo)
        y = np.where(ok[:, None], y_s, y)
    best = np.minimum(f0, _distance_objective(w0 + y, dt, dx, v1, v2, a=a))
    # a failed test shows the level empty with the ball radius lowered by
    # eta_v and the bound 2 lo^3 by eta_x, which lowers a cube root by at
    # most eta_x / (2 lo^2)
    scale = np.linalg.norm(w0, axis=-1) + np.linalg.norm(h, axis=-1) + lo
    eta_v = _SLACK * scale
    eta_x = _SLACK * (2.0 * lo ** 3 + np.linalg.norm(dx, axis=-1) + np.abs(dt) * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = lo - np.maximum(eta_v, eta_x / (2.0 * lo * lo))
    return best, best - np.where(lower > 0.0, lower, 0.0)


def kinetic_distance(z1, z2, tol=1e-9):
    """Kinetic distance between two phase points, to absolute accuracy tol.

    Symmetric, left invariant, 1-homogeneous under the kinetic dilation, and
    sandwiched between 0.5*|z2^{-1} o z1|_inf and |z2^{-1} o z1|_inf.  The
    B = 1 row of kinetic_distance_batch; raises DistanceConvergenceError
    when its certified gap exceeds tol, which only a tol below the float
    resolution of the bracket can cause.
    """
    if z1.d != z2.d:
        raise ValueError("dimension mismatch")
    if not float(tol) > 0:  # NaN too
        raise ValueError("tol must be positive")
    best, gap = kinetic_distance_batch(
        np.array([z1.t]), z1.x[None, :], z1.v[None, :],
        np.array([z2.t]), z2.x[None, :], z2.v[None, :])
    if gap[0] > tol:
        raise DistanceConvergenceError(float(best[0]), float(gap[0]))
    return float(best[0])
