"""Covering algorithms and raster verification of the measure-theoretic lemmas.

Vitali selection and pairwise disjointness use exact geometric predicates;
everything involving measures of unions of slanted cylinders is rasterized
on uniform lattices with a reported boundary-cell slack.  The continuum
"for every cylinder" quantifiers are replaced by documented finite families
(dyadic radii, lattice-centered anchors); reports record the family used.

Cylinder window sums come from prefix sums (summed-area tables) built only
over the cells the requested anchors' windows reach, and are taken only at
the stride anchors (every stride-th cell) of the requested box.  The
ink-spots checks ask for the stride anchors of the bounding box of their
admissible anchors.  They sum 0/1 masks as integers, with no float copy, so
the box changes no bit.
The maximal function asks for every anchor, the full-lattice computation.
Ink-spots synthesis adds, and the check tests, one union of stacks per radius.
Both read the anchor stride from the geometry (_STRIDE): every lattice cell
for parabolic, every second cell along each axis for kinetic, so an instance
is always checked over the family it was built from.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .gridfn import Axis
from .geometry import (EuclideanBall, KineticCylinder, ParabolicCylinder,
                       StackedCylinder, _cylinder_at, _unit_ball_volume,
                       cylinder_mask, dilate_5Q)

__all__ = [
    "CylinderFamily", "IntervalFamily", "RasterMask", "regions_intersect",
    "vitali_select", "maximal_function", "maximal_inequality_constant",
    "interval_stack_ratio", "stacked_union_ratio", "ink_spots_check",
    "synthesize_ink_spots_instance", "crawling_constant", "leak_constant",
]


# ---------------------------------------------------------------------------
# Families and exact predicates
# ---------------------------------------------------------------------------

_KINDS = (EuclideanBall, ParabolicCylinder, KineticCylinder)


@dataclass
class CylinderFamily:
    members: list

    def __post_init__(self):
        if self.members:
            kinds = {type(q) for q in self.members}
            if len(kinds) > 1:
                raise ValueError("family must be homogeneous")
            if type(self.members[0]) not in _KINDS:
                raise TypeError("unsupported region type")


@dataclass
class IntervalFamily:
    """Pairs (a_k, h_k) describing intervals (a_k - h_k, a_k]."""
    pairs: list

    def __post_init__(self):
        for a, h in self.pairs:
            if not (h > 0):
                raise ValueError("h_k must be positive")


def _time_overlap(a1, b1, a2, b2):
    # (a1, b1] and (a2, b2] share a point iff min(b) > max(a)
    return min(b1, b2) > max(a1, a2)


def regions_intersect(q1, q2):
    """Exact nonempty-intersection predicate for same-kind regions."""
    if type(q1) is not type(q2):
        raise TypeError("mixed region kinds")
    if isinstance(q1, EuclideanBall):
        return bool(np.linalg.norm(q1.center - q2.center) < q1.radius + q2.radius)
    if isinstance(q1, ParabolicCylinder):
        return (_time_overlap(q1.t0 - q1.radius ** 2, q1.t0,
                              q2.t0 - q2.radius ** 2, q2.t0)
                and bool(np.linalg.norm(q1.x0 - q2.x0) < q1.radius + q2.radius))
    if isinstance(q1, KineticCylinder):
        z1, r1 = q1.center, q1.radius
        z2, r2 = q2.center, q2.radius
        if not _time_overlap(z1.t - r1 * r1, z1.t, z2.t - r2 * r2, z2.t):
            return False
        if not np.linalg.norm(z1.v - z2.v) < r1 + r2:
            return False
        # x-slabs travel along the anchors' velocities; minimize the
        # separation |p + t q| of the slab centers over the common times
        ta, tb = max(z1.t - r1 * r1, z2.t - r2 * r2), min(z1.t, z2.t)
        p = (z1.x - z1.t * z1.v) - (z2.x - z2.t * z2.v)
        qv = z1.v - z2.v
        q2n = float(qv @ qv)
        tstar = tb if q2n == 0.0 else float(np.clip(-(p @ qv) / q2n, ta, tb))
        sep = float(np.linalg.norm(p + tstar * qv))
        return sep < r1 ** 3 + r2 ** 3
    raise TypeError("unsupported region type")


def vitali_select(family):
    """Dyadic-class greedy selection of pairwise disjoint cylinders.

    Classes F_n = {R/2^n < r <= R/2^{n-1}} are swept from large to small;
    inside a class the maximal disjoint sub-family is grown greedily in
    input order.  Every input region intersects some selected region of at
    least half its radius, hence lies inside its 5Q enlargement.
    """
    members = family.members if isinstance(family, CylinderFamily) else list(family)
    if not members:
        return []
    radii = np.array([q.radius for q in members])
    R = radii.max()
    order = {}
    for i, r in enumerate(radii):
        n = 0 if r > R / 2 else int(math.floor(math.log2(R / r))) + 1
        # place radius exactly R/2^n on the class boundary into class n
        while r <= R / 2 ** n:
            n += 1
        order.setdefault(n - 1, []).append(i)
    selected = []
    for n in sorted(order):
        for i in order[n]:
            if all(not regions_intersect(members[i], members[j]) for j in selected):
                selected.append(i)
    return selected


# ---------------------------------------------------------------------------
# Raster masks
# ---------------------------------------------------------------------------

class RasterMask:
    """Boolean lattice over a box; measure() = true-cell count x cell volume."""

    def __init__(self, axes, mask=None):
        self.axes = tuple(axes)
        shape = tuple(a.n for a in self.axes)
        self.mask = np.zeros(shape, dtype=bool) if mask is None else np.asarray(mask, bool)
        if self.mask.shape != shape:
            raise ValueError("mask shape mismatch")

    @classmethod
    def for_box(cls, bounds, roles, cells_per_unit=128):
        axes = []
        for (lo, hi), role in zip(bounds, roles):
            n = int(np.clip(round((hi - lo) * cells_per_unit), 24, 384))
            axes.append(Axis(role, lo, hi, n))
        return cls(axes)

    @property
    def cell_volume(self):
        vol = 1.0
        for a in self.axes:
            vol *= a.h
        return vol

    def grids(self):
        """Open-mesh cell centers, broadcastable to the lattice shape."""
        return np.ix_(*[a.centers() for a in self.axes])

    def measure(self):
        return float(self.mask.sum()) * self.cell_volume

    def rasterize(self, region):
        return cylinder_mask(region, self.grids())

    def add(self, region):
        self.mask |= self.rasterize(region)

    def boundary_slack(self):
        """Volume of the one-cell boundary layer of the current mask."""
        # dilation and erosion (cross structure, zero border) are both False
        # outside the mask's bounding box padded by one cell
        box = _bounding_box(self.mask, pad=1)
        if box is None:
            return 0.0
        sub = self.mask[box]
        dil = ndimage.binary_dilation(sub)
        ero = ndimage.binary_erosion(sub)
        return float((dil & ~ero).sum()) * self.cell_volume


# ---------------------------------------------------------------------------
# Cylinder window sums on lattices
# ---------------------------------------------------------------------------

def _window_offsets(shift, half, h):
    """Integer cell-offset range for the open window (shift-half, shift+half)."""
    lo = math.floor(shift / h - half / h) + 1
    hi = math.ceil(shift / h + half / h) - 1
    return lo, hi


def _bounding_box(mask, pad=0):
    """Index slices of the smallest box holding every True cell of mask,
    widened by pad cells and clipped to the array; None if mask is empty."""
    box = []
    for ax, n in enumerate(mask.shape):
        others = tuple(a for a in range(mask.ndim) if a != ax)
        hit = np.flatnonzero(mask.any(axis=others))
        if hit.size == 0:
            return None
        box.append(slice(max(int(hit[0]) - pad, 0), min(int(hit[-1]) + 1 + pad, n)))
    return tuple(box)


def _cyl_sums_kinetic(vals, axes, r, box, stride):
    """Kinetic window sums for the anchors a0::stride, b0::stride, c0::stride
    of box = ((a0, a1), (b0, b1), (c0, c1))."""
    (a0, a1), (b0, b1), (c0, c1) = box
    Nt, Nx, Nv = vals.shape
    dt, dx, dv = axes[0].h, axes[1].h, axes[2].h
    vc = axes[2].centers()[c0:c1]
    kmax = math.ceil(r * r / dt) - 1
    mv = math.ceil(r / dv) - 1
    # integer x-window bounds per (time offset k, anchor velocity j)
    kk = np.arange(kmax + 1)[:, None]
    shift = -kk * dt * vc[None, :]
    LO = np.floor(shift / dx - r ** 3 / dx).astype(int) + 1
    HI = np.ceil(shift / dx + r ** 3 / dx).astype(int) - 1
    # prefix sums only over the cells the box's windows reach: time rows
    # t0..a1, x cells x0..x1, v cells v0..v1 (the full lattice for the full box)
    t0 = max(a0 - kmax, 0)
    x0 = min(max(b0 + int(LO.min()), 0), Nx)
    x1 = min(max(b1 + int(HI.max()), 0), Nx)
    v0, v1 = max(c0 - mv, 0), min(c1 + mv, Nv)
    LO, HI = LO[:, ::stride], HI[:, ::stride]
    counts = (HI - LO + 1).sum(axis=0) * (2 * mv + 1)
    acc = _accumulator(vals)
    # window sums along v at the anchor velocities (clipped at the box; anchors
    # near the v-edge see a truncated numerator, counts use the full width)
    Cv = np.zeros((a1 - t0, x1 - x0, v1 - v0 + 1), acc)
    np.cumsum(vals[t0:a1, x0:x1, v0:v1], axis=2, out=Cv[:, :, 1:])
    j = np.arange(c0, c1, stride)
    jlo = np.clip(j - mv, 0, Nv) - v0
    jhi = np.clip(j + mv + 1, 0, Nv) - v0
    Cx = np.zeros((a1 - t0, x1 - x0 + 1, j.size), acc)
    np.cumsum(Cv[:, :, jhi] - Cv[:, :, jlo], axis=1, out=Cx[:, 1:])
    # one gather per time offset from the (t, x.v) rows of Cx
    flat = Cx.reshape(a1 - t0, -1)
    c = np.arange(b0, b1, stride)[:, None]
    jb = np.arange(j.size)[None, :]
    sums = np.zeros((len(range(a0, a1, stride)), c.size, j.size), acc)
    for k in range(kmax + 1):
        # anchor rows a >= k read data row a - k; local data row a - k - t0
        p = max(-((a0 - k) // stride), 0)
        a = a0 + p * stride
        if a >= a1:
            break
        ilo = (np.clip(c + LO[k], 0, Nx) - x0) * j.size + jb
        ihi = (np.clip(c + HI[k] + 1, 0, Nx) - x0) * j.size + jb
        win = np.take(flat[a - k - t0:a1 - k - t0:stride], (ihi, ilo), axis=1)
        sums[p:] += win[:, 0] - win[:, 1]
    return sums, np.broadcast_to(counts.astype(float), sums.shape)


def _cyl_sums_parabolic(vals, axes, r, box, stride):
    """Parabolic analogue of _cyl_sums_kinetic on a (t, x) lattice."""
    (a0, a1), (b0, b1) = box
    Nt, Nx = vals.shape
    dt, dx = axes[0].h, axes[1].h
    kmax = math.ceil(r * r / dt) - 1
    lo, hi = _window_offsets(0.0, r, dx)
    t0 = max(a0 - kmax, 0)
    x0, x1 = min(max(b0 + lo, 0), Nx), min(max(b1 + hi, 0), Nx)
    acc = _accumulator(vals)
    Cx = np.zeros((a1 - t0, x1 - x0 + 1), acc)
    np.cumsum(vals[t0:a1, x0:x1], axis=1, out=Cx[:, 1:])
    c = np.arange(b0, b1, stride)
    ilo = np.clip(c + lo, 0, Nx) - x0
    ihi = np.clip(c + hi + 1, 0, Nx) - x0
    Ct = np.zeros((a1 - t0 + 1, c.size), acc)
    np.cumsum(Cx[:, ihi] - Cx[:, ilo], axis=0, out=Ct[1:])
    i = np.arange(a0, a1, stride)
    tlo = np.clip(i - kmax, 0, Nt) - t0
    thi = i + 1 - t0
    sums = Ct[thi] - Ct[tlo]
    counts = float((hi - lo + 1) * (kmax + 1))
    return sums, np.full(sums.shape, counts)


def _accumulator(vals):
    """Prefix-sum dtype: integers for a 0/1 mask, floats otherwise."""
    return np.int64 if vals.dtype == bool else np.float64


def _cyl_sums(vals, axes, r, geometry, box=None, stride=1):
    """Sums of zero-extended vals over Q_r anchored at the cell centres of box.

    box is a tuple of index slices (None: the whole lattice); the anchors are
    every stride-th cell of it along each axis, from its first cell.  Returns
    (sums, counts) on those anchors, counts being the full-cylinder cell count
    (the cylinder is not clipped at the lattice; outside cells contribute 0).
    Prefix sums are built only over the cells the box's windows reach, and
    are read only at the anchors; the stride leaves every sum unchanged.  On
    the whole lattice this is the full-lattice computation; on a smaller box
    the prefix sums start at another origin, which leaves the sums exact for
    a boolean mask (summed as integers) but may move low bits of float data.
    """
    if box is None:
        box = (slice(None),) * vals.ndim
    bounds = [s.indices(n)[:2] for s, n in zip(box, vals.shape)]
    if geometry == "kinetic":
        return _cyl_sums_kinetic(vals, axes, r, bounds, stride)
    if geometry == "parabolic":
        return _cyl_sums_parabolic(vals, axes, r, bounds, stride)
    raise ValueError(f"unknown geometry {geometry!r}")


def maximal_function(g):
    """Discrete maximal function over anchored dyadic cylinders.

    Family: for every grid point z and every dyadic radius, the cylinder
    Q_r(z) anchored at z (z is its top center, hence contained in it).  The
    cell-averages use the full cylinder volume with g extended by zero, so
    the result under-estimates the continuum maximal function and inherits
    its weak (1,1) inequality.
    """
    roles = g.roles()
    geometry = "kinetic" if "v" in roles else "parabolic"
    rmax = math.sqrt(g.axes[0].hi - g.axes[0].lo)
    radii = [rmax / 2 ** k for k in range(4)]
    vals = np.abs(g.values)
    best = np.zeros_like(vals)
    for r in radii:
        s, cnt = _cyl_sums(vals, g.axes, r, geometry)
        np.maximum(best, s / cnt, out=best)
    return g.copy_with(best)


def maximal_inequality_constant(g, Mg, kappas):
    """max over kappa of |{Mg > kappa}| kappa / ||g||_1."""
    l1 = g.norm_lp(1)
    vol = g.cell_volume
    worst = 0.0
    for kappa in kappas:
        meas = float((Mg.values > kappa).sum()) * vol
        worst = max(worst, meas * kappa / l1) if l1 > 0 else worst
    return worst


# ---------------------------------------------------------------------------
# Interval stacking and stacked cylinder unions
# ---------------------------------------------------------------------------

def _union_measure(intervals):
    """Exact measure of a finite union of intervals given as (lo, hi)."""
    ivs = sorted((lo, hi) for lo, hi in intervals if hi > lo)
    total = 0.0
    cur_lo, cur_hi = None, None
    for lo, hi in ivs:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class StackRatioReport:
    measure_stacked: float
    measure_base: float
    ratio: float
    bound: float
    slack: float
    passed: bool


def interval_stack_ratio(family, m):
    """Compare |U (a_k, a_k + m h_k)| against |U (a_k - h_k, a_k]| exactly."""
    pairs = family.pairs if isinstance(family, IntervalFamily) else list(family)
    stacked = _union_measure([(a, a + m * h) for a, h in pairs])
    base = _union_measure([(a - h, a) for a, h in pairs])
    ratio = math.inf if base == 0.0 else stacked / base
    bound = m / (m + 1.0)
    return StackRatioReport(stacked, base, ratio, bound, 0.0, ratio >= bound)


def _family_bounds(members, m):
    """Bounding box covering every base cylinder and its m-stack."""
    kin = isinstance(members[0], KineticCylinder)
    lo = None
    hi = None
    for q in members:
        r = q.radius
        if kin:
            z0 = q.center
            span_v = np.abs(z0.v) * max(r * r, m * r * r)
            xw = (m + 2) * r ** 3 + span_v
            l = np.concatenate([[z0.t - r * r], z0.x - xw, z0.v - r])
            h = np.concatenate([[z0.t + m * r * r], z0.x + xw, z0.v + r])
        else:
            l = np.concatenate([[q.t0 - r * r], q.x0 - r])
            h = np.concatenate([[q.t0 + m * r * r], q.x0 + r])
        lo = l if lo is None else np.minimum(lo, l)
        hi = h if hi is None else np.maximum(hi, h)
    return lo, hi


def stacked_union_ratio(family, m, cells_per_unit=128):
    """Raster comparison |U stacked| >= m/(m+1) |U base| with reported slack."""
    members = family.members if isinstance(family, CylinderFamily) else list(family)
    if not members:
        raise ValueError("empty family")
    kin = isinstance(members[0], KineticCylinder)
    d = members[0].d
    roles = ["t"] + ["x"] * d + ["v"] * d if kin else ["t"] + ["x"] * d
    lo, hi = _family_bounds(members, m)
    pad = 0.02 * (hi - lo)
    bounds = list(zip(lo - pad, hi + pad))
    base = RasterMask.for_box(bounds, roles, cells_per_unit)
    stacked = RasterMask(base.axes)
    for q in members:
        base.add(q)
        stacked.add(StackedCylinder(q, m))
    mb, ms = base.measure(), stacked.measure()
    slack = base.boundary_slack() + stacked.boundary_slack()
    ratio = math.inf if mb == 0.0 else ms / mb
    bound = m / (m + 1.0)
    passed = ms + slack >= bound * max(mb - slack, 0.0)
    return StackRatioReport(ms, mb, ratio, bound, slack, passed)


# ---------------------------------------------------------------------------
# Ink spots
# ---------------------------------------------------------------------------

_MU = 0.5      # a family cylinder is half-filled when E fills more than _MU of it
_K_CAP = 6     # the family's dyadic radii stop at 2**-_K_CAP
_N_SEEDS = 4   # a synthesized E is the union of _N_SEEDS small cylinders
_STRIDE = {"parabolic": 1, "kinetic": 2}   # anchors on every _STRIDE-th cell per axis


def crawling_constant(d):
    """The measure-decay constant of the crawling ink spots lemma, the same
    for both geometries: 5^{-1-d} _MU / 2 = 5^{-1-d} 2^{-2}."""
    return 5.0 ** (-1 - d) * _MU / 2.0


def leak_constant(d, geometry):
    """Constant C in the leakage allowance C m r0^2 of the stacked covering."""
    ball = _unit_ball_volume(d)
    if geometry == "parabolic":
        return ball
    return (1.0 + d * 2.0 ** d) * ball ** 2


def _stack_union(axes, geometry, m, r, hot):
    """Boolean lattice of the union of the m-stacks of the radius-r
    cylinders anchored at the cell centres hot (an (n, ndim) array of
    lattice indices).  Membership uses cylinder_mask's float operations in
    its order, so one anchor gives cylinder_mask(StackedCylinder(base, m))
    on the whole lattice, bit for bit."""
    centers = [a.centers() for a in axes]
    union = np.zeros(tuple(a.n for a in axes), dtype=bool)
    if len(hot) == 0:
        return union
    # T[i, i'] iff time row i' lies in the stacks anchored on row rows[i]
    t = centers[0]
    rows, ri = np.unique(hot[:, 0], return_inverse=True)
    dt = t[None, :] - t[rows, None]
    T = (dt > 0.0) & (dt < m * r * r)
    if geometry == "parabolic":
        # cell (i', j') lies in the stack of anchor (i, j) iff T[i, i'] and
        # X[j, j'], over the x columns that hold an anchor
        x = centers[1]
        cols, cj = np.unique(hot[:, 1], return_inverse=True)
        X = (x[None, :] - x[cols, None]) ** 2 < r * r
        H = np.zeros((rows.size, cols.size), dtype=np.float32)
        H[ri, cj] = 1.0
        # each partial sum counts anchors, at most 384 * 384 < 2**24 (the cap of
        # RasterMask.for_box), so float32 is exact in any BLAS order or threads
        return T.T.astype(np.float32) @ H @ X.astype(np.float32) > 0
    x, v = centers[1], centers[2]
    xw = (m + 2) * r ** 3
    # each predicate below is monotone along its axis, so a stack's time rows
    # are the run first:last of its T row and its velocities are one run too
    first = T.argmax(axis=1)[ri]
    last = first + T.sum(axis=1)[ri]
    # each stack's x cells lo:hi, its bounding box widened by one cell
    xc, vc, ax = x[hot[:, 1]], v[hot[:, 2]], axes[1]
    lo = np.maximum(np.floor((xc + np.minimum(0.0, m * r * r * vc) - xw - ax.lo)
                             / ax.h).astype(int) - 1, 0)
    hi = np.minimum(np.ceil((xc + np.maximum(0.0, m * r * r * vc) + xw - ax.lo)
                            / ax.h).astype(int) + 1, ax.n)
    # anchors of one velocity share their stacks' velocities: their (t, x)
    # windows are ORed into one plane, which makes one 3-D update
    order = np.argsort(hot[:, 2], kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(hot[order, 2])) + 1):
        v0 = v[hot[group[0], 2]]
        vs = np.flatnonzero((v - v0) ** 2 < r * r)
        t0, t1 = int(first[group].min()), int(last[group].max())
        x0, x1 = int(lo[group].min()), int(hi[group].max())
        plane = np.zeros((t1 - t0, x1 - x0), dtype=bool)
        for g, j, p, q, a, b in zip(ri[group].tolist(), hot[group, 1].tolist(),
                                    first[group].tolist(), last[group].tolist(),
                                    lo[group].tolist(), hi[group].tolist()):
            near = (x[a:b] - x[j] - dt[g, p:q, None] * v0) ** 2 < xw * xw
            plane[p - t0:q - t0, a - x0:b - x0] |= near
        union[t0:t1, x0:x1, vs[0]:vs[-1] + 1] |= plane[:, :, None]
    return union


@dataclass
class InkSpotsReport:
    measure_E: float
    measure_F_in_Q1: float
    c: float
    C: float
    m: int
    r0: float
    rhs: float
    passed: bool
    hypothesis_ok: bool
    violations: list
    family: dict


def _anchor_admissible(mask_obj, geometry, r, stride):
    """Anchors on the stride sublattice (every stride-th cell from index 0)
    whose cylinder Q_r is contained in Q1 (d = 1 lattices).

    Returns (box, adm): box the index slices of the smallest box holding every
    such anchor, adm their mask on the box's sublattice; (None, None) if there
    are none.  Each condition involves t alone or space alone, so adm is the
    outer product of a t mask and an x (and v) mask.
    """
    centers = [a.centers()[::stride] for a in mask_obj.axes]
    t = centers[0]
    ok_t = (t <= 0.0) & (t - r * r > -1.0)
    if geometry == "parabolic":
        ok_s = np.abs(centers[1]) + r < 1.0
    else:
        x, v = centers[1][:, None], centers[2][None, :]
        ok_s = (np.abs(x) + r * r * np.abs(v) + r ** 3 < 1.0) & (np.abs(v) + r < 1.0)
    box_t, box_s = _bounding_box(ok_t), _bounding_box(ok_s)
    if box_t is None or box_s is None:
        return None, None
    adm = ok_t[box_t].reshape((-1,) + (1,) * ok_s.ndim) & ok_s[box_s]
    box = tuple(slice(s.start * stride, (s.stop - 1) * stride + 1) for s in box_t + box_s)
    return box, adm


def _dyadic_radii(mask_obj, geometry):
    """Dyadic radii kept raster-resolved (>= 2 cells per cylinder half-axis)."""
    dt = mask_obj.axes[0].h
    dx = mask_obj.axes[1].h
    radii = []
    for k in range(_K_CAP + 1):
        r = 2.0 ** (-k)
        fine = r ** 3 if geometry == "kinetic" else r
        if r * r < 2 * dt or fine < 2 * dx:
            break
        radii.append(r)
    return radii


def _hot_anchors(E, geometry, r, stride):
    """Lattice indices, in C order, of the admissible anchors on the stride
    sublattice whose Q_r is more than _MU-filled by E.  Window sums are taken
    only at those sublattice anchors that lie in the anchors' bounding box."""
    box, adm = _anchor_admissible(E, geometry, r, stride)
    if box is None:
        return np.empty((0, E.mask.ndim), dtype=int)
    sums, counts = _cyl_sums(E.mask, E.axes, r, geometry, box, stride)
    hot = (sums > _MU * counts) & adm
    return np.argwhere(hot) * stride + [s.start for s in box]


def ink_spots_check(E, F, geometry, m, r0):
    """Verify the stacked ink-spots inequality on rasterized sets.

    E, F: RasterMask objects on the same (extended) box containing Q1.
    Hypothesis, over the documented family (dyadic radii, anchors at every
    admissible cell of the _STRIDE[geometry] sublattice): every family
    cylinder Q inside Q1 with |Q cap E| > _MU |Q| must have radius < r0 and
    its m-stack inside F.
    The stack containment is checked for every such cylinder at once, as
    the containment of the union of their stacks.  Each failing radius
    gives one violation naming its first offending anchor in C order.
    Conclusion: |E| <= (m+1)/m (1-c) (|F cap Q1| + C m r0^2).
    """
    d = 1
    if E.axes != F.axes:
        raise ValueError("E and F must share a lattice")
    vol = E.cell_volume
    q1 = E.rasterize(_cylinder_at((0.0, 0.0, 0.0), 1.0, geometry))
    if np.any(E.mask & ~F.mask) or np.any(E.mask & ~q1):
        raise ValueError("precondition E subset of F cap Q1 violated")
    measure_E = E.measure()
    measure_F_q1 = float((F.mask & q1).sum()) * vol

    radii = _dyadic_radii(E, geometry)
    stride = _STRIDE[geometry]
    violations = []
    flagged = 0
    for r in radii:
        hot = _hot_anchors(E, geometry, r, stride)
        if len(hot) == 0:
            continue
        if r >= r0:
            violations.append({"radius": r, "anchor_index": hot[0].tolist(),
                               "reason": "half-filled cylinder with r >= r0"})
            continue
        flagged += len(hot)
        missing = _stack_union(E.axes, geometry, m, r, hot) & ~F.mask
        if missing.any():
            idx = next(a for a in hot if np.any(
                _stack_union(E.axes, geometry, m, r, a[None]) & ~F.mask))
            violations.append({"radius": r, "anchor_index": idx.tolist(),
                               "reason": "stacked cylinder not inside F",
                               "missing_cells": int(missing.sum())})

    c = crawling_constant(d)
    C = leak_constant(d, geometry)
    rhs = (m + 1.0) / m * (1.0 - c) * (measure_F_q1 + C * m * r0 ** 2)
    hypothesis_ok = not violations
    passed = hypothesis_ok and measure_E <= rhs + E.boundary_slack()
    family = {"radii": radii, "anchor_stride": stride,
              "anchors": "admissible lattice cells on the stride sublattice",
              "mu": _MU, "flagged": flagged, "stack_checked": flagged}
    return InkSpotsReport(measure_E, measure_F_q1, c, C, m, r0, rhs, passed,
                          hypothesis_ok, violations, family)


def synthesize_ink_spots_instance(geometry, m, r0, rng, cells_per_unit=96):
    """Build an admissible (E, F) pair: E a union of _N_SEEDS small cylinders
    deep in Q1, F the union of E with the m-stacks of every half-filled family
    cylinder, so the theorem hypothesis holds by construction.  Raises
    ValueError when the lattice resolves no dyadic radius below r0; when
    the smallest resolved radius is 1, which no r0 in (0, 1] is above, the
    message names m as the m_ink of `lab covering`."""
    s = min(m * r0 * r0, 1.0)
    if geometry == "parabolic":
        roles = ["t", "x"]
        bounds = [(-1.0, s), (-1.0 - s, 1.0 + s)]
    else:
        roles = ["t", "x", "v"]
        xw = s + (m + 2) * r0 ** 3
        bounds = [(-1.0, s), (-1.0 - xw, 1.0 + xw), (-1.0, 1.0)]
    E = RasterMask.for_box(bounds, roles, cells_per_unit)
    radii_avail = _dyadic_radii(E, geometry)
    if not radii_avail:
        raise ValueError(f"m = {m} and r0 = {r0} leave the ink-spots lattice "
                         "no resolved dyadic radius")
    if radii_avail[-1] >= 1.0:
        # no r0 in (0, 1] is above it; a smaller m gives a finer lattice
        raise ValueError(f"m_ink must be below {m} at r0 = {r0}: the smallest "
                         f"dyadic radius the ink-spots lattice resolves is "
                         f"{radii_avail[-1]}, and r0 must be above it")
    if radii_avail[-1] >= r0:
        # seeds of radius >= r0 would break the hypothesis in every instance
        raise ValueError(f"r0 must be above {radii_avail[-1]}, the smallest dyadic "
                         f"radius the ink-spots lattice resolves, got {r0}")
    small = [r for r in radii_avail if r < 0.6 * r0] or [radii_avail[-1]]
    for _ in range(_N_SEEDS):
        r = small[int(rng.integers(len(small)))] * float(rng.uniform(0.8, 1.0))
        t0 = float(rng.uniform(-0.9 + r * r, -0.05))
        if geometry == "parabolic":
            anchor = (t0, float(rng.uniform(-0.9 + r, 0.9 - r)))
        else:
            v0 = float(rng.uniform(-0.9 + r, 0.9 - r))
            anchor = (t0, float(rng.uniform(-0.8, 0.8)), v0)
        E.add(_cylinder_at(anchor, r, geometry))
    E.mask &= E.rasterize(_cylinder_at((0.0, 0.0, 0.0), 1.0, geometry))

    F = RasterMask(E.axes, E.mask.copy())
    for r in _dyadic_radii(E, geometry):
        if r >= r0:
            # large half-filled cylinders would violate the hypothesis; the
            # synthesized E is sparse enough that none occur (checked below)
            continue
        F.mask |= _stack_union(E.axes, geometry, m, r,
                               _hot_anchors(E, geometry, r, _STRIDE[geometry]))
    return E, F
