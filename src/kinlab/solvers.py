"""Finite-difference solvers for divergence-form equations with rough
coefficients: steady diffusion, time-dependent diffusion, and the kinetic
transport-diffusion equation

    d_t f + v . grad_x f = div_v(A grad_v f) + B . grad_v f + S.

Coefficients are measurable scalar fields with values in [lam, Lam]; no
smoothness is assumed anywhere.  Spatial discretization is a symmetric
face-flux scheme on uniform cell-centered lattices: the face coefficient is
the arithmetic mean of the field in the two adjacent cells, applied to the
face-normal difference quotient; the elliptic, parabolic and kinetic v
operators share this one rule.
Elliptic and parabolic problems are Dirichlet on the whole boundary of the
box; kinetic problems are periodic in x and Dirichlet 0 in v.  Dirichlet
data is imposed at ghost cell centers half a cell outside the box, which
keeps the stencil symmetric and exact on quadratic polynomials.  Both are
solved to relative residual _TOL by conjugate gradients preconditioned by
one symmetric multigrid V-cycle, built once per solve: coarse levels are
the same operator on lattices of ceil(n/2) cells per axis, with injection
and its scaled transpose as transfers, damped Jacobi smoothing and an exact
solve on the coarsest level.  Operator and V-cycle are built with
floating-point errors raised, so a lattice whose h^2 is 0 or inf is a
SolverError at once.  Solver and V-cycle work in preallocated buffers, so
an iteration allocates no array, and call no BLAS routine: every inner
product and norm is a pairwise `.sum()`.  The operator takes each
neighbour difference as one contiguous pass at a fixed flat shift.

Time stepping is implicit Euler throughout (no stability constraint).  The
kinetic solver splits each step into an exact semi-Lagrangian shift
x <- x - v dt with linear interpolation (periodic in x), followed by an
implicit diffusion-drift solve in v, batched over x by a Thomas sweep.  The
shift's gather indices and weights and the sweep's factor depend only on
the problem and dt, so they are computed once per solve; each step then
sweeps a v-major (Nv, Nx) buffer row by row, all x columns at once.
The parabolic solver stores every time step in info["history"].  The
kinetic solver keeps one x-major slice buffer and either hands it to an
observer after every step, storing nothing, or stores a copy of each slice
in info["history"].
"""

import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gridfn import Axis, GridFunction
from .kernel import Bump

__all__ = [
    "CoefficientField", "Problem", "Solution", "SolverError",
    "make_coefficients", "solve_elliptic", "solve_parabolic",
    "solve_kinetic_fp", "residual_check", "default_bumps",
]


class SolverError(RuntimeError):
    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

_FIELD_KINDS = ("identity", "checkerboard", "random-piecewise-constant",
                "rotating-anisotropy")
_SPEC_KEYS = {"kind", "lam", "Lam", "tiles"}


@dataclass
class CoefficientField:
    """Scalar field with values in [lam, Lam]; the identity kind is 1.

    kind selects the evaluation rule; the checkerboard and random kinds are
    constant on each of the tiles^dp tiles of [-1, 1]^dp, and the random
    kind draws its per-tile values from seed for the dimension dp of the
    points it samples.  sample(points) maps (..., dp) point arrays to (...)
    value arrays.
    """
    kind: str
    lam: float
    Lam: float
    tiles: int = 8
    seed: int = 0

    def _tile_index(self, pts):
        """Per point axis, the tile index of each point in [-1, 1]^dp."""
        # clip, then cast: a coordinate past the int64 range would otherwise
        # cast to an arbitrary tile
        idx = np.clip(np.floor((pts + 1.0) / 2.0 * self.tiles), 0, self.tiles - 1)
        return np.moveaxis(idx.astype(int), -1, 0)

    def sample(self, points):
        pts = np.asarray(points, dtype=float)
        base = pts.shape[:-1]
        if self.kind == "identity":
            return np.ones(base)
        if self.kind == "checkerboard":
            parity = np.zeros(base, dtype=int)
            for a in self._tile_index(pts):
                parity += a
            return np.where(parity % 2 == 0, self.lam, self.Lam)
        if self.kind == "random-piecewise-constant":
            flat = np.zeros(base, dtype=int)
            for a in self._tile_index(pts):
                flat = flat * self.tiles + a
            rng = np.random.default_rng(self.seed)
            return rng.uniform(self.lam, self.Lam, self.tiles ** pts.shape[-1])[flat]
        if self.kind == "rotating-anisotropy":
            u = np.sin(3.0 * pts.sum(axis=-1))
            return 0.5 * (self.lam + self.Lam) + 0.5 * (self.Lam - self.lam) * u
        raise ValueError(f"unknown coefficient kind {self.kind!r}")


def make_coefficients(spec, seed=0):
    """Build a CoefficientField from a plain dict spec.

    Keys: kind, lam, Lam, tiles; any other key is a ValueError, and so is
    an identity field whose band [lam, Lam] does not hold its value 1.
    """
    unknown = sorted(set(spec) - _SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown coefficient spec keys {unknown}")
    kind = spec["kind"]
    if kind not in _FIELD_KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    lam = float(spec.get("lam", 1.0))
    Lam = float(spec.get("Lam", 1.0))
    if not (0 < lam <= Lam):
        raise ValueError("need 0 < lam <= Lam")
    if kind == "identity" and not (lam <= 1.0 <= Lam):
        raise ValueError("the identity coefficient is 1: need lam <= 1 <= Lam")
    return CoefficientField(kind, lam, Lam, int(spec.get("tiles", 8)), seed)


# ---------------------------------------------------------------------------
# Problems and solutions
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    kind: str                      # elliptic | parabolic | kinetic-fp
    axes: list                     # spatial axes; kinetic: x axes then v axes
    coefficients: CoefficientField
    boundary: object = 0.0         # Dirichlet trace g(points) or constant
    initial: object = None         # initial data f0(points) or constant
    source: object = 0.0           # S(points) or S(t, points) or constant
    drift: object = None           # d = 1 v-component B(pts) -> pts.shape[:-1]
    t_final: float = 0.0
    nt: int = 0

    def __post_init__(self):
        if self.kind not in ("elliptic", "parabolic", "kinetic-fp"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        self._source_takes_t = callable(self.source) and _requires_two_args(self.source)

    @property
    def source_free(self):
        """True when the source is identically zero."""
        S = self.source
        if callable(S) or isinstance(S, GridFunction):
            return False
        return S is None or not np.any(np.asarray(S, dtype=float))

    def source_at(self, t, pts):
        """Source values at time t on points (..., ndim).

        A callable source is S(t, pts) when it requires two positional
        arguments and S(pts) otherwise, decided once from its signature.
        """
        if self._source_takes_t:
            return np.asarray(self.source(t, pts), dtype=float)
        return _eval(self.source, pts)


def _requires_two_args(fn):
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):      # no signature to read: S(pts)
        return False
    positional = (inspect.Parameter.POSITIONAL_ONLY,
                  inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return sum(p.kind in positional and p.default is p.empty for p in params) >= 2


@dataclass
class Solution:
    u: GridFunction
    info: dict


def _source_in_time(P, pts):
    """t -> source values on pts; a source that does not take t is
    evaluated once."""
    if P._source_takes_t:
        return lambda t: P.source_at(t, pts)
    S = P.source_at(0.0, pts)
    return lambda t: S


def _eval(data, pts):
    if data is None:
        data = 0.0
    if isinstance(data, GridFunction):
        vals, _ = data.sample(pts)
        return vals
    if callable(data):
        return np.asarray(data(pts), dtype=float)
    if isinstance(data, np.ndarray) and data.shape == pts.shape[:-1]:
        return data.astype(float)
    return np.full(pts.shape[:-1], float(data))


def _cell_points(axes):
    grids = np.meshgrid(*[a.centers() for a in axes], indexing="ij")
    return np.stack(grids, axis=-1)


# ---------------------------------------------------------------------------
# Symmetric face-flux operator on a box
# ---------------------------------------------------------------------------

def _neighbours(a, k):
    """The overlapping views a[:-1] and a[1:] along axis k."""
    head = (slice(None),) * k
    return a[head + (slice(None, -1),)], a[head + (slice(1, None),)]


def _ghost_points(pts, axis, k):
    """Ghost cell centres half a cell below and above the box along axis k,
    each of length 1 along k."""
    glo = pts.take([0], axis=k).copy()
    glo[..., k] = axis.lo - 0.5 * axis.h
    ghi = pts.take([-1], axis=k).copy()
    ghi[..., k] = axis.hi + 0.5 * axis.h
    return glo, ghi


def _faces(A, pts, axis, k):
    """The axis.n + 1 face coefficients along axis k: the mean of A in the
    two cells next to each face, the outer faces taking the ghost cells as
    their outside neighbours."""
    glo, ghi = _ghost_points(pts, axis, k)
    ae = np.concatenate([A.sample(glo), A.sample(pts), A.sample(ghi)], axis=k)
    lo, hi = _neighbours(ae, k)
    return 0.5 * (lo + hi)


class _DiffusionOperator:
    """Matrix-free  u -> -div(A grad u), A taken at the faces by _faces,
    with Dirichlet data at the ghost cells.

    `apply` works in flux and term buffers owned by the operator, so one
    operator must not apply concurrently from two threads.
    """

    def __init__(self, axes, A, boundary=0.0):
        self.axes = axes
        pts = _cell_points(axes)
        shape = pts.shape[:-1]
        self.face_coef = []      # ax.n + 1 faces along axis k
        self.bdry_val = []       # Dirichlet data at the (low, high) ghosts
        self._flux = []          # per axis: stride, slabs, h^2, faces, buffer views
        G = np.empty(shape)      # flux through each low face
        T = np.empty(shape)      # low minus high flux of each cell
        gf, tf = G.reshape(-1), T.reshape(-1)
        for k, ax in enumerate(axes):
            face = _faces(A, pts, ax, k)
            self.face_coef.append(face)
            glo, ghi = _ghost_points(pts, ax, k)
            self.bdry_val.append((_eval(boundary, glo).take(0, axis=k),
                                  _eval(boundary, ghi).take(0, axis=k)))
            head = (slice(None),) * k
            first, last = head + (slice(None, 1),), head + (slice(-1, None),)
            s = math.prod(shape[k + 1:])
            self._flux.append((s, first, last, ax.h * ax.h,
                               np.ascontiguousarray(face[head + (slice(None, -1),)]),
                               face[last].copy(), np.empty(face[last].shape),
                               (G, G[first], G[last], gf[s:], gf[:-s]),
                               (T, T[last], tf[:-s])))

    def apply(self, u, out=None):
        """-div flux with zero Dirichlet data (the homogeneous part), into
        out when given (it must not overlap u).

        Each difference along axis k is one contiguous pass between flat
        views s = prod(shape[k+1:]) apart; the first or last slab along k,
        where such a pass wraps to another line, is then rewritten from the
        ghosts.
        """
        out = np.empty_like(u) if out is None else out
        uf = np.ascontiguousarray(u).reshape(-1)
        acc = 0.0                # the first term is added to +0.0, so out
                                 # never holds -0.0
        for s, first, last, h2, face_lo, face_hi, hi, flux, term in self._flux:
            G, G_first, G_last, g_hi, g_lo = flux
            T, T_last, t_lo = term
            # flux through each cell's low face, the ghost values being 0:
            # the subtractions of np.diff with zero padding (0.0 - u, not -u)
            np.subtract(uf[s:], uf[:-s], out=g_hi)
            np.subtract(u[first], 0.0, out=G_first)
            np.multiply(G, face_lo, out=G)
            # and through the high face of the last slab
            np.subtract(0.0, u[last], out=hi)
            np.multiply(hi, face_hi, out=hi)
            # low minus high flux of each cell
            np.subtract(g_lo, g_hi, out=t_lo)
            np.subtract(G_last, hi, out=T_last)
            np.divide(T, h2, out=T)
            acc = np.add(acc, T, out=out)
        return out

    def boundary_rhs(self):
        """Contribution of the Dirichlet ghost values to the right side."""
        rhs = np.zeros(tuple(a.n for a in self.axes))
        for k, (ax, face, (g_lo, g_hi)) in enumerate(
                zip(self.axes, self.face_coef, self.bdry_val)):
            h2 = ax.h * ax.h
            r = np.moveaxis(rhs, k, 0)           # a view: writes land in rhs
            f = np.moveaxis(face, k, 0)
            r[0] += f[0] * g_lo / h2
            r[-1] += f[-1] * g_hi / h2
        return rhs

    def diagonal(self):
        diag = np.zeros(tuple(a.n for a in self.axes))
        for k, (ax, face) in enumerate(zip(self.axes, self.face_coef)):
            lo, hi = _neighbours(face, k)
            diag += (lo + hi) / (ax.h * ax.h)
        return diag

    def boundary_extremes(self):
        vals = [float(f(g)) for pair in self.bdry_val for g in pair
                for f in (np.min, np.max)]
        return min(vals), max(vals)


# The V-cycle: Jacobi sweeps before and after each coarse correction, their
# damping, and the most unknowns a level may have to be solved exactly.
_SWEEPS = 2
_OMEGA = 0.8
_COARSEST = 64


class _VCycle:
    """One symmetric multigrid V-cycle for shift I + L, the preconditioner
    of _pcg; call it as precond(r, out).

    Level 0 is the operator `op` itself.  Each coarser level is a
    _DiffusionOperator of the same field A, zero boundary data and ceil(n/2)
    cells per axis, until at most _COARSEST unknowns remain; that level is
    solved by its inverse, computed once.  Fine cell i lies in coarse cell
    i // 2: prolongation P is injection and restriction is P^T / 2^d, so
    the cycle is symmetric for odd n too.  Smoothing is _SWEEPS sweeps of
    _OMEGA-damped Jacobi on each side of the coarse correction.  A cycle
    allocates nothing and, like _pcg, calls no BLAS routine.
    """

    def __init__(self, op, A, shift=0.0):
        self.shift = shift
        ops = [op]
        while math.prod(a.n for a in ops[-1].axes) > _COARSEST:
            axes = [Axis(a.role, a.lo, a.hi, (a.n + 1) // 2) for a in ops[-1].axes]
            ops.append(_DiffusionOperator(axes, A))
        self.levels = ops
        self._smoothing = []     # per level but the coarsest
        for lv, coarse_lv in zip(ops, ops[1:]):
            shape = tuple(a.n for a in lv.axes)
            w = _OMEGA / (lv.diagonal() + shift)
            # x + w (b - (shift + L) x) = keep x + w (b - L x)
            keep = 1.0 - w * shift if shift != 0.0 else None
            # residual and scratch, then the coarse level's rhs and iterate
            t, tmp = np.empty(shape), np.empty(shape)
            coarse_shape = tuple(a.n for a in coarse_lv.axes)
            b_c, x_c = np.empty(coarse_shape), np.empty(coarse_shape)
            # per child offset: the fine cells with that offset, and the
            # coarse cells they lie in
            children = []
            for offs in itertools.product((0, 1), repeat=len(shape)):
                fine = tuple(slice(o, None, 2) for o in offs)
                coarse = tuple(slice(0, (n - o + 1) // 2) for n, o in zip(shape, offs))
                children.append((fine, t[fine], b_c[coarse], x_c[coarse]))
            self._smoothing.append((lv.apply, w, keep, t, tmp, b_c, x_c, children))
        self._inverse = _spd_inverse(self._matrix(ops[-1]))
        self._prod = np.empty_like(self._inverse)

    def _matrix(self, op):
        """shift I + L as a dense matrix, one column per unit vector."""
        shape = tuple(a.n for a in op.axes)
        unit = np.eye(math.prod(shape))
        cols = [op.apply(e.reshape(shape)).reshape(-1) for e in unit]
        return np.stack(cols, axis=1) + self.shift * unit

    def __call__(self, r, out):
        self._cycle(0, r, out)
        return out

    def _cycle(self, k, b, x):
        """x = B_k b on level k."""
        if k == len(self._smoothing):
            np.multiply(self._inverse, b.reshape(1, -1), out=self._prod)
            np.sum(self._prod, axis=1, out=x.reshape(-1))
            return
        apply, w, keep, t, tmp, b_c, x_c, children = self._smoothing[k]
        np.multiply(w, b, out=x)                  # the first sweep, from 0
        self._sweeps(k, b, x, _SWEEPS - 1)
        # restrict the residual b - (shift + L) x, correct on the coarser level
        apply(x, out=t)
        np.subtract(b, t, out=t)
        if keep is not None:
            np.subtract(t, np.multiply(self.shift, x, out=tmp), out=t)
        b_c.fill(0.0)
        for _, t_child, b_parent, _ in children:
            np.add(b_parent, t_child, out=b_parent)
        np.multiply(b_c, 0.5 ** b.ndim, out=b_c)
        self._cycle(k + 1, b_c, x_c)
        for fine, _, _, x_parent in children:
            x_child = x[fine]
            np.add(x_child, x_parent, out=x_child)
        self._sweeps(k, b, x, _SWEEPS)

    def _sweeps(self, k, b, x, count):
        """count Jacobi sweeps x <- x + w (b - (shift + L) x)."""
        apply, w, keep, t = self._smoothing[k][:4]
        for _ in range(count):
            apply(x, out=t)
            np.subtract(b, t, out=t)
            np.multiply(w, t, out=t)
            if keep is not None:
                np.multiply(keep, x, out=x)
            np.add(x, t, out=x)


def _spd_inverse(a):
    """Inverse of a small symmetric positive definite matrix by Gauss-Jordan
    elimination without pivoting, symmetrized; elementwise, no LAPACK."""
    m = len(a)
    aug = np.concatenate([a, np.eye(m)], axis=1)
    for k in range(m):
        aug[k] /= aug[k, k]
        col = aug[:, k].copy()
        col[k] = 0.0
        aug -= col[:, None] * aug[k]
    inv = aug[:, m:]
    return 0.5 * (inv + inv.T)


_TOL = 1e-10     # the relative residual at which conjugate gradients stop


def _build(P, shift=0.0):
    """The operator of P, its Dirichlet right side and the V-cycle for
    shift I + L, built under _pcg's error policy extended to division and
    invalid operations: the first non-finite value raises SolverError."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            op = _DiffusionOperator(P.axes, P.coefficients, P.boundary)
            return op, op.boundary_rhs(), _VCycle(op, P.coefficients, shift)
    except FloatingPointError as exc:
        raise SolverError(f"building the operator hit a non-finite value "
                          f"({exc})") from None


def _pcg(apply_op, rhs, precond, tol=_TOL, max_iter=20000, shift=0.0, x0=None):
    """Preconditioned conjugate gradients for (shift I + L) u = rhs.

    apply_op(p, out=...) writes L p into out, and precond(r, out) writes
    the preconditioned residual, an SPD map of r, into out (a _VCycle for
    the same shift).  The iterate starts at x0, or at 0 when x0 is None;
    either way the residual is measured relative to |rhs|, and a start that
    already meets tol is returned after no iteration.  An iteration
    allocates nothing: Ap, z and one scratch vector live for the whole
    solve.  Every inner product, the residual norms included, is a pairwise
    `.sum()` of a full-shape product, as the rounding of the iterates
    depends on that order; no BLAS routine runs, so the solve keeps to one
    thread.  Raises SolverError at the first non-finite residual, at the
    first overflow (which would make one), and when max_iter iterations do
    not reach tol.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    history = []
    try:
        with np.errstate(over="raise"):
            return _cg(apply_op, rhs, precond, tol, max_iter, shift, x0, history)
    except FloatingPointError as exc:
        raise SolverError(f"conjugate gradients hit a non-finite residual ({exc}) "
                          f"at iteration {len(history) + 1}", history) from None


def _cg(apply_op, rhs, precond, tol, max_iter, shift, x0, history):
    """The iterations of _pcg, appending each relative residual to history."""
    Ap, tmp = np.empty_like(rhs), np.empty_like(rhs)
    r = rhs.copy()
    if x0 is None:
        x = np.zeros_like(rhs)
    else:
        x = x0.copy()
        apply_op(x, out=Ap)
        r -= np.add(np.multiply(shift, x, out=tmp), Ap, out=Ap)
    nrhs = math.sqrt(float(np.multiply(rhs, rhs, out=tmp).sum()))
    if nrhs == 0.0:
        return np.zeros_like(rhs), history
    if x0 is not None and math.sqrt(float(np.multiply(r, r, out=tmp).sum())) / nrhs <= tol:
        return x, history
    z = np.empty_like(rhs)
    precond(r, z)
    p = z.copy()
    rz = float(np.multiply(r, z, out=tmp).sum())
    for it in range(max_iter):
        apply_op(p, out=Ap)
        # apply_op never returns -0.0, so adding 0.0 * p would change no bit
        if shift != 0.0:
            np.add(np.multiply(shift, p, out=tmp), Ap, out=Ap)
        alpha = rz / float(np.multiply(p, Ap, out=tmp).sum())
        x += np.multiply(alpha, p, out=tmp)
        r -= np.multiply(alpha, Ap, out=tmp)
        res = math.sqrt(float(np.multiply(r, r, out=tmp).sum())) / nrhs
        history.append(res)
        if res <= tol:
            return x, history
        if not math.isfinite(res):
            raise SolverError(f"conjugate gradients hit a non-finite residual "
                              f"({res}) at iteration {it + 1}", history)
        precond(r, z)
        rz_new = float(np.multiply(r, z, out=tmp).sum())
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError(f"conjugate gradients stalled at {history[-1]:.3e}", history)


# ---------------------------------------------------------------------------
# Elliptic and parabolic solves
# ---------------------------------------------------------------------------

def solve_elliptic(P):
    if P.kind != "elliptic":
        raise ValueError("expected an elliptic problem")
    op, brhs, precond = _build(P)
    pts = _cell_points(P.axes)
    rhs = P.source_at(0.0, pts) + brhs
    u, history = _pcg(op.apply, rhs, precond)
    info = {"iterations": len(history), "residual_history": history,
            "tol": _TOL}
    if P.source_free:
        info["max_principle"] = _max_principle(*op.boundary_extremes(), u)
    return Solution(GridFunction(P.axes, u), info)


def _max_principle(lo, hi, u):
    """u's range against the range [lo, hi] of its data, 1e-9 slack."""
    return {"data_min": lo, "data_max": hi,
            "u_min": float(u.min()), "u_max": float(u.max()),
            "ok": bool(u.min() >= lo - 1e-9 and u.max() <= hi + 1e-9)}


def solve_parabolic(P):
    if P.kind != "parabolic":
        raise ValueError("expected a parabolic problem")
    if P.nt < 1 or P.t_final <= 0:
        raise ValueError("need nt >= 1 and t_final > 0")
    dt = P.t_final / P.nt
    op, brhs, precond = _build(P, shift=1.0 / dt)
    pts = _cell_points(P.axes)
    u = _eval(P.initial, pts)
    source = _source_in_time(P, pts)
    iters = []
    energy = [float((u * u).sum())]
    history = [u.copy()]
    times = [0.0]
    for n in range(P.nt):
        t_new = (n + 1) * dt
        rhs = u / dt + source(t_new) + brhs
        # from the last step's solution: one iteration fewer than from 0
        u, h = _pcg(op.apply, rhs, precond, shift=1.0 / dt, x0=u)
        iters.append(len(h))
        energy.append(float((u * u).sum()))
        history.append(u.copy())
        times.append(t_new)
    info = {"dt": dt, "iterations": iters, "energy": energy,
            "times": times, "history": history}
    if P.source_free:
        blo, bhi = op.boundary_extremes()
        u0 = history[0]
        info["max_principle"] = _max_principle(
            min(blo, float(u0.min())), max(bhi, float(u0.max())), u)
    return Solution(GridFunction(P.axes, u), info)


# ---------------------------------------------------------------------------
# Kinetic transport-diffusion
# ---------------------------------------------------------------------------

def _transport_plan(x_axis, v_axis, dt):
    """Gather indices and weights of the periodic semi-Lagrangian shift
    f(x, v) <- f(x - v dt, v), computed once per solve.

    Returns (i0, i1, 1 - w, w) for the v-major (Nv, Nx) output: entry
    [j, i] is (1 - w[j]) f[i0[j, i]] + w[j] f[i1[j, i]], where i0 and i1
    index the C-order flattening of the x-major (Nx, Nv) array f.
    """
    Nx, Nv = x_axis.n, v_axis.n
    s = v_axis.centers() * dt / x_axis.h       # shift in cells, per v row
    k = np.floor(s).astype(int)
    w = s - k
    i = np.arange(Nx)[None, :]
    j = np.arange(Nv)[:, None]
    i0 = ((i - k[:, None]) % Nx) * Nv + j
    i1 = ((i - k[:, None] - 1) % Nx) * Nv + j
    return i0, i1, (1.0 - w)[:, None], w[:, None]


def _transport(f, plan, out, tmp):
    """Write the shifted x-major f into the v-major buffer out."""
    i0, i1, one_minus_w, w = plan
    # the indices are in range; "clip" avoids the buffered bounds check
    np.take(f, i0, out=out, mode="clip")
    np.multiply(one_minus_w, out, out=out)
    np.take(f, i1, out=tmp, mode="clip")
    np.multiply(w, tmp, out=tmp)
    np.add(out, tmp, out=out)


def _v_step_matrices(P, pts):
    """Tridiagonal coefficients of the implicit v operator, per x column."""
    x_axis, v_axis = P.axes
    hv = v_axis.h
    face = _faces(P.coefficients, pts, v_axis, 1)
    shape = pts.shape[:-1]                            # (Nx, Nv)
    B = _eval(P.drift, pts)                           # no drift: zeros
    if B.shape != shape:
        raise ValueError(f"drift must return the v-component, shape "
                         f"{shape} on these points; got {B.shape}")
    # -div_v(a d_v f) - B d_v f on the column; central drift difference
    lower = -face[:, :-1] / hv ** 2 + B / (2.0 * hv)
    upper = -face[:, 1:] / hv ** 2 - B / (2.0 * hv)
    diag = (face[:, :-1] + face[:, 1:]) / hv ** 2
    return lower, diag, upper


def _thomas_factor(lower, diag, upper):
    """Forward-sweep coefficients c and pivots den of tridiagonal systems
    stored v-major: row j holds entry j of every system."""
    c = np.empty_like(diag)
    den = np.empty_like(diag)
    den[0] = diag[0]
    c[0] = upper[0] / diag[0]
    for j in range(1, diag.shape[0]):
        den[j] = diag[j] - lower[j] * c[j - 1]
        c[j] = upper[j] / den[j]
    return c, den


def _thomas_sweep(lower, c, den, d, tmp,
                  mul=np.multiply, sub=np.subtract, div=np.divide):
    """Solve in place with a factor from _thomas_factor: the row views d
    hold the right-hand sides on entry and the solution on exit.  The
    ufuncs are bound as defaults and take out positionally: the rows are
    short, so call overhead is most of a sweep."""
    div(d[0], den[0], d[0])
    for lo, dn, prev, row in zip(lower[1:], den[1:], d[:-1], d[1:]):
        mul(lo, prev, tmp)
        sub(row, tmp, row)
        div(row, dn, row)
    for cj, nxt, row in zip(c[-2::-1], d[:0:-1], d[-2::-1]):
        mul(cj, nxt, tmp)
        sub(row, tmp, row)


def solve_kinetic_fp(P, observe=None):
    """Split-step kinetic solve: exact x-transport, implicit v-diffusion.

    Axes must be (x periodic, v); Dirichlet 0 at the v boundary.  Mass is
    conserved by transport exactly and by diffusion up to the flux through
    the v boundary; the running mass trace is reported.

    The transport plan and the Thomas factor of I/dt + (v operator) are
    computed once; each step sweeps a v-major (Nv, Nx) buffer and copies it
    into one x-major slice buffer, which the mass trace sums.  observe(n, f)
    is called on that buffer for each slice n = 0..nt, at time n dt; the
    observer only reads it, and copies what it keeps, because the next step
    overwrites it.  Without observe, a copy of every slice is stored in
    info["history"].
    """
    if P.kind != "kinetic-fp":
        raise ValueError("expected a kinetic-fp problem")
    if len(P.axes) != 2 or P.axes[0].role != "x" or P.axes[1].role != "v":
        raise ValueError("kinetic axes must be (x, v) at d = 1")
    if P.nt < 1 or P.t_final <= 0:
        raise ValueError("need nt >= 1 and t_final > 0")
    x_axis, v_axis = P.axes
    pts = _cell_points(P.axes)
    dt = P.t_final / P.nt
    f0 = _eval(P.initial, pts)
    Idt = 1.0 / dt
    lower, diag, upper = (m.T.copy() for m in _v_step_matrices(P, pts))
    c, den = _thomas_factor(lower, diag + Idt, upper)
    plan = _transport_plan(x_axis, v_axis, dt)
    buf = np.empty((v_axis.n, x_axis.n))
    gathered = np.empty_like(buf)
    rows, tmp = list(buf), np.empty(x_axis.n)
    lower, c, den = list(lower), list(c), list(den)
    source = _source_in_time(P, pts)
    if P._source_takes_t:
        source_vmajor = lambda t: np.broadcast_to(source(t), f0.shape).T
    else:
        S = np.broadcast_to(source(0.0), f0.shape).T
        source_vmajor = lambda t: S
    history = None
    if observe is None:
        history = []
        observe = lambda n, f: history.append(f.copy())
    mass = [float(f0.sum()) * x_axis.h * v_axis.h]
    times = [0.0]
    f = f0.copy()              # the x-major slice buffer
    observe(0, f)
    for n in range(P.nt):
        _transport(f, plan, buf, gathered)
        t_new = (n + 1) * dt
        np.multiply(buf, Idt, out=buf)
        np.add(buf, source_vmajor(t_new), out=buf)
        _thomas_sweep(lower, c, den, rows, tmp)
        np.copyto(f, buf.T)
        mass.append(float(f.sum()) * x_axis.h * v_axis.h)
        times.append(t_new)
        observe(n + 1, f)
    info = {"dt": dt, "mass": mass, "times": times,
            "mass_drift": mass[-1] - mass[0]}
    if history is not None:
        info["history"] = history
    if P.source_free:
        info["max_principle"] = _max_principle(
            min(0.0, float(f0.min())), max(0.0, float(f0.max())), f)
    return Solution(GridFunction(P.axes, f.copy()), info)


# ---------------------------------------------------------------------------
# Weak-form residual checks
# ---------------------------------------------------------------------------

# Number of test bumps in the battery of residual_check.
_N_BUMPS = 5


def default_bumps(bounds, seed=0):
    """A battery of _N_BUMPS bumps supported strictly inside the given box."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(bounds, dtype=float).T
    span = hi - lo
    bumps = []
    for _ in range(_N_BUMPS):
        w = span * rng.uniform(0.15, 0.3, size=len(bounds))
        c = rng.uniform(lo + 1.05 * w, hi - 1.05 * w)
        bumps.append(Bump(tuple(c), tuple(w)))
    return bumps


def _face_grad_sum(u, phi_vals, face_coef, axes, vol):
    """sum over interior faces of a_face (D u)(D phi) times the cell volume
    vol."""
    total = 0.0
    for k, ax in enumerate(axes):
        du = np.diff(u, axis=k) / ax.h
        dphi = np.diff(phi_vals, axis=k) / ax.h
        face = face_coef[k][(slice(None),) * k + (slice(1, -1),)]
        total += float((face * du * dphi).sum()) * vol
    return total


def residual_check(sol, P, seed=0):
    """Weak-form residual against a battery of interior tensor bumps.

    Elliptic:  R(phi) = sum_faces a (Du)(Dphi) - int S phi.
    Kinetic:   R(phi) = -int f (d_t phi + v d_x phi)
                        + int a (D_v f)(D_v phi) - int (B D_v f + S) phi,
    integrated over the stored time slices by the midpoint-in-cells,
    trapezoid-in-time rule.  Returns max |R(phi)| over the battery, scaled
    by the solution's L2 norm.
    """
    if P.kind not in ("elliptic", "kinetic-fp"):
        raise ValueError(f"no residual check for kind {P.kind!r}")
    per_bump = []
    if P.kind == "elliptic":
        axes = sol.u.axes
        bounds = [(a.lo, a.hi) for a in axes]
        bumps = default_bumps(bounds, seed=seed)
        op = _DiffusionOperator(axes, P.coefficients, P.boundary)
        pts = _cell_points(axes)
        S = P.source_at(0.0, pts)
        vol = sol.u.cell_volume
        for b in bumps:
            phi = b.value(np.moveaxis(pts, -1, 0))
            r = _face_grad_sum(sol.u.values, phi, op.face_coef, axes, vol)
            r -= float((S * phi).sum()) * vol
            per_bump.append(r)
    else:
        x_axis, v_axis = P.axes
        hist = sol.info["history"]
        times = sol.info["times"]
        bounds = [(times[0], times[-1]), (x_axis.lo, x_axis.hi),
                  (v_axis.lo, v_axis.hi)]
        bumps = default_bumps(bounds, seed=seed)
        pts = _cell_points(P.axes)
        fa = _faces(P.coefficients, pts, v_axis, 1)[:, 1:-1]   # interior faces
        B = _eval(P.drift, pts)
        source = _source_in_time(P, pts)
        vol = x_axis.h * v_axis.h
        X, V = pts[..., 0], pts[..., 1]
        for b in bumps:
            acc = 0.0
            for idx, (t, f) in enumerate(zip(times, hist)):
                phi = b.value((t, X, V))
                dtphi = b.partial((t, X, V), 0)
                dxphi = b.partial((t, X, V), 1)
                term = -float((f * (dtphi + V * dxphi)).sum()) * vol
                dvf = np.diff(f, axis=1) / v_axis.h
                dvp = np.diff(phi, axis=1) / v_axis.h
                term += float((fa * dvf * dvp).sum()) * vol
                dvf_c = np.gradient(f, v_axis.h, axis=1)
                term -= float(((B * dvf_c + source(t)) * phi).sum()) * vol
                wtime = 0.5 if idx in (0, len(times) - 1) else 1.0
                if len(times) > 1:
                    acc += wtime * term * (times[1] - times[0])
            per_bump.append(acc)
    worst = max([0.0] + [abs(r) for r in per_bump])
    scale = sol.u.norm_lp(2) + 1e-300
    return {"max_residual": worst, "scaled": worst / scale,
            "per_bump": per_bump, "n_bumps": len(bumps)}
