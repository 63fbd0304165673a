"""Kolmogorov fundamental solution and group convolution.

The kernel

    gamma(t,x,v) = (3/(4 pi^2))^{d/2} t^{-2d}
                   exp(-3|x - (t/2)v|^2 / t^3 - |v|^2 / (4t)),   t > 0,

(zero for t <= 0) solves d_t + v.grad_x - lap_v and is normalized to unit
mass in (x,v) for every t > 0; d is the length of x's last axis.
Everything is evaluated in log-space first; t^{-2d} exp(-c/t^3) underflows
very early otherwise.  `gamma` broadcasts its arguments and allocates one
full-size array, so callers pass per-axis factors (as
`adjoint_identity_check` does) rather than flattened grids.

The group convolution is a midpoint-quadrature sum over the input lattice.
The (t-s)w shear breaks ordinary convolution structure, so there is no FFT;
instead the sample point of each (output, input) pair moves along every
axis separately, and the interpolation weights factor into a separable
stencil: a time blend per (t, s) pair, a velocity table per (v, w) pair and
a 1-D interpolation in x at x - y - (t-s)w.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gridfn import Axis, GridFunction, _stencil

__all__ = [
    "gamma", "gamma1", "kin_convolve", "young_check", "weak_lp_norm",
    "kolmogorov_residual", "residual_convergence_order", "Bump",
    "adjoint_identity_check", "gamma_tail_mass",
]


def _log_gamma1(x, v, d):
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    q = 3.0 * np.sum((x - 0.5 * v) ** 2, axis=-1) + 0.25 * np.sum(v * v, axis=-1)
    return 0.5 * d * math.log(3.0 / (4.0 * math.pi ** 2)) - q


def gamma1(x, v):
    """Unit-time profile: gamma(t,x,v) = t^{-2d} gamma1(t^{-3/2}x, t^{-1/2}v)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return np.exp(_log_gamma1(x, v, x.shape[-1]))


def gamma(t, x, v):
    """Fundamental solution; vectorized over broadcastable (t, x, v)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    d = x.shape[-1]
    t = np.asarray(t, dtype=float)
    tpos = np.where(t > 0.0, t, 1.0)  # placeholder where masked out
    # one full-size temporary q and its reduction s; the terms that depend
    # on t or v alone stay their own size.  Same operations in the same
    # order as the log-space formula in the module docstring.
    q = x - 0.5 * tpos[..., None] * v
    np.square(q, out=q)
    s = np.asarray(q.sum(axis=-1))
    np.multiply(3.0, s, out=s)
    np.divide(s, tpos ** 3, out=s)
    np.subtract(0.5 * d * math.log(3.0 / (4.0 * math.pi ** 2))
                - 2.0 * d * np.log(tpos), s, out=s)
    np.subtract(s, 0.25 * np.sum(v * v, axis=-1) / tpos, out=s)
    np.exp(s, out=s)
    np.copyto(s, 0.0, where=~(t > 0.0))
    return s if s.ndim else float(s)


def gamma_tail_mass(L, d=1):
    """Mass of gamma1 outside the centered box [-L, L]^{2d} (upper bound).

    Gaussian tail bound from the diagonalized quadratic form: the marginals
    of gamma1 are centered Gaussians with Var(x_i) = 2/3, Var(v_i) = 2.
    """
    from scipy.special import ndtr  # loaded with scipy.ndimage already
    tail = 0.0
    for var in (2.0 / 3.0, 2.0):
        tail += d * 2.0 * ndtr(-L / math.sqrt(var))
    return tail


# ---------------------------------------------------------------------------
# Group convolution
# ---------------------------------------------------------------------------

def _split_point(gf):
    roles = gf.roles()
    it = [i for i, r in enumerate(roles) if r == "t"]
    ix = [i for i, r in enumerate(roles) if r == "x"]
    iv = [i for i, r in enumerate(roles) if r == "v"]
    if len(it) != 1 or len(ix) != len(iv) or not ix:
        raise ValueError("grid must have one t axis and matching x/v blocks")
    return it[0], ix, iv


@dataclass
class ConvolutionResult:
    out: GridFunction
    truncation_mass: float


def _interp_weights(axis, c):
    """Dense linear-interpolation weights of `axis` at coordinates c.

    Returns shape c.shape + (axis.n,): row c holds the weights that
    GridFunction.sample gives the cells of `axis`, zero when c lies outside
    the closed box.  Also returns the inside mask.
    """
    i0, i1, frac, inside = _stencil(axis, c)
    cells = np.arange(axis.n)
    w = ((cells == i0[..., None]) * (1.0 - frac)[..., None]
         + (cells == i1[..., None]) * frac[..., None])
    return w * inside[..., None], inside


def kin_convolve(f, g):
    """Group convolution (f *_kin g)(z) = int f(zeta^{-1} o z) g(zeta) d zeta.

    Evaluated on f's lattice by midpoint quadrature over g's lattice; f is
    read off-lattice by the multilinear interpolation of GridFunction.sample
    and treated as 0 outside its box, with the truncated |g|-mass recorded.
    Returns a ConvolutionResult.

    For output point (t, x, v) and input cell (s, y, w) f is read at
    (t - s, x - y - (t - s) w, v - w).  Each coordinate moves along its own
    axis, so the multilinear weights factor into a separable stencil: per
    (t, s) pair a blend of two time slices of f, per velocity axis a fixed
    table over (v, w) pairs, and per position axis a 1-D interpolation at
    x - y - (t - s) w.  The sum over g's cells is one tensor contraction
    per (t, s) pair.
    """
    it, ix, iv = _split_point(g)
    if f.roles() != g.roles():
        raise ValueError("f and g must share the axis layout")
    out = GridFunction(f.axes)
    d = len(ix)
    fa, ga = f.axes, g.axes
    t_out, s_in = fa[it].centers(), ga[it].centers()

    # einsum labels of dimension k: output x, input y, input w, f's x cell,
    # output v, f's v cell
    X, Y, W, F, V, U = ([6 * k + j for k in range(d)] for j in range(6))
    rest = [i for i in range(len(fa)) if i != it]

    def labels(xs, vs):
        return [xs[ix.index(i)] if i in ix else vs[iv.index(i)] for i in rest]

    x_out = [fa[i].centers() for i in ix]
    y_in = [ga[i].centers() for i in ix]
    w_in = [ga[i].centers() for i in iv]
    v_tabs = [_interp_weights(fa[iv[k]], fa[iv[k]].centers()[:, None] - w_in[k][None, :])
              for k in range(d)]
    v_kept = [inside.sum(axis=0) for _, inside in v_tabs]
    t_lo, t_hi, t_frac, t_in = _stencil(fa[it], t_out[:, None] - s_in[None, :])
    per_t = math.prod(fa[i].n for i in rest)  # output points per time slice
    pairs = out.values.size * g.values.size
    path = None

    trunc = 0.0
    out_slabs = np.moveaxis(out.values, it, 0)
    for a in range(fa[it].n):
        slab = np.zeros(out_slabs.shape[1:])
        for b in range(ga[it].n):
            gb = np.take(g.values, b, axis=it)
            if not t_in[a, b]:
                trunc += float(np.abs(gb).sum()) * per_t
                continue
            dt = t_out[a] - s_in[b]
            x_tabs = [_interp_weights(fa[ix[k]],
                                      (x_out[k][:, None, None] - y_in[k][None, :, None])
                                      - dt * w_in[k][None, None, :])
                      for k in range(d)]
            fr = t_frac[a, b]
            ft = ((1.0 - fr) * np.take(f.values, t_lo[a, b], axis=it)
                  + fr * np.take(f.values, t_hi[a, b], axis=it))
            operands = [gb, labels(Y, W)]
            for k, (wts, _) in enumerate(x_tabs):
                operands += [wts, [X[k], Y[k], W[k], F[k]]]
            for k, (wts, _) in enumerate(v_tabs):
                operands += [wts, [V[k], W[k], U[k]]]
            operands += [ft, labels(F, U), labels(X, V)]
            if path is None:
                # numpy's default cap on intermediates (the largest operand)
                # leaves one loop over all labels at d >= 2; the pair count
                # of the direct sum is the natural cap
                path = np.einsum_path(*operands, optimize=("greedy", pairs))[0]
            slab += np.einsum(*operands, optimize=path)
            # |g|-mass of the (output, input) pairs whose sample left f's
            # box: per input cell, count the outputs whose sample stays in
            counts = []
            for k, (_, inside) in enumerate(x_tabs):
                counts += [inside.sum(axis=0), [Y[k], W[k]], v_kept[k], [W[k]]]
            kept = np.einsum(*counts, labels(Y, W))
            trunc += float(((per_t - kept) * np.abs(gb)).sum())
        out_slabs[a] = slab * g.cell_volume
    trunc = trunc * g.cell_volume / max(out.values.size, 1)
    return ConvolutionResult(out, trunc)


def weak_lp_norm(f, p):
    """sup_alpha alpha * |{|f| > alpha}|^{1/p} over 200 log-spaced alphas."""
    if p < 1:
        raise ValueError("p >= 1 required")
    a = np.abs(f.values)
    amax = a.max()
    if amax == 0.0:
        return WeakLpEstimate(p, 0.0, np.array([]))
    lo = max(amax * 1e-12, a[a > 0].min() * 0.5)
    alphas = np.exp(np.linspace(math.log(lo), math.log(amax), 200))
    vol = f.cell_volume
    best = 0.0
    for alpha in alphas:
        meas = float((a > alpha).sum()) * vol
        best = max(best, alpha * meas ** (1.0 / p))
    return WeakLpEstimate(p, best, alphas)


@dataclass
class WeakLpEstimate:
    p: float
    value: float
    alpha_grid: np.ndarray


@dataclass
class YoungReport:
    p: float
    q: float
    r: float
    lhs: float
    rhs: float
    passed: bool


def young_check(f, g, p, q):
    """Check ||f *_kin g||_r <= 1.05 ||f||_p ||g||_q, 1+1/r = 1/p+1/q."""
    if p < 1 or q < 1 or 1.0 / p + 1.0 / q < 1.0:
        raise ValueError("need p,q >= 1 with 1/p + 1/q >= 1")
    inv_r = 1.0 / p + 1.0 / q - 1.0
    r = math.inf if inv_r == 0.0 else 1.0 / inv_r
    conv = kin_convolve(f, g)
    lhs = conv.out.norm_lp(r)
    rhs = f.norm_lp(p) * g.norm_lp(q)
    return YoungReport(p, q, r, lhs, rhs, lhs <= rhs * 1.05)


# ---------------------------------------------------------------------------
# Residual of the evolution operator
# ---------------------------------------------------------------------------

@dataclass
class ResidualReport:
    max_residual: float
    l2_residual: float
    mesh: tuple


def kolmogorov_residual(h):
    """Central-difference residual d_t h + v . grad_x h - lap_v h.

    Evaluated on interior cells (one-cell margin per axis); reports the max
    and L2 norms.  For h sampled from gamma on t bounded away from 0 the
    residual converges at second order in the mesh.
    """
    it, ix, iv = _split_point(h)
    axes = h.axes
    cents = h.centers()
    res = np.empty(tuple(a.n - 2 for a in axes))
    core = tuple(slice(1, -1) for _ in axes)
    buf = np.empty((1,) + res.shape[1:])

    def shifted(vals, axis, step):
        sl = list(core)
        sl[axis] = slice(1 + step, vals.shape[axis] - 1 + step)
        return vals[tuple(sl)]

    peaks = np.empty(res.shape[0])
    # one slab of axis 0 at a time, written in place through one scratch
    # buffer: (f+ - f-)/(2h) in t, + v (f+ - f-)/(2h) in each x and
    # - ((f+ - 2f) + f-)/h^2 in each v, in that order; then the slab's
    # peak of |res|, and res^2 in place for the L2 sum
    for i in range(res.shape[0]):
        vals = h.values[i:i + 3]
        out = res[i:i + 1]
        np.subtract(shifted(vals, it, 1), shifted(vals, it, -1), out=out)
        np.divide(out, 2 * axes[it].h, out=out)
        for axx, axv in zip(ix, iv):
            shape = [1] * vals.ndim
            shape[axv] = -1
            v = (cents[axv][i:i + 3] if axv == 0 else cents[axv])[1:-1]
            np.subtract(shifted(vals, axx, 1), shifted(vals, axx, -1), out=buf)
            np.divide(buf, 2 * axes[axx].h, out=buf)
            np.multiply(v.reshape(shape), buf, out=buf)
            np.add(out, buf, out=out)
            np.multiply(2, vals[core], out=buf)
            np.subtract(shifted(vals, axv, 1), buf, out=buf)
            np.add(buf, shifted(vals, axv, -1), out=buf)
            np.divide(buf, axes[axv].h ** 2, out=buf)
            np.subtract(out, buf, out=out)
        np.abs(out, out=out)
        peaks[i] = out.max()
        np.square(out, out=out)
    # one sum over the contiguous array, not per slab: numpy's pairwise order,
    # so the L2 norm is bit-for-bit that of (res ** 2).sum()
    return ResidualReport(float(peaks.max()),
                          float(np.sqrt(res.sum() * h.cell_volume)),
                          tuple(a.n for a in axes))


def residual_convergence_order(reports, hs):
    """Least-squares slope of log residual vs log mesh size."""
    x = np.log(np.asarray(hs, dtype=float))
    y = np.log(np.asarray([r.l2_residual for r in reports]))
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# Smooth compactly supported test functions and the adjoint identity
# ---------------------------------------------------------------------------

def _psi(u):
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
    return out


def _psi_log_d1(u):
    # psi'(u)/psi(u) = -2u/(1-u^2)^2 on |u|<1
    return -2.0 * u / (1.0 - u * u) ** 2


def _psi_d1(u):
    # psi' = psi (log psi)', evaluated on the support only (no 0 * inf at |u| = 1)
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    out[m] = _psi(u[m]) * _psi_log_d1(u[m])
    return out


def _psi_log_d2(u):
    # (psi'/psi)'(u) = (-2 - 6u^2)/(1-u^2)^3
    return (-2.0 - 6.0 * u * u) / (1.0 - u * u) ** 3


@dataclass(frozen=True)
class Bump:
    """Separable C_c^infinity bump prod_k psi((z_k - centers[k]) / widths[k]).

    `coords` is a sequence of broadcastable coordinate arrays, one per
    factor; in phase space the order is (t, x_1..x_d, v_1..v_d).
    """
    centers: tuple
    widths: tuple

    def _scaled(self, coords):
        return [(np.asarray(z, dtype=float) - c) / w
                for z, c, w in zip(coords, self.centers, self.widths)]

    def value(self, coords):
        # math.prod multiplies in coordinate order after its exact start 1
        return math.prod(_psi(u) for u in self._scaled(coords))

    def partial(self, coords, k):
        """d phi / d z_k, analytically."""
        return math.prod(_psi_d1(u) / self.widths[j] if j == k else _psi(u)
                         for j, u in enumerate(self._scaled(coords)))

    def transport_plus_lap(self, coords):
        """(d_t + v . grad_x + lap_v) phi, analytically."""
        u = self._scaled(coords)
        w = self.widths
        d = (len(u) - 1) // 2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(np.abs(u[0]) < 1.0, _psi_log_d1(u[0]), 0.0) / w[0]
            for k in range(1, d + 1):
                ux, uv, rv = u[k], u[d + k], w[d + k]
                lx = np.where(np.abs(ux) < 1.0, _psi_log_d1(ux), 0.0) / w[k]
                lv2 = np.where(np.abs(uv) < 1.0,
                               _psi_log_d2(uv) / rv ** 2 + (_psi_log_d1(uv) / rv) ** 2,
                               0.0)
                out = out + np.asarray(coords[d + k]) * lx + lv2
        return out * self.value(coords)

    def support_box(self):
        c, w = np.asarray(self.centers), np.asarray(self.widths)
        return c - w, c + w


@dataclass
class AdjointReport:
    rel_error: float
    n_quad: tuple
    n_out: int
    band_width: float


_BAND_CELLS = 3   # s-cells next to s = t that the adjoint check adds analytically


def adjoint_identity_check(bump, n_quad=(40, 72, 48)):
    """Verify that the backward kernel convolved with (d_t + v.grad_x + lap_v) phi
    reproduces -phi.

    The s-integral near s = t is below quadrature resolution (the kernel
    concentrates at scale (s-t)^{3/2} in x); that band contributes
    delta * (transport+lap phi)(z) + O(delta^{3/2}) by unit mass of the kernel,
    and is added analytically with delta = (_BAND_CELLS - 1/2) * ds.  The
    quadrature over the remaining cells evaluates the kernel once per output
    point, on broadcast per-axis factors: tau per s row, the sheared
    position per (s, y) and the velocity per w.
    Returns the relative error over output points in the early part of the
    bump's support; the error must decrease under quadrature refinement.
    """
    if len(bump.centers) != 3:
        raise NotImplementedError("quadrature implemented at d=1 desk scale")
    lo, hi = bump.support_box()
    blo, bhi = lo - 1e-9, hi + 1e-9
    nt, nx, nv = n_quad
    ax_t = Axis("t", blo[0], bhi[0], nt)
    ax_x = Axis("x", blo[1], bhi[1], nx)
    ax_v = Axis("v", blo[2], bhi[2], nv)
    ds = ax_t.h
    ts = ax_t.centers()
    xs = ax_x.centers()
    vs = ax_v.centers()
    K = bump.transport_plus_lap((ts[:, None, None], xs[:, None], vs))
    vol = ds * ax_x.h * ax_v.h
    keep = K != 0.0

    # output points: lattice points in the lower-t region of the support
    t_sel = ts[(ts > lo[0] + 0.15 * (hi[0] - lo[0])) & (ts < lo[0] + 0.5 * (hi[0] - lo[0]))]
    t_sel = t_sel[:: max(1, len(t_sel) // 4)]
    x_sel = np.linspace(lo[1] + 0.3 * (hi[1] - lo[1]), hi[1] - 0.3 * (hi[1] - lo[1]), 3)
    v_sel = np.linspace(lo[2] + 0.3 * (hi[2] - lo[2]), hi[2] - 0.3 * (hi[2] - lo[2]), 3)
    pts = [(t, x, v) for t in t_sel for x in x_sel for v in v_sel]

    delta = (_BAND_CELLS - 0.5) * ds
    lhs = np.zeros(len(pts))
    phi_vals = np.zeros(len(pts))
    for i, (t, x, v) in enumerate(pts):
        tau = ts - t
        # rows of cells fully above the analytic band: a suffix in t
        j = tau.size - np.count_nonzero(tau >= delta)
        tj = tau[j:, None, None]
        g = gamma(tj, ((xs[:, None] - x) - tj * v)[..., None], (vs - v)[:, None])
        g *= K[j:]
        # the kept cells in C order: the same 1-D sum as over a flattened grid
        lhs[i] = float(g[keep[j:]].sum()) * vol
        lhs[i] += delta * float(bump.transport_plus_lap((t, x, v)))
        phi_vals[i] = float(bump.value((t, x, v)))
    num = np.sqrt(np.mean((lhs + phi_vals) ** 2))
    den = np.sqrt(np.mean(phi_vals ** 2))
    return AdjointReport(float(num / den), (nt, nx, nv), len(pts), delta)
