import math

import numpy as np
import pytest

from kinlab.gridfn import Axis, GridFunction
from kinlab import solvers as sv
from kinlab import kernel as ker


def _identity(lam=1.0):
    return sv.make_coefficients({"kind": "identity", "lam": lam, "Lam": lam})


def test_make_coefficients_validation():
    with pytest.raises(ValueError):
        sv.make_coefficients({"kind": "nope", "lam": 1, "Lam": 1})
    with pytest.raises(ValueError):
        sv.make_coefficients({"kind": "identity", "lam": 2.0, "Lam": 1.0})


def test_coefficient_eigenvalues_within_band():
    rng = np.random.default_rng(0)
    for kind in ("checkerboard", "random-piecewise-constant",
                 "rotating-anisotropy"):
        coef = sv.make_coefficients({"kind": kind, "lam": 0.2, "Lam": 1.0,
                                     "tiles": 4, "point_dim": 2}, seed=3)
        pts = rng.uniform(-1, 1, (200, 2))
        A = coef.sample(pts)
        w = np.linalg.eigvalsh(A)
        assert w.min() >= 0.2 - 1e-10
        assert w.max() <= 1.0 + 1e-10


@pytest.mark.filterwarnings("error")
def test_far_coordinates_lie_in_the_edge_tiles():
    coef = sv.make_coefficients({"kind": "checkerboard", "lam": 0.5, "Lam": 1.0,
                                 "tiles": 8})
    # tile 7 (odd: Lam) above the box, tile 0 (even: lam) below it, also
    # past the int64 range
    pts = np.array([[1e18], [1e30], [-1e18], [-1e30]])
    assert coef.sample(pts)[:, 0, 0].tolist() == [1.0, 1.0, 0.5, 0.5]


def test_elliptic_exact_on_affine():
    axes = [Axis("x", -1, 1, 32), Axis("x", -1, 1, 32)]
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=_identity(),
                   boundary=lambda p: 1.0 + 2.0 * p[..., 0] - p[..., 1],
                   source=0.0)
    sol = sv.solve_elliptic(P)
    X, Y = sol.u.meshgrid()
    assert np.abs(sol.u.values - (1.0 + 2.0 * X - Y)).max() < 1e-8


def test_elliptic_exact_on_quadratic():
    # u = x^2 + y^2 solves -lap u = -4 with matching boundary data
    axes = [Axis("x", -1, 1, 24), Axis("x", -1, 1, 24)]
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=_identity(),
                   boundary=lambda p: p[..., 0] ** 2 + p[..., 1] ** 2,
                   source=-4.0)
    sol = sv.solve_elliptic(P)
    X, Y = sol.u.meshgrid()
    assert np.abs(sol.u.values - (X ** 2 + Y ** 2)).max() < 1e-8


def test_elliptic_max_principle_recorded():
    axes = [Axis("x", -1, 1, 48), Axis("x", -1, 1, 48)]
    coef = sv.make_coefficients({"kind": "checkerboard", "lam": 0.2,
                                 "Lam": 1.0, "tiles": 8})
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=coef,
                   boundary=lambda p: np.sin(3 * p[..., 0]) * p[..., 1],
                   source=0.0)
    sol = sv.solve_elliptic(P)
    mp = sol.info["max_principle"]
    assert mp["ok"]
    assert mp["data_min"] - 1e-9 <= mp["u_min"]


def test_elliptic_weak_residual_small():
    axes = [Axis("x", -1, 1, 40), Axis("x", -1, 1, 40)]
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=_identity(),
                   boundary=lambda p: p[..., 0], source=0.0)
    sol = sv.solve_elliptic(P)
    rep = sv.residual_check(sol, P, seed=4)
    assert rep["scaled"] < 1e-8


def test_pcg_reports_history_and_stalls():
    axes = [Axis("x", -1, 1, 24), Axis("x", -1, 1, 24)]
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=_identity(),
                   boundary=0.0, source=1.0)
    sol = sv.solve_elliptic(P)
    hist = sol.info["residual_history"]
    assert hist[-1] <= 1e-10 * max(1.0, hist[0])
    op = sv._DiffusionOperator(axes, P.coefficients)
    precond = sv._VCycle(op, P.coefficients)
    with pytest.raises(sv.SolverError, match="stalled") as err:
        sv._pcg(op.apply, np.ones((24, 24)), precond, max_iter=3)
    assert err.value.residual_history == hist[:3]
    # a start near the solution saves iterations; a zero rhs gives 0 from anywhere
    _, warm = sv._pcg(op.apply, np.ones((24, 24)), precond, x0=sol.u.values + 1e-6)
    assert warm[-1] <= 1e-10 and len(warm) < len(hist)
    u, none = sv._pcg(op.apply, np.zeros((24, 24)), precond, x0=sol.u.values)
    assert not u.any() and none == []


@pytest.mark.parametrize("data", [{"source": np.nan}, {"source": np.inf},
                                  {"boundary": np.inf}, {"boundary": -np.inf}],
                         ids=["nan-source", "inf-source", "inf-boundary",
                              "minus-inf-boundary"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_pcg_stops_at_the_first_non_finite_residual(data):
    axes = [Axis("x", -1, 1, 64), Axis("x", -1, 1, 64)]
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=_identity(), **data)
    with pytest.raises(sv.SolverError, match="non-finite") as err:
        sv.solve_elliptic(P)
    hist = err.value.residual_history
    assert len(hist) == 1 and not np.isfinite(hist[0])


def test_pcg_rejects_max_iter_below_one():
    op = sv._DiffusionOperator([Axis("x", -1, 1, 8)], _identity())
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            sv._pcg(op.apply, np.ones(8), sv._VCycle(op, _identity()), max_iter=bad)


def test_parabolic_mode_decay():
    # pure Fourier mode under homogeneous Dirichlet decays like the
    # discrete implicit-Euler factor of its eigenvalue
    n, nt, T = 64, 128, 0.1
    axes = [Axis("x", 0, np.pi, n)]
    P = sv.Problem(kind="parabolic", axes=axes, coefficients=_identity(),
                   boundary=0.0, initial=lambda p: np.sin(p[..., 0]),
                   source=0.0, t_final=T, nt=nt)
    sol = sv.solve_parabolic(P)
    x = axes[0].centers()
    # the Dirichlet ghost sits half a cell outside, so compare away from
    # the endpoints where the sine is not exactly resolved
    ratio = sol.u.values[8:-8] / np.sin(x)[8:-8]
    assert np.std(ratio) < 2e-2
    assert np.mean(ratio) == pytest.approx(np.exp(-T), rel=3e-2)


def test_parabolic_preserves_constants():
    axes = [Axis("x", -1, 1, 32)]
    P = sv.Problem(kind="parabolic", axes=axes, coefficients=_identity(),
                   boundary=1.0, initial=1.0, source=0.0, t_final=0.3, nt=16)
    sol = sv.solve_parabolic(P)
    assert np.abs(sol.u.values - 1.0).max() < 1e-12


def _shifted(f, x_axis, v_axis, dt):
    """The solver's transport step on an x-major array, returned x-major."""
    out = np.empty(f.shape[::-1])
    plan = sv._transport_plan(x_axis, v_axis, dt)
    sv._transport(f, plan, out, np.empty_like(out))
    return out.T


def test_kinetic_transport_exact_at_aligned_shift():
    # with pure transport over one step the semi-Lagrangian update is an
    # exact periodic shift when v dt is a multiple of the cell width
    axes = [Axis("x", 0, 1, 32), Axis("v", 1, 1.0001, 1)]
    rng = np.random.default_rng(5)
    f = rng.random((32, 1))
    dt = 2.0 / 32  # shift of exactly 2 cells at v ~ 1
    out = _shifted(f.copy(), axes[0], axes[1], dt)
    assert np.allclose(out[:, 0], np.roll(f[:, 0], 2), atol=1e-4)
    # v ~ -1 shifts left by 2 cells, wrapping the first cells to the end
    axes = [Axis("x", 0, 1, 32), Axis("v", -1.0001, -1, 1)]
    out = _shifted(f.copy(), axes[0], axes[1], dt)
    assert np.allclose(out[:, 0], np.roll(f[:, 0], -2), atol=1e-4)


def test_kinetic_mass_conservation_and_positivity():
    axes = [Axis("x", -0.5, 0.5, 48), Axis("v", -2, 2, 48)]
    X, V = np.meshgrid(axes[0].centers(), axes[1].centers(), indexing="ij")
    f0 = np.exp(-8 * X ** 2 - 2 * V ** 2)
    P = sv.Problem(kind="kinetic-fp", axes=axes, coefficients=_identity(),
                   initial=GridFunction(axes, f0), source=0.0,
                   t_final=0.05, nt=16)
    sol = sv.solve_kinetic_fp(P)
    assert min(h.min() for h in sol.info["history"]) >= 0.0
    # v-Dirichlet absorbs a little mass; drift must stay tiny for data
    # concentrated far from the v-boundary
    assert abs(sol.info["mass_drift"]) < 1e-3


def test_kinetic_weak_residual_refines():
    axes = [Axis("x", -0.6, 0.6, 64), Axis("v", -2.5, 2.5, 64)]
    X, V = np.meshgrid(axes[0].centers(), axes[1].centers(), indexing="ij")
    errs = []
    for nt in (8, 16):
        P = sv.Problem(kind="kinetic-fp", axes=axes, coefficients=_identity(),
                       initial=GridFunction(
                           axes, ker.gamma(0.2, X[..., None], V[..., None])),
                       source=0.0, t_final=0.05, nt=nt)
        sol = sv.solve_kinetic_fp(P)
        rep = sv.residual_check(sol, P, seed=6)
        errs.append(rep["scaled"])
    assert errs[1] < errs[0]


def test_solver_error_carries_history():
    err = sv.SolverError("stalled", [1.0, 0.5])
    assert err.residual_history == [1.0, 0.5]


def test_array_and_gridfunction_sources_match_constant():
    axes = [Axis("x", -1, 1, 24), Axis("x", -1, 1, 24)]
    shape = (24, 24)
    ref = sv.solve_elliptic(sv.Problem(kind="elliptic", axes=axes,
                                       coefficients=_identity(), source=1.0))
    for src in (np.ones(shape), GridFunction(axes, np.ones(shape))):
        sol = sv.solve_elliptic(sv.Problem(kind="elliptic", axes=axes,
                                           coefficients=_identity(), source=src))
        assert np.allclose(sol.u.values, ref.u.values, rtol=1e-12, atol=0)
    par = dict(kind="parabolic", axes=axes[:1], coefficients=_identity(),
               initial=0.0, t_final=0.1, nt=4)
    ref = sv.solve_parabolic(sv.Problem(source=1.0, **par))
    sol = sv.solve_parabolic(sv.Problem(source=np.ones(24), **par))
    assert np.array_equal(sol.u.values, ref.u.values)
    assert "max_principle" not in sol.info
    zero = sv.solve_parabolic(sv.Problem(source=np.zeros(24), **par))
    assert zero.info["max_principle"]["ok"]


def test_source_arity_is_read_from_the_signature():
    axes = [Axis("x", -1, 1, 16)]
    par = dict(kind="parabolic", axes=axes, coefficients=_identity(),
               initial=0.0, t_final=0.1, nt=4)

    def broken(t, pts):
        raise TypeError("broken source")

    with pytest.raises(TypeError, match="broken source"):
        sv.solve_parabolic(sv.Problem(source=broken, **par))
    seen = []
    sv.solve_parabolic(sv.Problem(source=lambda t, p: seen.append(t) or 0 * p[..., 0], **par))
    assert seen == pytest.approx([0.025, 0.05, 0.075, 0.1])
    # a default argument does not make a source time-dependent
    sol = sv.solve_parabolic(sv.Problem(source=lambda p, scale=2.0: scale + 0 * p[..., 0], **par))
    ref = sv.solve_parabolic(sv.Problem(source=2.0, **par))
    assert np.array_equal(sol.u.values, ref.u.values)


def test_kinetic_drift_must_be_the_v_component():
    axes = [Axis("x", -0.5, 0.5, 12), Axis("v", -1, 1, 12)]
    P = sv.Problem(kind="kinetic-fp", axes=axes, coefficients=_identity(),
                   initial=1.0, drift=lambda p: -p[..., 1:], t_final=0.1,
                   nt=2)
    with pytest.raises(ValueError, match="drift"):
        sv.solve_kinetic_fp(P)


# The split step as solve_kinetic_fp took it before the Thomas factor and
# the transport plan were computed once per solve, kept verbatim as an
# oracle: the solver must reproduce it bit for bit.

def _transport_x(f, x_axis, v_axis, dt):
    """Periodic semi-Lagrangian shift f(x, v) <- f(x - v dt, v)."""
    Nx = x_axis.n
    s = v_axis.centers() * dt / x_axis.h       # shift in cells, per v column
    k = np.floor(s).astype(int)
    w = s - k
    i = np.arange(Nx)[:, None]
    j = np.arange(v_axis.n)[None, :]
    i0 = (i - k[None, :]) % Nx
    i1 = (i - k[None, :] - 1) % Nx
    return (1.0 - w)[None, :] * f[i0, j] + w[None, :] * f[i1, j]


def _thomas_batched(lower, diag, upper, rhs):
    """Solve tridiagonal systems batched along axis 0 (one per x column)."""
    n = diag.shape[1]
    c = np.zeros_like(diag)
    d = np.zeros_like(rhs)
    c[:, 0] = upper[:, 0] / diag[:, 0]
    d[:, 0] = rhs[:, 0] / diag[:, 0]
    for j in range(1, n):
        den = diag[:, j] - lower[:, j] * c[:, j - 1]
        c[:, j] = upper[:, j] / den
        d[:, j] = (rhs[:, j] - lower[:, j] * d[:, j - 1]) / den
    x = np.zeros_like(rhs)
    x[:, -1] = d[:, -1]
    for j in range(n - 2, -1, -1):
        x[:, j] = d[:, j] - c[:, j] * x[:, j + 1]
    return x


def _oracle_kinetic_fp(P):
    x_axis, v_axis = P.axes
    pts = sv._cell_points(P.axes)
    dt = P.t_final / P.nt
    f = sv._eval(P.initial, pts)
    lower, diag, upper = sv._v_step_matrices(P, pts)
    Idt = 1.0 / dt
    mass = [float(f.sum()) * x_axis.h * v_axis.h]
    history = [f.copy()]
    times = [0.0]
    for n in range(P.nt):
        f = _transport_x(f, x_axis, v_axis, dt)
        t_new = (n + 1) * dt
        rhs = f * Idt + P.source_at(t_new, pts)
        f = _thomas_batched(lower * 1.0, diag + Idt, upper * 1.0, rhs)
        mass.append(float(f.sum()) * x_axis.h * v_axis.h)
        history.append(f.copy())
        times.append(t_new)
    return f, history, mass, times


def _rough_kinetic_problem(nx, nv, nt, seed, **kw):
    rng = np.random.default_rng(seed)
    axes = [Axis("x", -0.5, 0.7, nx), Axis("v", -1.3, 1.1, nv)]
    coef = sv.make_coefficients({"kind": "checkerboard", "lam": 0.2,
                                 "Lam": 1.0, "tiles": 5}, seed=seed)
    kw.setdefault("initial", 0.2 + rng.random((nx, nv)))
    kw.setdefault("source", 0.0)
    return sv.Problem(kind="kinetic-fp", axes=axes, coefficients=coef,
                      t_final=0.2, nt=nt, **kw)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("P", [
    _rough_kinetic_problem(40, 24, 9, 1),
    _rough_kinetic_problem(24, 40, 9, 2,
                           drift=lambda p: np.sin(4 * p[..., 0]) - 2 * p[..., 1]),
    _rough_kinetic_problem(33, 17, 9, 3,
                           source=lambda t, p: np.cos(7 * t) * p[..., 0] * p[..., 1]),
], ids=["checkerboard", "drift", "time-source"])
def test_kinetic_solver_reproduces_the_split_step_bit_for_bit(P):
    sol = sv.solve_kinetic_fp(P)
    f, history, mass, times = _oracle_kinetic_fp(P)
    assert len(sol.info["history"]) == len(history)
    assert all(_same_bits(a, b) for a, b in zip(sol.info["history"], history))
    assert sol.info["mass"] == mass
    assert sol.info["mass_drift"] == mass[-1] - mass[0]
    assert sol.info["times"] == times
    assert _same_bits(sol.u.values, f)
    assert not np.shares_memory(sol.u.values, sol.info["history"][-1])
    if P.source_free:
        lo = min(0.0, float(history[0].min()))
        hi = max(0.0, float(history[0].max()))
        assert sol.info["max_principle"] == {
            "data_min": lo, "data_max": hi,
            "u_min": float(f.min()), "u_max": float(f.max()),
            "ok": bool(f.min() >= lo - 1e-9 and f.max() <= hi + 1e-9)}
    else:
        assert "max_principle" not in sol.info


# _DiffusionOperator and the face build of _v_step_matrices as they were
# before the one face builder and the flux stencil (Dirichlet branch), kept
# verbatim as an oracle: the operator must reproduce them bit for bit.

class _LoopOperator:

    def __init__(self, axes, A, boundary=0.0):
        self.axes = axes
        pts = sv._cell_points(axes)
        d = len(axes)
        self.face_coef = []
        self.bdry_val = []
        for k, ax in enumerate(axes):
            a = A.diag_entry(pts, min(k, A.d_mat - 1))
            # ghost centers half a cell outside the box
            glo = pts.take([0], axis=k).copy()
            glo[..., k] = ax.lo - 0.5 * ax.h
            ghi = pts.take([-1], axis=k).copy()
            ghi[..., k] = ax.hi + 0.5 * ax.h
            a_glo = A.diag_entry(glo, min(k, A.d_mat - 1))
            a_ghi = A.diag_entry(ghi, min(k, A.d_mat - 1))
            inner = 0.5 * (np.take(a, range(0, ax.n - 1), axis=k)
                           + np.take(a, range(1, ax.n), axis=k))
            face = np.concatenate([0.5 * (a_glo + a.take([0], axis=k)), inner,
                                   0.5 * (a_ghi + a.take([-1], axis=k))], axis=k)
            self.face_coef.append(face)      # ax.n + 1 faces along axis k
            self.bdry_val.append((sv._eval(boundary, glo).take(0, axis=k),
                                  sv._eval(boundary, ghi).take(0, axis=k)))

    def apply(self, u):
        out = np.zeros_like(u)
        d = len(self.axes)
        for k, ax in enumerate(self.axes):
            h2 = ax.h * ax.h
            face = self.face_coef[k]
            pad = [(0, 0)] * d
            pad[k] = (1, 1)
            ue = np.pad(u, pad)                             # ghost = 0
            sl_lo = tuple(slice(None) if i != k else slice(0, ax.n) for i in range(d))
            sl_c = tuple(slice(None) if i != k else slice(1, ax.n + 1) for i in range(d))
            sl_hi = tuple(slice(None) if i != k else slice(2, ax.n + 2) for i in range(d))
            f_lo = face[tuple(slice(None) if i != k else slice(0, ax.n) for i in range(d))]
            f_hi = face[tuple(slice(None) if i != k else slice(1, ax.n + 1) for i in range(d))]
            out += (f_lo * (ue[sl_c] - ue[sl_lo]) + f_hi * (ue[sl_c] - ue[sl_hi])) / h2
        return out

    def boundary_rhs(self):
        d = len(self.axes)
        shape = tuple(a.n for a in self.axes)
        rhs = np.zeros(shape)
        for k, ax in enumerate(self.axes):
            h2 = ax.h * ax.h
            face = self.face_coef[k]
            g_lo, g_hi = self.bdry_val[k]
            f_lo = face.take(0, axis=k)
            f_hi = face.take(-1, axis=k)
            first = tuple(slice(None) if i != k else 0 for i in range(d))
            last = tuple(slice(None) if i != k else ax.n - 1 for i in range(d))
            rhs[first] += f_lo * g_lo / h2
            rhs[last] += f_hi * g_hi / h2
        return rhs

    def diagonal(self):
        d = len(self.axes)
        shape = tuple(a.n for a in self.axes)
        diag = np.zeros(shape)
        for k, ax in enumerate(self.axes):
            h2 = ax.h * ax.h
            face = self.face_coef[k]
            f_lo = face[tuple(slice(None) if i != k else slice(0, ax.n) for i in range(d))]
            f_hi = face[tuple(slice(None) if i != k else slice(1, ax.n + 1) for i in range(d))]
            diag += (f_lo + f_hi) / h2
        return diag

    def boundary_extremes(self):
        vals = []
        for pair in self.bdry_val:
            vals.extend([float(pair[0].min()), float(pair[0].max()),
                         float(pair[1].min()), float(pair[1].max())])
        return min(vals), max(vals)


# _pcg as it was before it worked in preallocated buffers and took a
# multigrid preconditioner, kept verbatim as an oracle apart from the norm,
# which is a parameter: given the same Jacobi preconditioner, the solver
# must reproduce its iterates bit for bit, and its residuals with the norm
# taken as the solver takes it.

def _allocating_pcg(apply_op, rhs, diag, tol=1e-10, max_iter=20000, shift=0.0,
                    norm=np.linalg.norm):
    """Jacobi-preconditioned conjugate gradients for (shift I + L) u = rhs."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    M = 1.0 / (diag + shift)
    z = M * r
    p = z.copy()
    rz = float((r * z).sum())
    nrhs = float(norm(rhs))
    history = []
    if nrhs == 0.0:
        return x, history
    for it in range(max_iter):
        Ap = shift * p + apply_op(p)
        alpha = rz / float((p * Ap).sum())
        x += alpha * p
        r -= alpha * Ap
        res = float(norm(r)) / nrhs
        history.append(res)
        if res <= tol:
            return x, history
        z = M * r
        rz_new = float((r * z).sum())
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise sv.SolverError(f"conjugate gradients stalled at {history[-1]:.3e}", history)


def _pairwise_norm(v):
    """The residual norm as _pcg takes it: a pairwise sum, no BLAS."""
    return math.sqrt(float((v * v).sum()))


def _jacobi(diag, shift):
    """The oracle's preconditioner z = r / (diag + shift) for _pcg."""
    M = 1.0 / (diag + shift)
    return lambda r, out: np.multiply(M, r, out=out)


def _loop_v_step_matrices(P, pts):
    x_axis, v_axis = P.axes
    hv = v_axis.h
    a = P.coefficients.diag_entry(pts, P.coefficients.d_mat - 1)  # (Nx, Nv)
    # face coefficients in v, ghost cells half a step outside with same rule
    lo_pts = pts[:, :1, :].copy()
    lo_pts[..., 1] = v_axis.lo - 0.5 * hv
    hi_pts = pts[:, -1:, :].copy()
    hi_pts[..., 1] = v_axis.hi + 0.5 * hv
    a_lo = P.coefficients.diag_entry(lo_pts, P.coefficients.d_mat - 1)
    a_hi = P.coefficients.diag_entry(hi_pts, P.coefficients.d_mat - 1)
    ae = np.concatenate([a_lo, a, a_hi], axis=1)
    face = 0.5 * (ae[:, :-1] + ae[:, 1:])            # (Nx, Nv+1)
    B = np.zeros_like(a)
    if P.drift is not None:
        B = sv._eval(P.drift, pts)
    lower = -face[:, :-1] / hv ** 2 + B / (2.0 * hv)
    upper = -face[:, 1:] / hv ** 2 - B / (2.0 * hv)
    diag = (face[:, :-1] + face[:, 1:]) / hv ** 2
    return lower, diag, upper


def _rough_fields(point_dim, d):
    """Checkerboard, random-piecewise-constant and rotating-anisotropy
    fields of d x d matrices over points in R^point_dim; the last two are
    scalar (d = 1) where d x d is not defined for them."""
    dm = d if d <= 2 else 1
    yield sv.make_coefficients({"kind": "checkerboard", "lam": 0.2, "Lam": 1.0,
                                "tiles": 5, "d": d})
    yield sv.make_coefficients({"kind": "random-piecewise-constant", "lam": 0.3,
                                "Lam": 1.0, "tiles": 4, "d": dm,
                                "point_dim": point_dim}, seed=point_dim)
    yield sv.make_coefficients({"kind": "rotating-anisotropy", "lam": 0.25,
                                "Lam": 1.0, "d": dm})


def _zero_heavy(rng, shape):
    """Random data with runs of equal neighbours and both signed zeros."""
    u = np.round(2.0 * rng.standard_normal(shape)) / 2.0
    u[u == 0.0] = -0.0
    u.flat[::3] = 0.0
    return u


@pytest.mark.parametrize("axes", [
    [Axis("x", -1, 1, 37)],
    [Axis("x", -1, 1, 24), Axis("x", -0.5, 1.5, 31)],
    [Axis("x", -1, 1, 9), Axis("x", -1, 0.5, 12), Axis("x", 0, 1, 7)],
    [Axis("x", -1, 1, 1), Axis("x", -0.5, 1.5, 5)],
    [Axis("x", -1, 1, 5), Axis("x", -0.5, 1.5, 1)],
    [Axis("x", -1, 1, 2), Axis("x", -1, 0.5, 3), Axis("x", 0, 1, 1)],
], ids=["1d", "2d", "3d", "1x5", "5x1", "2x3x1"])
def test_operator_reproduces_the_loop_stencil_bit_for_bit(axes):
    rng = np.random.default_rng(len(axes))
    shape = tuple(a.n for a in axes)
    boundary = lambda p: np.sin(3 * p[..., 0]) + p[..., -1] ** 2
    for A in _rough_fields(len(axes), len(axes)):
        op = sv._DiffusionOperator(axes, A, boundary)
        ref = _LoopOperator(axes, A, boundary)
        assert all(np.array_equal(f, g) for f, g in zip(op.face_coef, ref.face_coef))
        assert np.array_equal(op.diagonal(), ref.diagonal())
        assert np.array_equal(op.boundary_rhs(), ref.boundary_rhs())
        assert op.boundary_extremes() == ref.boundary_extremes()
        buf = np.full(shape, np.nan)
        every_other = tuple(slice(k % 2, None, 2) for k in range(len(shape)))
        for u in (rng.standard_normal(shape), _zero_heavy(rng, shape),
                  np.where(rng.random(shape) < 0.5, 0.0, -0.0),
                  _zero_heavy(rng, tuple(2 * n for n in shape))[every_other],
                  rng.standard_normal(shape[::-1]).T):
            assert _same_bits(op.apply(u), ref.apply(u))
            assert op.apply(u, out=buf) is buf      # reused, dirty
            assert _same_bits(buf, ref.apply(u))
            buf[::2] = -0.0


@pytest.mark.parametrize("axes", [
    [Axis("x", -1, 1, 37)],
    [Axis("x", -1, 1, 24), Axis("x", -0.5, 1.5, 31)],
    [Axis("x", -1, 1, 9), Axis("x", -1, 0.5, 12), Axis("x", 0, 1, 7)],
], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("shift", [0.0, 1.0 / 0.0125], ids=["elliptic", "parabolic"])
def test_pcg_reproduces_the_allocating_loop_bit_for_bit(axes, shift):
    rng = np.random.default_rng(10 + len(axes))
    shape = tuple(a.n for a in axes)
    for A in _rough_fields(len(axes), len(axes)):
        op = sv._DiffusionOperator(axes, A)
        ref = _LoopOperator(axes, A)
        diag = op.diagonal()
        for rhs in (rng.standard_normal(shape), _zero_heavy(rng, shape)):
            x, history = sv._pcg(op.apply, rhs, _jacobi(diag, shift), shift=shift)
            x_ref, history_ref = _allocating_pcg(ref.apply, rhs, diag, shift=shift)
            assert len(history) > 1 and len(history) == len(history_ref)
            assert _same_bits(x, x_ref)
            _, history_pairwise = _allocating_pcg(ref.apply, rhs, diag, shift=shift,
                                                  norm=_pairwise_norm)
            assert history == history_pairwise


def _all_fields(point_dim, d):
    yield _identity()
    yield from _rough_fields(point_dim, d)


@pytest.mark.parametrize("axes", [
    [Axis("x", -1, 1, 161)],
    [Axis("x", -1, 1, 200)],
    [Axis("x", -1, 1, 33), Axis("x", -0.5, 1.5, 45)],
    [Axis("x", -1, 1, 48), Axis("x", -0.5, 1.5, 40)],
    [Axis("x", -1, 1, 9), Axis("x", -1, 0.5, 13), Axis("x", 0, 1, 7)],
    [Axis("x", -1, 1, 12), Axis("x", -1, 0.5, 10), Axis("x", 0, 1, 8)],
], ids=["1d-odd", "1d-even", "2d-odd", "2d-even", "3d-odd", "3d-even"])
@pytest.mark.parametrize("shift", [0.0, 80.0, 1e4], ids=["0", "80", "1e4"])
def test_multigrid_pcg_matches_the_jacobi_loop(axes, shift):
    rng = np.random.default_rng(20 + len(axes))
    shape = tuple(a.n for a in axes)
    for A in _all_fields(len(axes), len(axes)):
        op, ref = sv._DiffusionOperator(axes, A), _LoopOperator(axes, A)
        precond = sv._VCycle(op, A, shift=shift)
        assert len(precond.levels) > 1
        for rhs in (rng.standard_normal(shape), _zero_heavy(rng, shape)):
            u, history = sv._pcg(op.apply, rhs, precond, shift=shift)
            u_ref, history_ref = _allocating_pcg(ref.apply, rhs, op.diagonal(),
                                                 shift=shift)
            assert np.abs(u - u_ref).max() <= 1e-8 * np.abs(u_ref).max()
            assert history[-1] <= 1e-10 and history_ref[-1] <= 1e-10


@pytest.mark.parametrize("axes, shift", [
    ([Axis("x", -1, 1, 45), Axis("x", -0.5, 1.5, 37)], 0.0),
    ([Axis("x", -1, 1, 45), Axis("x", -0.5, 1.5, 37)], 80.0),
    ([Axis("x", -1, 1, 13), Axis("x", -1, 0.5, 11), Axis("x", 0, 1, 9)], 0.0),
    ([Axis("x", -1, 1, 16), Axis("x", -1, 1, 16)], 0.0),
], ids=["2d-odd", "2d-odd-shifted", "3d-odd", "2d-even"])
def test_vcycle_is_symmetric_positive_definite(axes, shift):
    # the operator L itself too: CG needs both symmetric
    rng = np.random.default_rng(7)
    shape = tuple(a.n for a in axes)
    for A in _all_fields(len(axes), len(axes)):
        op = sv._DiffusionOperator(axes, A)
        precond = sv._VCycle(op, A, shift=shift)
        for _ in range(3):
            r, s = rng.standard_normal(shape), rng.standard_normal(shape)
            for apply in (op.apply, precond):
                Br = apply(r, np.empty(shape))
                Bs = apply(s, np.empty(shape))
                gap = abs(float((Br * s).sum()) - float((r * Bs).sum()))
                assert gap <= 1e-12 * math.sqrt(float((Br * Br).sum()) * float((s * s).sum()))
                assert float((Br * r).sum()) > 0


@pytest.mark.parametrize("n, lam, limit", [(224, 0.5, 30), (352, 0.2, 40)],
                         ids=["holder-scan-224", "criterion-11-352"])
def test_multigrid_pcg_iterations_stay_few(n, lam, limit):
    # a broken hierarchy still converges, only slower: this is what sees it
    axes = [Axis("x", -1.1, 1.1, n), Axis("x", -1.1, 1.1, n)]
    coef = sv.make_coefficients({"kind": "checkerboard", "lam": lam, "Lam": 1.0,
                                 "tiles": 8})
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=coef,
                   boundary=lambda p: p[..., 0] - 0.6 * p[..., 1]
                   + 0.1 * (p[..., 0] ** 2 - p[..., 1] ** 2), source=0.0)
    assert sv.solve_elliptic(P).info["iterations"] <= limit


def test_elliptic_and_parabolic_solves_call_no_blas(monkeypatch):
    def blas(*args, **kwargs):
        raise AssertionError("a BLAS routine was called")

    monkeypatch.setattr(np.linalg, "norm", blas)
    for name in ("dot", "vdot", "inner", "matmul", "vecdot"):
        if hasattr(np, name):
            monkeypatch.setattr(np, name, blas)
    axes = [Axis("x", -1, 1, 12), Axis("x", -1, 1, 10)]
    A = sv.make_coefficients({"kind": "checkerboard", "lam": 0.2, "Lam": 1.0,
                              "tiles": 3, "d": 2})
    sol = sv.solve_elliptic(sv.Problem(kind="elliptic", axes=axes, coefficients=A,
                                       boundary=0.5, source=1.0))
    assert sol.info["iterations"] > 1
    sol = sv.solve_parabolic(sv.Problem(kind="parabolic", axes=axes, coefficients=A,
                                        boundary=0.5, initial=1.0, source=1.0,
                                        t_final=0.1, nt=3))
    assert len(sol.info["iterations"]) == 3 and min(sol.info["iterations"]) > 1


@pytest.mark.parametrize("drift", [None, lambda p: np.sin(4 * p[..., 0]) - 2 * p[..., 1]],
                         ids=["no-drift", "drift"])
def test_v_step_matrices_reproduce_the_loop_face_build(drift):
    for A in _rough_fields(2, 1):
        P = _rough_kinetic_problem(24, 40, 4, 5, drift=drift)
        P.coefficients = A
        pts = sv._cell_points(P.axes)
        for m, ref in zip(sv._v_step_matrices(P, pts), _loop_v_step_matrices(P, pts)):
            assert _same_bits(m, ref)


def test_a_source_without_t_is_evaluated_once_per_solve():
    calls = []

    def once(p):
        calls.append(None)
        return 0.3 * p[..., -1]

    def per_step(t, p):
        calls.append(t)
        return np.cos(7 * t) * p[..., -1]

    par = dict(kind="parabolic", axes=[Axis("x", -1, 1, 16)],
               coefficients=_identity(0.5), boundary=0.2, t_final=0.1, nt=5,
               initial=lambda p: np.cos(p[..., 0]))
    for source, n_calls in ((once, 1), (per_step, 5)):
        calls.clear()
        P = sv.Problem(source=source, **par)
        sol = sv.solve_parabolic(P)
        assert len(calls) == n_calls
        op = sv._DiffusionOperator(P.axes, P.coefficients, P.boundary)
        pts = sv._cell_points(P.axes)
        u, dt = sv._eval(P.initial, pts), P.t_final / P.nt
        precond = sv._VCycle(op, P.coefficients, shift=1.0 / dt)
        for n in range(P.nt):       # the time loop evaluating S every step
            rhs = u / dt + P.source_at((n + 1) * dt, pts) + op.boundary_rhs()
            u, _ = sv._pcg(op.apply, rhs, precond, shift=1.0 / dt, x0=u)
        assert _same_bits(sol.u.values, u)

        calls.clear()
        P = _rough_kinetic_problem(20, 12, 7, 6, source=source)
        sol = sv.solve_kinetic_fp(P)
        assert len(calls) == (1 if source is once else 7)
        f, history, mass, times = _oracle_kinetic_fp(P)
        assert _same_bits(sol.u.values, f) and sol.info["mass"] == mass
