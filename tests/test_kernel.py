import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinlab.gridfn import Axis, GridFunction
from kinlab import kernel as ker


def test_gamma_value_at_center():
    # closed form at t=1, x=v=0: (3 / (4 pi^2))^{1/2} = sqrt(3) / (2 pi)
    assert ker.gamma(1.0, [0.0], [0.0]) == pytest.approx(
        math.sqrt(3.0) / (2.0 * math.pi), rel=1e-14)


def test_gamma_vanishes_for_nonpositive_time():
    assert ker.gamma(0.0, [0.1], [0.2]) == 0.0
    assert ker.gamma(-1.0, [0.1], [0.2]) == 0.0


def test_gamma_scaling_relation():
    rng = np.random.default_rng(0)
    for _ in range(30):
        t = rng.uniform(0.2, 3.0)
        x, v = rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
        lhs = ker.gamma(t, x, v)
        rhs = t ** -2 * ker.gamma1(x * t ** -1.5, v * t ** -0.5)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_unit_mass_quadrature():
    L, n = 8.0, 400
    ax = np.linspace(-L, L, n)
    h = ax[1] - ax[0]
    X, V = np.meshgrid(ax, ax, indexing="ij")
    mass = float(ker.gamma1(X[..., None], V[..., None]).sum()) * h * h
    assert mass + ker.gamma_tail_mass(L, 1) == pytest.approx(1.0, abs=1e-7)


def test_kolmogorov_residual_small_and_shrinking():
    reps = []
    for h in (0.08, 0.04):
        axes = [Axis("t", 1.0, 1.5, round(0.5 / h)),
                Axis("x", -2.5, 2.5, round(5.0 / h)),
                Axis("v", -2.5, 2.5, round(5.0 / h))]
        T, X, V = np.meshgrid(*[a.centers() for a in axes], indexing="ij")
        g = GridFunction(axes, ker.gamma(T, X[..., None], V[..., None]))
        reps.append(ker.kolmogorov_residual(g))
    assert reps[0].l2_residual < 0.05
    assert reps[1].l2_residual < reps[0].l2_residual / 2.5


@given(st.floats(min_value=1.0, max_value=4.0), st.integers(min_value=0, max_value=10))
@settings(max_examples=30, deadline=None)
def test_weak_norm_below_strong_norm(p, seed):
    axes = [Axis("t", 0, 1, 4), Axis("x", -1, 1, 12), Axis("v", -1, 1, 12)]
    vals = np.random.default_rng(seed).normal(size=(4, 12, 12)) ** 2
    g = GridFunction(axes, vals)
    assert ker.weak_lp_norm(g, p).value <= g.norm_lp(p) * (1 + 1e-12)


def test_young_inequality_random_pairs():
    rng = np.random.default_rng(7)
    axes = [Axis("t", 0, 1, 5), Axis("x", -2, 2, 16), Axis("v", -2, 2, 16)]
    shape = tuple(a.n for a in axes)
    for _ in range(5):
        f = GridFunction(axes, rng.random(shape))
        g = GridFunction(axes, rng.random(shape))
        rep = ker.young_check(f, g, 1.5, 1.2)
        assert rep.passed, (rep.lhs, rep.rhs)


def test_convolution_is_bilinear():
    rng = np.random.default_rng(8)
    axes = [Axis("t", 0, 1, 4), Axis("x", -1, 1, 10), Axis("v", -1, 1, 10)]
    shape = tuple(a.n for a in axes)
    f = GridFunction(axes, rng.random(shape))
    g = GridFunction(axes, rng.random(shape))
    h = GridFunction(axes, rng.random(shape))
    a = ker.kin_convolve(f, GridFunction(axes, 2 * g.values + h.values)).out
    b = ker.kin_convolve(f, g).out
    c = ker.kin_convolve(f, h).out
    assert np.allclose(a.values, 2 * b.values + c.values, atol=1e-12)


def _convolve_by_sampling(f, g):
    """Reference group convolution: GridFunction.sample at every
    (output, input) pair, on axes ordered (t, x..., v...)."""
    d = (len(g.axes) - 1) // 2
    out = GridFunction(f.axes)
    zo = np.stack([c.ravel() for c in out.meshgrid()], axis=-1)
    zg = np.stack([c.ravel() for c in g.meshgrid()], axis=-1)
    dt = zo[:, None, :1] - zg[None, :, :1]
    w = zg[None, :, 1 + d:]
    dx = zo[:, None, 1:1 + d] - zg[None, :, 1:1 + d] - dt * w
    dv = zo[:, None, 1 + d:] - w
    pts = np.concatenate([dt, dx, dv], axis=-1)
    vals, _ = f.sample(pts)
    lo = np.array([a.lo for a in f.axes])
    hi = np.array([a.hi for a in f.axes])
    outside = ~np.all((pts >= lo) & (pts <= hi), axis=-1)
    gv = g.values.ravel()
    conv = (vals * gv).sum(axis=1).reshape(out.shape) * g.cell_volume
    trunc = float((outside * np.abs(gv)).sum()) * g.cell_volume / zo.shape[0]
    return conv, trunc


@pytest.mark.parametrize("f_axes, g_axes", [
    # d = 1, g on f's lattice
    ([Axis("t", 0, 1, 4), Axis("x", -2, 2, 9), Axis("v", -2, 2, 8)], None),
    # d = 1, g on a lattice past f's box: more samples leave f's box, and
    # the half-cell clamp
    ([Axis("t", 0, 1, 4), Axis("x", -2, 2, 9), Axis("v", -2, 2, 8)],
     [Axis("t", -0.3, 1.4, 5), Axis("x", -3, 2.6, 7), Axis("v", -2.4, 2.9, 6)]),
    # d = 2
    ([Axis("t", 0, 1, 3), Axis("x", -1, 1, 4), Axis("x", -1, 1.2, 3),
      Axis("v", -1, 1, 3), Axis("v", -1.5, 1, 4)], None),
])
def test_convolution_matches_pointwise_sampling(f_axes, g_axes):
    rng = np.random.default_rng(9)
    g_axes = g_axes or f_axes
    f = GridFunction(f_axes, rng.random(tuple(a.n for a in f_axes)))
    g = GridFunction(g_axes, rng.normal(size=tuple(a.n for a in g_axes)))
    ref, ref_trunc = _convolve_by_sampling(f, g)
    res = ker.kin_convolve(f, g)
    assert np.allclose(res.out.values, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())
    assert res.truncation_mass == pytest.approx(ref_trunc, rel=1e-12)
    assert res.truncation_mass > 0.0


_RESIDUAL_LAYOUTS = [
    [("t", 1.0, 1.5, 6), ("x", -2, 2, 10), ("v", -2, 2, 12)],
    [("x", -2, 2, 10), ("t", 1.0, 1.5, 6), ("v", -2, 2, 12)],
    [("v", -2, 2, 12), ("t", 1.0, 1.5, 6), ("x", -2, 2, 10)],
    [("t", 1.0, 1.5, 5), ("x", -2, 2, 6), ("x", -2, 2, 7),
     ("v", -2, 2, 6), ("v", -2, 2, 8)],
]


def test_kolmogorov_residual_equals_periodic_difference_reference():
    # d = 1 in three axis orders (v first puts the velocity on the slab
    # axis), then d = 2
    for layout in _RESIDUAL_LAYOUTS:
        axes = [Axis(*a) for a in layout]
        roles = [a.role for a in axes]
        grids = np.meshgrid(*[a.centers() for a in axes], indexing="ij")
        it = roles.index("t")
        ix = [i for i, r in enumerate(roles) if r == "x"]
        iv = [i for i, r in enumerate(roles) if r == "v"]
        vals = ker.gamma(grids[it], np.stack([grids[i] for i in ix], axis=-1),
                         np.stack([grids[i] for i in iv], axis=-1))

        def diff(axis):
            h = axes[axis].h
            return (np.roll(vals, -1, axis) - np.roll(vals, 1, axis)) / (2 * h)

        def second(axis):
            h = axes[axis].h
            return (np.roll(vals, -1, axis) - 2 * vals + np.roll(vals, 1, axis)) / h ** 2

        res = diff(it)
        for axx, axv in zip(ix, iv):
            res = res + grids[axv] * diff(axx) - second(axv)
        res = res[(slice(1, -1),) * len(axes)]
        g = GridFunction(axes, vals)
        rep = ker.kolmogorov_residual(g)
        assert rep.max_residual == float(np.abs(res).max())
        assert rep.l2_residual == float(np.sqrt((res ** 2).sum() * g.cell_volume))


def _gamma_reference(t, x, v, d=None):
    # the log-space formula as one expression, one temporary per operation
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if d is None:
        d = x.shape[-1]
    t = np.asarray(t, dtype=float)
    tpos = np.where(t > 0.0, t, 1.0)
    loggam = (0.5 * d * math.log(3.0 / (4.0 * math.pi ** 2))
              - 2.0 * d * np.log(tpos)
              - 3.0 * np.sum((x - 0.5 * tpos[..., None] * v) ** 2, axis=-1) / tpos ** 3
              - 0.25 * np.sum(v * v, axis=-1) / tpos)
    out = np.where(t > 0.0, np.exp(loggam), 0.0)
    return out if out.ndim else float(out)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("d", [1, 2])
def test_gamma_bitwise_equals_reference_formula(d):
    rng = np.random.default_rng(3)
    t = rng.uniform(-0.5, 2.0, (6, 1, 1))
    t[0, 0, 0], t[1, 0, 0], t[2, 0, 0] = 0.0, -1.0, np.nan
    t[3, 0, 0] = 1e-3   # deep underflow of exp
    x = rng.normal(size=(5, 1, d))
    v = rng.normal(size=(4, d))
    got, want = ker.gamma(t, x, v), _gamma_reference(t, x, v)
    assert got.shape == want.shape == (6, 5, 4)
    assert np.array_equal(_bits(got), _bits(want))
    # the larger broadcast shape may come from any argument
    got = ker.gamma(0.7, x[:, 0], v[:, None, :])
    assert np.array_equal(_bits(got), _bits(_gamma_reference(0.7, x[:, 0], v[:, None, :], d)))
    # NaN positions propagate where t > 0 and are masked where t <= 0
    xn = np.full((6, 1, d), np.nan)
    got = ker.gamma(t, xn, v)
    assert np.array_equal(_bits(got), _bits(_gamma_reference(t, xn, v)))
    scalar = ker.gamma(0.9, [0.3] * d, [-0.2] * d)
    assert type(scalar) is float
    assert scalar == _gamma_reference(0.9, [0.3] * d, [-0.2] * d)
    assert ker.gamma(-0.5, [0.3] * d, [-0.2] * d) == 0.0


def _adjoint_rel_error_reference(bump, n_quad, out_frac=0.35, band_cells=3):
    # flattened per-point loop over the kept quadrature cells
    lo, hi = bump.support_box()
    blo, bhi = lo - 1e-9, hi + 1e-9
    nt, nx, nv = n_quad
    ax_t = Axis("t", blo[0], bhi[0], nt)
    ax_x = Axis("x", blo[1], bhi[1], nx)
    ax_v = Axis("v", blo[2], bhi[2], nv)
    ds = ax_t.h
    ts, xs, vs = ax_t.centers(), ax_x.centers(), ax_v.centers()
    S, Y, W = np.meshgrid(ts, xs, vs, indexing="ij")
    K = bump.transport_plus_lap((S, Y, W))
    vol = ds * ax_x.h * ax_v.h
    s_f, y_f, w_f, k_f = S.ravel(), Y.ravel(), W.ravel(), K.ravel()
    keep = k_f != 0.0
    s_f, y_f, w_f, k_f = s_f[keep], y_f[keep], w_f[keep], k_f[keep]
    t_sel = ts[(ts > lo[0] + 0.15 * (hi[0] - lo[0]))
               & (ts < lo[0] + (0.15 + out_frac) * (hi[0] - lo[0]))]
    t_sel = t_sel[:: max(1, len(t_sel) // 4)]
    x_sel = np.linspace(lo[1] + 0.3 * (hi[1] - lo[1]), hi[1] - 0.3 * (hi[1] - lo[1]), 3)
    v_sel = np.linspace(lo[2] + 0.3 * (hi[2] - lo[2]), hi[2] - 0.3 * (hi[2] - lo[2]), 3)
    pts = [(t, x, v) for t in t_sel for x in x_sel for v in v_sel]
    delta = (band_cells - 0.5) * ds
    lhs = np.zeros(len(pts))
    phi_vals = np.zeros(len(pts))
    for i, (t, x, v) in enumerate(pts):
        tau = s_f - t
        m = tau >= (band_cells - 0.5) * ds
        j = m.size - np.count_nonzero(m)
        gval = _gamma_reference(tau[j:], (y_f[j:] - x - tau[j:] * v)[:, None],
                                (w_f[j:] - v)[:, None], 1)
        lhs[i] = float((gval * k_f[j:]).sum()) * vol
        lhs[i] += delta * float(bump.transport_plus_lap((t, x, v)))
        phi_vals[i] = float(bump.value((t, x, v)))
    num = np.sqrt(np.mean((lhs + phi_vals) ** 2))
    den = np.sqrt(np.mean(phi_vals ** 2))
    return float(num / den)


@pytest.mark.parametrize("n_quad", [(20, 36, 24), (33, 47, 29)])
@pytest.mark.parametrize("band_cells", [ker._BAND_CELLS])
def test_adjoint_identity_bitwise_equals_flattened_loop(n_quad, band_cells):
    bump = ker.Bump(centers=(0.6, 0.0, 0.0), widths=(0.45, 0.8, 0.8))
    rep = ker.adjoint_identity_check(bump, n_quad=n_quad)
    assert rep.rel_error == _adjoint_rel_error_reference(bump, n_quad,
                                                         band_cells=band_cells)


def _bump_and_interior_points(d, seed, n=40):
    """A phase-space Bump in (t, x_1..x_d, v_1..v_d) and n points well
    inside its support."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, 1 + 2 * d)
    widths = rng.uniform(0.3, 1.2, 1 + 2 * d)
    pts = centers + widths * rng.uniform(-0.8, 0.8, (n, 1 + 2 * d))
    return ker.Bump(tuple(centers), tuple(widths)), list(pts.T)


def _shifted(coords, k, h):
    return [c + h if j == k else c for j, c in enumerate(coords)]


@pytest.mark.parametrize("d", [1, 2])
def test_bump_partials_match_central_differences(d):
    bump, z = _bump_and_interior_points(d, seed=d)
    h = 1e-6
    for k in range(1 + 2 * d):
        fd = (bump.value(_shifted(z, k, h)) - bump.value(_shifted(z, k, -h))) / (2 * h)
        got = bump.partial(z, k)
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-8 * np.abs(fd).max())


@pytest.mark.parametrize("d", [1, 2])
def test_bump_transport_plus_lap_matches_central_differences(d):
    bump, z = _bump_and_interior_points(d, seed=10 + d)
    h = 1e-4
    phi = bump.value(z)

    def first(k):
        return (bump.value(_shifted(z, k, h)) - bump.value(_shifted(z, k, -h))) / (2 * h)

    fd = first(0)
    for k in range(1, d + 1):
        kv = d + k
        fd = fd + z[kv] * first(k)
        fd = fd + (bump.value(_shifted(z, kv, h)) - 2 * phi
                   + bump.value(_shifted(z, kv, -h))) / h ** 2
    got = bump.transport_plus_lap(z)
    assert np.allclose(got, fd, rtol=1e-5, atol=1e-7 * np.abs(fd).max())


def test_bump_vanishes_outside_its_support_box():
    bump, _ = _bump_and_interior_points(1, seed=0)
    lo, hi = bump.support_box()
    outside = [np.array([lo[k] - 1e-3, hi[k] + 1e-3]) for k in range(3)]
    assert not np.any(bump.value(outside))
    assert not np.any(bump.transport_plus_lap(outside))
    assert all(not np.any(bump.partial(outside, k)) for k in range(3))
