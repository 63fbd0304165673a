import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinlab import geometry as geo

coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def point(t, x, v, d=1):
    return geo.PhasePoint(t, np.full(d, x), np.full(d, v))


@given(coord, coord, coord, coord, coord, coord, coord, coord, coord)
@settings(max_examples=100, deadline=None)
def test_group_associativity(t1, x1, v1, t2, x2, v2, t3, x3, v3):
    z1, z2, z3 = point(t1, x1, v1), point(t2, x2, v2), point(t3, x3, v3)
    lhs = geo.compose(geo.compose(z1, z2), z3)
    rhs = geo.compose(z1, geo.compose(z2, z3))
    assert abs(lhs.t - rhs.t) < 1e-9
    assert np.allclose(lhs.x, rhs.x, atol=1e-9)
    assert np.allclose(lhs.v, rhs.v, atol=1e-9)


@given(coord, coord, coord)
@settings(max_examples=100, deadline=None)
def test_inverse_and_identity(t, x, v):
    z = point(t, x, v)
    e = geo.compose(z, geo.inverse(z))
    assert abs(e.t) < 1e-9 and np.abs(e.x).max() < 1e-9 and np.abs(e.v).max() < 1e-9
    same = geo.compose(z, geo.origin(1))
    assert abs(same.t - z.t) < 1e-12 and np.allclose(same.x, z.x)


@given(coord, coord, coord, st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_dilation_scales_sup_norm(t, x, v, R):
    z = point(t, x, v)
    assert geo.sup_norm(geo.scale(z, R)) == pytest.approx(R * geo.sup_norm(z), rel=1e-12)


def test_dilation_is_group_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(50):
        z1 = point(*rng.uniform(-2, 2, 3))
        z2 = point(*rng.uniform(-2, 2, 3))
        R = rng.uniform(0.2, 3.0)
        a = geo.scale(geo.compose(z1, z2), R)
        b = geo.compose(geo.scale(z1, R), geo.scale(z2, R))
        assert abs(a.t - b.t) < 1e-10
        assert np.allclose(a.x, b.x, atol=1e-10)
        assert np.allclose(a.v, b.v, atol=1e-10)


def test_distance_optimality_instances():
    d_half = geo.kinetic_distance(point(0, 0, 0.5), point(0, 0, -0.5), tol=1e-9)
    d_one = geo.kinetic_distance(point(1, 0, 0), point(0, 0, 0), tol=1e-9)
    assert d_half == pytest.approx(0.5, abs=1e-6)
    assert d_one == pytest.approx(1.0, abs=1e-6)


def test_distance_symmetric_and_bounded():
    rng = np.random.default_rng(1)
    for _ in range(40):
        z1 = point(*rng.uniform(-2, 2, 3))
        z2 = point(*rng.uniform(-2, 2, 3))
        d12 = geo.kinetic_distance(z1, z2)
        d21 = geo.kinetic_distance(z2, z1)
        assert d12 == pytest.approx(d21, abs=1e-7)
        nrm = geo.sup_norm(geo.compose(geo.inverse(z2), z1))
        assert 0.5 * nrm - 1e-7 <= d12 <= nrm + 1e-7


def kinetic_distance_grid(z1, z2, n=121):
    """Independent cross-check: brute-force grid minimum over the velocity box
    hull(v1, v2) inflated by the sup-norm upper bound in every coordinate."""
    upper = geo.sup_norm(geo.compose(geo.inverse(z2), z1))
    lo = np.minimum(z1.v, z2.v) - upper - 1e-12
    hi = np.maximum(z1.v, z2.v) + upper + 1e-12
    axes = [np.linspace(lo[i], hi[i], n) for i in range(z1.d)]
    W = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, z1.d)
    vals = geo._distance_objective(W, z1.t - z2.t, z1.x - z2.x, z1.v, z2.v)
    return float(vals.min())


def test_distance_matches_grid_crosscheck():
    rng = np.random.default_rng(2)
    for _ in range(10):
        z1 = point(*rng.uniform(-1, 1, 3))
        z2 = point(*rng.uniform(-1, 1, 3))
        d = geo.kinetic_distance(z1, z2)
        d_grid = kinetic_distance_grid(z1, z2, n=241)
        assert d <= d_grid + 1e-9
        assert d == pytest.approx(d_grid, abs=2e-2)
    # d = 2: the certified lower end is below every grid value, and the
    # witness value at most the grid minimum
    for _ in range(6):
        z1, z2 = (geo.PhasePoint(t, x, v) for t, x, v in zip(
            rng.uniform(-1, 1, 2), rng.uniform(-1, 1, (2, 2)), rng.uniform(-1, 1, (2, 2))))
        best, gap = geo.kinetic_distance_batch(
            [z1.t], z1.x[None], z1.v[None], [z2.t], z2.x[None], z2.v[None])
        d_grid = kinetic_distance_grid(z1, z2, n=241)
        assert best[0] - gap[0] <= d_grid
        assert best[0] <= d_grid + 1e-12


def test_distance_scale_covariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z1 = point(*rng.uniform(-1, 1, 3))
        z2 = point(*rng.uniform(-1, 1, 3))
        R = rng.uniform(0.3, 2.5)
        d = geo.kinetic_distance(z1, z2)
        dR = geo.kinetic_distance(geo.scale(z1, R), geo.scale(z2, R))
        assert dR == pytest.approx(R * d, abs=1e-6 * max(1.0, R))


def test_distance_input_validation():
    with pytest.raises(ValueError):
        geo.kinetic_distance(point(0, 0, 0), point(0, 0, 0, d=2))
    with pytest.raises(ValueError):
        geo.kinetic_distance(point(0, 0, 0), point(1, 0, 0), tol=-1.0)
    with pytest.raises(ValueError):
        geo.kinetic_distance(point(0, 0, 0), point(1, 0, 0), tol=float("nan"))


# ---------------------------------------------------------------------------
# Reference: the multi-start Nelder-Mead solve the bisection replaced, kept as
# an upper bound.  It stalls above the minimum at d >= 2, so the bisection's
# value may fall below it but its certified lower end may not.
# ---------------------------------------------------------------------------

def _oracle_objective(w, dt, dx, v1, v2):
    # w has shape (..., d); dt broadcastable to the leading shape of w,
    # dx/v1/v2 broadcastable to w itself
    a = np.abs(dt) ** 0.5
    b = np.linalg.norm(v1 - w, axis=-1)
    c = np.linalg.norm(v2 - w, axis=-1)
    e = 2.0 ** (-1.0 / 3.0) * np.linalg.norm(dx - np.asarray(dt)[..., None] * w,
                                             axis=-1) ** (1.0 / 3.0)
    return np.maximum(np.maximum(a, b), np.maximum(c, e))


def _oracle_nelder_mead(fun, starts, iterations=220):
    """Batched Nelder-Mead over many independent problems of equal dimension.

    starts: (B, d) initial points.  Returns (B,) best values and (B,) value
    spread of the final simplex (an optimality gap indicator).
    """
    B, d = starts.shape
    h = 0.25
    simplex = np.repeat(starts[:, None, :], d + 1, axis=1)
    for i in range(d):
        step = h * np.maximum(1.0, np.abs(starts[:, i]))
        simplex[:, i + 1, i] += step
    fvals = fun(simplex)  # (B, d+1)
    rows = np.arange(B)[:, None]
    for _ in range(iterations):
        order = np.argsort(fvals, axis=1)
        simplex = simplex[rows, order]
        fvals = fvals[rows, order]
        centroid = simplex[:, :-1, :].mean(axis=1)
        worst = simplex[:, -1, :]
        xr = centroid + (centroid - worst)
        fr = fun(xr)
        better_than_best = fr < fvals[:, 0]
        # expansion
        xe = centroid + 2.0 * (centroid - worst)
        fe = fun(xe)
        use_e = better_than_best & (fe < fr)
        # contraction (outside for fr < f_worst, inside otherwise)
        reflect_ok = (fr < fvals[:, -2]) & ~better_than_best
        xc_out = centroid + 0.5 * (centroid - worst)
        fc_out = fun(xc_out)
        xc_in = centroid - 0.5 * (centroid - worst)
        fc_in = fun(xc_in)
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
            fvals = np.where(shrink[:, None], fun(simplex), fvals)
    best_val = fvals.min(axis=1)
    gap = fvals.max(axis=1) - best_val
    return best_val, gap


def _oracle_distance_batch(t1, x1, v1, t2, x2, v2):
    """Vectorized kinetic distance for arrays of point pairs.

    Arrays: t* shape (B,), x*/v* shape (B, d).  Minimizes over the velocity
    shift w the objective

        max(|t1-t2|^{1/2}, |v1-w|, |v2-w|, 2^{-1/3} |(x1-x2) - (t1-t2) w|^{1/3})

    by multi-start batched Nelder-Mead with starts {v1, v2, midpoint, 0}
    plus the transport root (x1-x2)/(t1-t2) when defined.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    v1 = np.atleast_2d(np.asarray(v1, dtype=float))
    v2 = np.atleast_2d(np.asarray(v2, dtype=float))
    dt = t1 - t2  # (B,)
    dx = x1 - x2
    dtc = dt[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        transport_root = np.where(dtc != 0.0, dx / np.where(dtc == 0.0, 1.0, dtc),
                                  0.5 * (v1 + v2))
    starts = [v1, v2, 0.5 * (v1 + v2), np.zeros_like(v1), transport_root]

    def fun(w):
        if w.ndim == 3:  # simplex vertices (B, k, d)
            return _oracle_objective(w, dt[:, None], dx[:, None, :],
                                       v1[:, None, :], v2[:, None, :])
        return _oracle_objective(w, dt, dx, v1, v2)

    best = np.full(t1.shape, np.inf)
    gap = np.zeros_like(best)
    for s in starts:
        val, g = _oracle_nelder_mead(fun, s)
        improved = val < best
        gap = np.where(improved, g, gap)
        best = np.minimum(best, val)
    return best, gap


def _pairs(rng, d, n=48, k=6):
    """n random pairs; in the first 3k rows dt == 0, v1 == v2, then z1 == z2."""
    t1, t2 = rng.uniform(-2, 2, (2, n))
    x1, x2, v1, v2 = rng.uniform(-2, 2, (4, n, d))
    t2[:k] = t1[:k]
    v2[k:2 * k] = v1[k:2 * k]
    s = slice(2 * k, 3 * k)
    t2[s], x2[s], v2[s] = t1[s], x1[s], v1[s]
    return t1, x1, v1, t2, x2, v2


def _bits(a):
    return a.view(np.int64)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_distance_is_certified_against_the_nelder_mead_solve(d):
    for seed in range(3):
        args = _pairs(np.random.default_rng(10 * d + seed), d)
        best, gap = geo.kinetic_distance_batch(*args)
        ref, _ = _oracle_distance_batch(*args)
        assert np.all(gap >= 0.0)
        assert np.all(best <= ref * (1.0 + 2e-14))
        assert np.all(best - gap <= ref)
        # z1 == z2 (and only there) the distance is exactly 0
        assert np.array_equal(best == 0.0, ref == 0.0)
        assert np.all(best[12:18] == 0.0)


# Rows of rng = default_rng(7), B = 3000 uniform draws on [-2, 2] where the
# Nelder-Mead solve stalled above the minimum, with a point w of lower
# objective (1.2648580 and 1.1939219; the stalled values were 1.2649077 and
# 1.1946818)
_STALLED_ROWS = [(2, 2569, [0.1569978289, -0.8623188067]),
                 (3, 1979, [-0.0102089624, -0.1920931458, -0.2622753273])]


@pytest.mark.parametrize("d, row, w", _STALLED_ROWS, ids=["2-2569", "3-1979"])
def test_distance_is_at_most_the_objective_at_a_witness(d, row, w):
    rng = np.random.default_rng(7)
    t1, t2 = rng.uniform(-2, 2, (2, 3000))
    x1, x2, v1, v2 = rng.uniform(-2, 2, (4, 3000, d))
    witness = float(_oracle_objective(np.array(w), t1[row] - t2[row],
                                      x1[row] - x2[row], v1[row], v2[row]))
    best, gap = geo.kinetic_distance_batch(
        *(a[row:row + 1] for a in (t1, x1, v1, t2, x2, v2)))
    assert best[0] <= witness + 1e-12
    assert best[0] - gap[0] <= witness
    z1 = geo.PhasePoint(t1[row], x1[row], v1[row])
    z2 = geo.PhasePoint(t2[row], x2[row], v2[row])
    assert geo.kinetic_distance(z1, z2, tol=1e-12) <= witness + 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_scalar_distance_equals_its_batch_row(d):
    rng = np.random.default_rng(20 + d)
    t1, x1, v1, t2, x2, v2 = args = _pairs(rng, d, n=8, k=1)
    best, _ = geo.kinetic_distance_batch(*args)
    for i in range(8):
        z1 = geo.PhasePoint(t1[i], x1[i], v1[i])
        z2 = geo.PhasePoint(t2[i], x2[i], v2[i])
        got = geo.kinetic_distance(z1, z2, tol=1e-12)
        assert _bits(np.float64(got)) == _bits(best[i])


def test_scalar_distance_raises_below_the_float_resolution():
    with pytest.raises(geo.DistanceConvergenceError) as err:
        geo.kinetic_distance(point(1, 0, 0), point(0, 0, 0), tol=1e-18)
    assert err.value.best == 1.0 and 0.0 < err.value.gap <= 1e-14


def _optimality_pairs(d):
    """The optimality pairs of `lab verify-geometry`: a pure velocity gap
    (exact distance 1/2) and a pure unit time gap (exact distance 1)."""
    e1, zero = np.eye(d)[:1], np.zeros((1, d))
    return (np.array([0.0, 1.0]), np.zeros((2, d)), np.vstack([0.5 * e1, zero]),
            np.zeros(2), np.zeros((2, d)), np.vstack([-0.5 * e1, zero]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_concatenated_batch_equals_the_separate_batches_bit_for_bit(d):
    rng = np.random.default_rng(50 + d)
    sets = [_pairs(rng, d, n=40, k=5),          # dt == 0, v1 == v2, z1 == z2
            [a[:1] for a in _pairs(rng, d)],    # B = 1, sample-like
            _optimality_pairs(d),
            _pairs(rng, d, n=12, k=0),
            [a[5:6] for a in _pairs(rng, d)]]   # B = 1, v1 == v2
    separate = [geo.kinetic_distance_batch(*s) for s in sets]
    best, gap = geo.kinetic_distance_batch(
        *(np.concatenate([s[k] for s in sets]) for k in range(6)))
    assert np.array_equal(_bits(best), _bits(np.concatenate([b for b, _ in separate])))
    assert np.array_equal(_bits(gap), _bits(np.concatenate([g for _, g in separate])))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_optimality_pairs_are_exact(d):
    args = _optimality_pairs(d)
    best, gap = geo.kinetic_distance_batch(*args)
    assert best.tolist() == [0.5, 1.0]
    assert np.all((gap > 0.0) & (gap <= 1e-14))
    for i in range(2):
        z1, z2 = (geo.PhasePoint(args[j][i], args[j + 1][i], args[j + 2][i])
                  for j in (0, 3))
        assert _bits(best[i]) == _bits(np.float64(
            geo.kinetic_distance(z1, z2, tol=1e-6)))


@pytest.mark.parametrize("bad", ["x1", "v1", "x2", "v2"])
def test_distance_batch_rejects_pairs_not_shaped_b_by_d(bad):
    t1, x1, v1, t2, x2, v2 = _pairs(np.random.default_rng(40), 1, n=5, k=1)
    args = dict(t1=t1, x1=x1, v1=v1, t2=t2, x2=x2, v2=v2)
    # (B,) is one d = B point, not B points of d = 1
    args[bad] = args[bad][:, 0]
    with pytest.raises(ValueError, match=bad):
        geo.kinetic_distance_batch(**args)
    args[bad] = np.zeros((4, 1))
    with pytest.raises(ValueError, match=bad):
        geo.kinetic_distance_batch(**args)
    with pytest.raises(ValueError, match="t2"):
        geo.kinetic_distance_batch(t1, x1, v1, t2[:4], x2, v2)


def test_cylinder_membership_and_anchoring():
    z0 = point(0.0, 0.0, 1.0)
    Q = geo.KineticCylinder(z0, 0.5)
    # top center belongs, slanted in x by (t - t0) v0
    assert geo.cylinder_contains(Q, z0)
    assert geo.cylinder_contains(Q, point(-0.2, -0.2, 1.0))
    assert not geo.cylinder_contains(Q, point(0.01, 0.0, 1.0))
    assert not geo.cylinder_contains(Q, point(-0.2, 0.1, 1.0))
    assert not geo.cylinder_contains(Q, point(-0.3, -0.3, 1.6))


def test_membership_invariant_under_dilation():
    rng = np.random.default_rng(4)
    for _ in range(100):
        z0 = point(*rng.uniform(-1, 1, 3))
        r = rng.uniform(0.2, 1.5)
        Q = geo.KineticCylinder(z0, r)
        dt = -rng.uniform(0, r * r) * 0.98
        z = geo.PhasePoint(z0.t + dt, z0.x + dt * z0.v + rng.uniform(-1, 1, 1) * 0.9 * r ** 3,
                           z0.v + rng.uniform(-1, 1, 1) * 0.9 * r)
        assert geo.cylinder_contains(Q, z)
        R = rng.uniform(0.3, 2.0)
        QR = geo.KineticCylinder(geo.scale(z0, R), r * R)
        assert geo.cylinder_contains(QR, geo.scale(z, R))


def test_stack_geometry():
    z0 = point(0.0, 0.0, 0.5)
    S = geo.StackedCylinder(geo.KineticCylinder(z0, 0.4), 2)
    # strictly above the base in time, widened in x
    assert not geo.cylinder_contains(S, z0)
    assert geo.cylinder_contains(S, point(0.1, 0.05, 0.5))
    assert not geo.cylinder_contains(S, point(2 * 0.4 ** 2 + 0.01, 0.0, 0.5))


def test_dilate_5q_contains_base():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z0 = point(*rng.uniform(-1, 1, 3))
        r = rng.uniform(0.1, 1.0)
        Q = geo.KineticCylinder(z0, r)
        Q5 = geo.dilate_5Q(Q)
        dt = -rng.uniform(0, r * r) * 0.99
        z = geo.PhasePoint(z0.t + dt, z0.x + dt * z0.v + rng.uniform(-1, 1, 1) * 0.99 * r ** 3,
                           z0.v + rng.uniform(-1, 1, 1) * 0.99 * r)
        assert geo.cylinder_contains(Q, z)
        assert geo.cylinder_contains(Q5, z)


def _dyadic_regions(d):
    """Every region kind at d, anchored on cell centers of _dyadic_axes."""
    z0 = geo.PhasePoint(0.0, np.full(d, 0.25), np.full(d, 0.5))
    Qk = geo.KineticCylinder(z0, 0.5)
    Qp = geo.ParabolicCylinder(0.0, np.full(d, 0.25), 0.5)
    return [geo.EuclideanBall(np.full(d, 0.25), 0.5), Qp, Qk,
            geo.StackedCylinder(Qp, 2), geo.StackedCylinder(Qk, 2)]


def _dyadic_axes(n_axes, n):
    # cell centers on multiples of 1/8 and radius 1/2, so whole rows of cells
    # sit exactly on the t0 - r^2, t0 and t0 + 2 r^2 faces and on the x, v
    # spheres; the time axis (first of several) spans [-5/8, 5/8]
    c = (np.arange(n) - n // 2) * 0.125
    t = (np.arange(11) - 5) * 0.125
    return [t if k == 0 and n_axes > 1 else c + 0.25 for k in range(n_axes)]


@pytest.mark.parametrize("d", [1, 2])
def test_cylinder_mask_equals_scalar_membership_on_every_cell(d):
    n = 11 if d == 1 else 7
    for Q in _dyadic_regions(d):
        if isinstance(Q, geo.EuclideanBall):
            axes = _dyadic_axes(d, n)
        else:
            base = Q.base if isinstance(Q, geo.StackedCylinder) else Q
            kin = isinstance(base, geo.KineticCylinder)
            axes = _dyadic_axes(1 + (2 * d if kin else d), n)
        mask = np.broadcast_to(geo.cylinder_mask(Q, np.ix_(*axes)),
                               tuple(len(a) for a in axes))
        assert mask.any() and not mask.all()
        for idx in np.ndindex(mask.shape):
            c = [a[i] for a, i in zip(axes, idx)]
            if isinstance(Q, geo.EuclideanBall):
                z = np.array(c)
            elif len(c) == 1 + d:
                z = (c[0], np.array(c[1:]))
            else:
                z = geo.PhasePoint(c[0], c[1:1 + d], c[1 + d:])
            assert mask[idx] == geo.cylinder_contains(Q, z), (type(Q), idx)


def test_cylinder_boundary_semantics():
    z0 = point(0.0, 0.0, 0.0)
    r, m = 0.5, 2
    Q = geo.KineticCylinder(z0, r)
    S = geo.StackedCylinder(Q, m)
    # half-open in time: the top face t0 belongs, the bottom t0 - r^2 does not
    assert geo.cylinder_contains(Q, point(0.0, 0.0, 0.0))
    assert not geo.cylinder_contains(Q, point(-r * r, 0.0, 0.0))
    # open in x and v
    assert not geo.cylinder_contains(Q, point(-0.125, r ** 3, 0.0))
    assert not geo.cylinder_contains(Q, point(-0.125, 0.0, r))
    assert geo.cylinder_contains(Q, point(-0.125, 0.0, r - 2 ** -20))
    # stacks are open at both time ends and in x, v
    assert not geo.cylinder_contains(S, point(0.0, 0.0, 0.0))
    assert not geo.cylinder_contains(S, point(m * r * r, 0.0, 0.0))
    assert geo.cylinder_contains(S, point(m * r * r - 2 ** -20, 0.0, 0.0))
    assert not geo.cylinder_contains(S, point(0.25, (m + 2) * r ** 3, 0.0))
    P = geo.ParabolicCylinder(0.0, [0.0], r)
    assert geo.cylinder_contains(P, (0.0, [0.0]))
    assert not geo.cylinder_contains(P, (-r * r, [0.0]))
    assert not geo.cylinder_contains(P, (-0.125, [r]))
    assert not geo.cylinder_contains(geo.StackedCylinder(P, m), (0.0, [0.0]))
    assert not geo.cylinder_contains(geo.StackedCylinder(P, m), (m * r * r, [0.0]))
    assert not geo.cylinder_contains(geo.EuclideanBall([0.0], r), [r])
    with pytest.raises(TypeError):
        geo.cylinder_mask(object(), (0.0,))
    with pytest.raises(ValueError):
        geo.cylinder_contains(Q, point(0.0, 0.0, 0.0, d=2))
