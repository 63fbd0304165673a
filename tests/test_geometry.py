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


def test_distance_matches_grid_crosscheck():
    rng = np.random.default_rng(2)
    for _ in range(10):
        z1 = point(*rng.uniform(-1, 1, 3))
        z2 = point(*rng.uniform(-1, 1, 3))
        d = geo.kinetic_distance(z1, z2)
        d_grid = geo.kinetic_distance_grid(z1, z2, n=241)
        assert d <= d_grid + 1e-9
        assert d == pytest.approx(d_grid, abs=2e-2)


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
    S = geo.stack(geo.KineticCylinder(z0, 0.4), 2)
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
            geo.stack(Qp, 2), geo.stack(Qk, 2)]


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
    S = geo.stack(Q, m)
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
    assert not geo.cylinder_contains(geo.stack(P, m), (0.0, [0.0]))
    assert not geo.cylinder_contains(geo.stack(P, m), (m * r * r, [0.0]))
    assert not geo.cylinder_contains(geo.EuclideanBall([0.0], r), [r])
    # pad widens the time depth, the x radius and the v radius
    t = np.array([-r * r, -r * r - 0.1])
    assert geo.cylinder_mask(Q, (t, 0.0, 0.0), pad=(0.05, 0.0, 0.0)).tolist() == [True, False]
    assert geo.cylinder_mask(Q, (-0.125, r ** 3, 0.0), pad=(0.0, 0.01, 0.0))
    assert geo.cylinder_mask(Q, (-0.125, 0.0, r), pad=(0.0, 0.0, 0.01))
    with pytest.raises(TypeError):
        geo.cylinder_mask(object(), (0.0,))
    with pytest.raises(ValueError):
        geo.cylinder_contains(Q, point(0.0, 0.0, 0.0, d=2))
