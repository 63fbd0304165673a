import itertools
import json
import math

import numpy as np
import pytest
from scipy import ndimage
from hypothesis import given, settings, strategies as st

from kinlab.gridfn import Axis, GridFunction
from kinlab import covering as cov
from kinlab import geometry as geo


def _random_family(kind, rng, n):
    """n random members: d = 1 kinetic or parabolic cylinders, or planar
    balls."""
    members = []
    for _ in range(n):
        if kind == "kinetic":
            z0 = geo.PhasePoint(rng.uniform(-0.5, 0), rng.uniform(-1, 1, 1),
                                rng.uniform(-1, 1, 1))
            members.append(geo.KineticCylinder(z0, rng.uniform(0.1, 0.6)))
        elif kind == "parabolic":
            t0, x0 = rng.uniform(-0.5, 0), rng.uniform(-1, 1, 1)
            members.append(geo.ParabolicCylinder(t0, x0, rng.uniform(0.1, 0.6)))
        else:
            members.append(geo.EuclideanBall(rng.uniform(-1, 1, 2),
                                             rng.uniform(0.1, 0.6)))
    return cov.CylinderFamily(members)


def _family_raster(kind, x_half, v_half, cells_per_unit):
    """A raster over the box the members of _random_family(kind) live in."""
    if kind == "kinetic":
        bounds, roles = [(-1.0, 0.2), (-x_half, x_half), (-v_half, v_half)], "txv"
    elif kind == "parabolic":
        bounds, roles = [(-1.0, 0.2), (-x_half, x_half)], "tx"
    else:
        bounds, roles = [(-x_half, x_half)] * 2, "xx"
    return cov.RasterMask.for_box(bounds, roles, cells_per_unit=cells_per_unit)


FAMILY_KINDS = ("kinetic", "parabolic", "ball")


def test_family_must_be_homogeneous():
    b = geo.EuclideanBall(np.zeros(1), 1.0)
    p = geo.ParabolicCylinder(0.0, np.zeros(1), 1.0)
    with pytest.raises(ValueError):
        cov.CylinderFamily([b, p])


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_vitali_selected_are_disjoint(kind):
    rng = np.random.default_rng(0)
    fam = _random_family(kind, rng, 40)
    sel = cov.vitali_select(fam)
    for i, a in enumerate(sel):
        for b in sel[:i]:
            assert not cov.regions_intersect(fam.members[a], fam.members[b])


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_vitali_5q_covers_family(kind):
    rng = np.random.default_rng(1)
    fam = _random_family(kind, rng, 30)
    sel = cov.vitali_select(fam)
    enlarged = [geo.dilate_5Q(fam.members[i]) for i in sel]
    mask = _family_raster(kind, 1.5, 1.7, 24)
    union = np.zeros(mask.mask.shape, dtype=bool)
    for q in fam.members:
        union |= mask.rasterize(q)
    cover = np.zeros_like(union)
    for q in enlarged:
        cover |= mask.rasterize(q)
    uncovered = union & ~cover
    assert uncovered.sum() == 0


def test_vitali_empty_family():
    assert cov.vitali_select(cov.CylinderFamily([])) == []


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_regions_intersect_symmetric_and_exact(kind):
    rng = np.random.default_rng(2)
    mask = _family_raster(kind, 2.0, 2.0, 32)
    for _ in range(25):
        fam = _random_family(kind, rng, 2)
        q1, q2 = fam.members
        pred = cov.regions_intersect(q1, q2)
        assert pred == cov.regions_intersect(q2, q1)
        overlap = (mask.rasterize(q1) & mask.rasterize(q2)).any()
        # raster overlap implies true overlap; the converse can fail only
        # within one cell of the boundary
        if overlap:
            assert pred


def test_maximal_indicator_average_is_one_at_anchor():
    # g = indicator of one lattice cylinder: the maximal function at the
    # anchor equals the average over exactly that cylinder, which is
    # |Q|/|Q| = 1 up to the raster count
    axes = [Axis("t", -1, 0, 32), Axis("x", -1, 1, 32), Axis("v", -1, 1, 32)]
    g = GridFunction(axes, np.ones((32, 32, 32)))
    Mg = cov.maximal_function(g)
    assert Mg.values.max() <= 1.0 + 1e-12
    assert Mg.values.max() == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=20, deadline=None)
def test_maximal_weak_1_1(seed):
    rng = np.random.default_rng(seed)
    axes = [Axis("t", -1, 0, 24), Axis("x", -1, 1, 24), Axis("v", -1, 1, 24)]
    g = GridFunction(axes, rng.random((24, 24, 24)) ** 4)
    Mg = cov.maximal_function(g)
    kappas = np.quantile(Mg.values, [0.5, 0.9, 0.99])
    c = cov.maximal_inequality_constant(g, Mg, kappas)
    assert c <= 2 * 5 ** 3


def test_interval_stacking_exact_oracle():
    # single interval (a-h, a], stack (a, a+mh): ratio m h / h = m >= m/(m+1)
    fam = cov.IntervalFamily([(0.0, 1.0)])
    rep = cov.interval_stack_ratio(fam, 2)
    assert rep.measure_stacked == pytest.approx(2.0)
    assert rep.measure_base == pytest.approx(1.0)
    assert rep.passed


def test_interval_stacking_worst_case_touches_bound():
    # nested intervals with matched tops force the stacked union toward the
    # m/(m+1) bound: (a - h, a] with h in {1, eps} at a = 0 vs a = m eps
    m = 1
    eps = 1e-4
    fam = cov.IntervalFamily([(0.0, 1.0), (m * eps + 0.0, eps)])
    rep = cov.interval_stack_ratio(fam, m)
    assert rep.ratio >= rep.bound


@given(st.integers(min_value=0, max_value=200), st.sampled_from([1, 2, 4]))
@settings(max_examples=60, deadline=None)
def test_interval_stacking_random_families(seed, m):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 10))
    fam = cov.IntervalFamily(list(zip(rng.uniform(-3, 3, k),
                                      rng.uniform(0.01, 1.0, k))))
    rep = cov.interval_stack_ratio(fam, m)
    assert rep.ratio >= rep.bound


def test_covering_constants():
    assert cov.crawling_constant(1) == pytest.approx(5 ** -2 * 2 ** -2)
    assert cov.crawling_constant(2) == pytest.approx(5 ** -3 * 2 ** -2)
    assert cov.leak_constant(1, "parabolic") == pytest.approx(2.0)
    assert cov.leak_constant(1, "kinetic") == pytest.approx(12.0)


def test_stacked_union_ratio_single_cylinder():
    z0 = geo.PhasePoint(-0.1, np.zeros(1), np.zeros(1))
    fam = cov.CylinderFamily([geo.KineticCylinder(z0, 0.4)])
    rep = cov.stacked_union_ratio(fam, 1, cells_per_unit=48)
    assert rep.passed
    assert rep.ratio >= rep.bound - rep.slack
    fam = cov.CylinderFamily([geo.ParabolicCylinder(-0.1, np.zeros(1), 0.4)])
    for m in (1, 2, 4):
        rep = cov.stacked_union_ratio(fam, m, cells_per_unit=48)
        assert rep.passed
        assert rep.ratio >= rep.bound - rep.slack


def test_ink_spots_parabolic_instance():
    rng = np.random.default_rng(3)
    E, F = cov.synthesize_ink_spots_instance("parabolic", 1, 1.0, rng,
                                             cells_per_unit=64)
    rep = cov.ink_spots_check(E, F, "parabolic", 1, 1.0)
    assert rep.hypothesis_ok
    assert rep.passed, (rep.measure_E, rep.rhs)


@pytest.mark.parametrize("geometry, cells, stride",
                         [("kinetic", 48, 2), ("parabolic", 96, 1)])
def test_ink_spots_instance_passes_at_the_lab_lattices(geometry, cells, stride):
    # synthesis and check both take the geometry's anchor stride
    rng = np.random.default_rng(5)
    E, F = cov.synthesize_ink_spots_instance(geometry, 1, 1.0, rng,
                                             cells_per_unit=cells)
    rep = cov.ink_spots_check(E, F, geometry, 1, 1.0)
    assert rep.family["anchor_stride"] == stride
    assert rep.hypothesis_ok and rep.passed and rep.family["flagged"] > 0


def test_ink_spots_rejects_e_not_in_f():
    axes = [Axis("t", -1, 0.5, 32), Axis("x", -2, 2, 32)]
    E = cov.RasterMask(axes, np.ones((32, 32), bool))
    F = cov.RasterMask(axes, np.zeros((32, 32), bool))
    with pytest.raises(ValueError):
        cov.ink_spots_check(E, F, "parabolic", 1, 1.0)


def _full_slack(mask_obj):
    m = mask_obj.mask
    layer = ndimage.binary_dilation(m) & ~ndimage.binary_erosion(m)
    return float(layer.sum()) * mask_obj.cell_volume


@pytest.mark.parametrize("shape", [(9, 11), (7, 10, 6), (1, 9), (2, 11), (7, 1, 6),
                                   (7, 10, 2), (1, 2, 6)])
def test_boundary_slack_equals_full_lattice(shape):
    rng = np.random.default_rng(sum(shape))
    axes = [Axis(r, -1, 1, n) for r, n in zip("txv", shape)]
    masks = [rng.random(shape) < p for p in (0.02, 0.2, 0.6, 0.97)]
    masks.append(np.zeros(shape, bool))
    # a random blob in the middle (empty along an axis of under 5 cells),
    # and masks touching every array face
    blob = np.zeros(shape, bool)
    middle = tuple(slice(2, n - 2) for n in shape)
    blob[middle] = rng.random(blob[middle].shape) < 0.5
    masks.append(blob)
    for ax, n in enumerate(shape):
        for i in (0, n - 1):
            face = blob.copy()
            face[(slice(None),) * ax + (i,)] = True
            masks.append(face)
    masks.append(np.ones(shape, bool))
    one = np.zeros(shape, bool)
    one[tuple(n // 2 for n in shape)] = True
    masks.append(one)
    corner = np.zeros(shape, bool)
    corner[(0,) * len(shape)] = True
    masks.append(corner)
    for m in masks:
        mo = cov.RasterMask(axes, m)
        assert mo.boundary_slack() == _full_slack(mo)
    assert cov.RasterMask(axes).boundary_slack() == 0.0


def _brute_cyl_sums(vals, axes, r, geometry, box):
    """Loop over each anchor's integer window offsets, zero outside the lattice."""
    dt, dx = axes[0].h, axes[1].h
    kmax = math.ceil(r * r / dt) - 1
    if geometry == "kinetic":
        dv = axes[2].h
        vc = axes[2].centers()
        mv = math.ceil(r / dv) - 1
    else:
        lo, hi = cov._window_offsets(0.0, r, dx)
    anchors = np.indices(vals.shape)[(slice(None),) + box].reshape(vals.ndim, -1).T
    sums, counts = [], []
    for z in anchors:
        total, cnt = 0.0, 0
        for k in range(kmax + 1):
            if geometry == "kinetic":
                shift = -k * dt * vc[z[2]]
                lo = math.floor(shift / dx - r ** 3 / dx) + 1
                hi = math.ceil(shift / dx + r ** 3 / dx) - 1
                vw = range(z[2] - mv, z[2] + mv + 1)
            else:
                vw = [None]
            for i in range(z[1] + lo, z[1] + hi + 1):
                for j in vw:
                    cnt += 1
                    cell = (z[0] - k, i) if j is None else (z[0] - k, i, j)
                    if all(0 <= c < n for c, n in zip(cell, vals.shape)):
                        total += vals[cell]
        sums.append(total)
        counts.append(cnt)
    out_shape = vals[box].shape
    return np.reshape(sums, out_shape), np.reshape(counts, out_shape).astype(float)


_SUM_CASES = [
    # kinetic: fast v so the sheared x-windows leave the lattice
    ("kinetic", [Axis("t", -1, 0.3, 8), Axis("x", -1, 1, 10),
                 Axis("v", -3, 3, 12)], 0.6,
     [(slice(0, 3), slice(0, 10), slice(0, 12)),      # rows below kmax, all v
      (slice(2, 8), slice(7, 10), slice(0, 2)),       # x right edge, low v edge
      (slice(5, 6), slice(0, 2), slice(10, 12)),      # x left edge, high v edge
      (slice(1, 7), slice(3, 6), slice(4, 8))]),
    ("parabolic", [Axis("t", -1, 0.3, 9), Axis("x", -1, 1, 12)], 0.55,
     [(slice(0, 2), slice(0, 12)), (slice(1, 9), slice(0, 3)),
      (slice(4, 9), slice(9, 12)), (slice(3, 5), slice(4, 7))]),
]


@pytest.mark.parametrize("geometry, axes, r, boxes", _SUM_CASES)
def test_boxed_window_sums_match_brute_force(geometry, axes, r, boxes):
    shape = tuple(a.n for a in axes)
    assert math.ceil(r * r / axes[0].h) - 1 >= 2  # boxes start below kmax
    rng = np.random.default_rng(7)
    binary = (rng.random(shape) < 0.4).astype(float)
    real = rng.random(shape)
    full_box = tuple(slice(None) for _ in shape)
    full = cov._cyl_sums(binary, axes, r, geometry)
    for box in boxes + [full_box]:
        want, want_cnt = _brute_cyl_sums(binary, axes, r, geometry, box)
        got, cnt = cov._cyl_sums(binary, axes, r, geometry, box)
        assert np.array_equal(got, want) and np.array_equal(cnt, want_cnt)
        assert np.array_equal(got, full[0][box]) and np.array_equal(cnt, full[1][box])
        want, _ = _brute_cyl_sums(real, axes, r, geometry, box)
        got, _ = cov._cyl_sums(real, axes, r, geometry, box)
        assert np.allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("geometry, axes, r, boxes", _SUM_CASES)
def test_strided_window_sums_are_the_full_sums_at_the_anchors(geometry, axes, r,
                                                              boxes, stride):
    shape = tuple(a.n for a in axes)
    rng = np.random.default_rng(11)
    mask = rng.random(shape) < 0.4
    real = rng.random(shape)
    full_box = tuple(slice(None) for _ in shape)
    full_mask = cov._cyl_sums(mask.astype(float), axes, r, geometry)
    full_real = cov._cyl_sums(real, axes, r, geometry)
    for box in boxes + [full_box]:
        anchors = tuple(slice(s.start, s.stop, stride) for s in box)
        # a 0/1 mask is summed as integers, to the full-lattice float sums
        got, cnt = cov._cyl_sums(mask, axes, r, geometry, box, stride)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, full_mask[0][anchors])
        assert np.array_equal(cnt, full_mask[1][anchors])
        # float data: the same prefix-sum origin as the unstrided box
        got, cnt = cov._cyl_sums(real, axes, r, geometry, box, stride)
        want, want_cnt = cov._cyl_sums(real, axes, r, geometry, box)
        assert np.array_equal(got, want[(slice(None, None, stride),) * len(shape)])
        assert np.array_equal(cnt, want_cnt[(slice(None, None, stride),) * len(shape)])
        if box == full_box:
            assert np.array_equal(got, full_real[0][anchors])


_VIOLATION_CASES = [("kinetic", 32, 2), ("parabolic", 64, 1)]


def _admissible_on_lattice(E, geometry, r, stride):
    """Admissible anchors on the stride sublattice, as a full-lattice mask:
    Q_r inside Q1 evaluated on the broadcast grids, and every index of the
    anchor a multiple of stride."""
    grids = E.grids()
    t = grids[0]
    ok = (t <= 0.0) & (t - r * r > -1.0)
    if geometry == "parabolic":
        ok = ok & (np.abs(grids[1]) + r < 1.0)
    else:
        x, v = grids[1], grids[2]
        ok = ok & (np.abs(x) + r * r * np.abs(v) + r ** 3 < 1.0)
        ok = ok & (np.abs(v) + r < 1.0)
    on = np.zeros(E.mask.shape, dtype=bool)
    on[np.ix_(*[np.arange(n) % stride == 0 for n in E.mask.shape])] = True
    return ok & on


def _hot_on_lattice(E, geometry, r, stride):
    """The half-filled admissible anchors, from full-lattice float sums."""
    sums, counts = cov._cyl_sums(E.mask.astype(float), E.axes, r, geometry)
    return _admissible_on_lattice(E, geometry, r, stride) & (sums > 0.5 * counts)


def _assert_hot_admissible(E, geometry, stride, violations):
    assert json.loads(json.dumps(violations)) == violations
    for v in violations:
        r, idx = v["radius"], tuple(v["anchor_index"])
        assert _hot_on_lattice(E, geometry, r, stride)[idx]


@pytest.mark.parametrize("geometry, cells, stride",
                         _VIOLATION_CASES + [("kinetic", 32, 1), ("parabolic", 64, 2)])
def test_hot_anchors_match_the_full_lattice_formula(geometry, cells, stride):
    rng = np.random.default_rng(4)
    E, _ = cov.synthesize_ink_spots_instance(geometry, 2, 1.0, rng,
                                             cells_per_unit=cells)
    radii = cov._dyadic_radii(E, geometry)
    assert len(radii) >= 2
    found = 0
    for r in radii:
        ref = _admissible_on_lattice(E, geometry, r, stride)
        box, adm = cov._anchor_admissible(E, geometry, r, stride)
        if box is None:
            assert not ref.any()
            continue
        # the smallest box holding every admissible anchor, and the mask on
        # its sublattice
        assert box == cov._bounding_box(ref)
        assert np.array_equal(adm, ref[tuple(slice(s.start, s.stop, stride) for s in box)])
        hot = cov._hot_anchors(E, geometry, r, stride)
        np.testing.assert_array_equal(hot, np.argwhere(_hot_on_lattice(E, geometry, r, stride)))
        found += len(hot)
    assert found > 0


@pytest.mark.parametrize("geometry, cells, stride", _VIOLATION_CASES)
def test_ink_spots_reports_stack_outside_f(geometry, cells, stride):
    rng = np.random.default_rng(1)
    E, _ = cov.synthesize_ink_spots_instance(geometry, 1, 1.0, rng,
                                             cells_per_unit=cells)
    rep = cov.ink_spots_check(E, E, geometry, 1, 1.0)
    assert rep.family["anchor_stride"] == stride
    assert not rep.hypothesis_ok and not rep.passed
    assert rep.violations
    assert all(v["reason"] == "stacked cylinder not inside F" for v in rep.violations)
    _assert_hot_admissible(E, geometry, stride, rep.violations)


@pytest.mark.parametrize("geometry, cells, stride", _VIOLATION_CASES)
def test_ink_spots_reports_large_half_filled_cylinder(geometry, cells, stride):
    rng = np.random.default_rng(1)
    E, F = cov.synthesize_ink_spots_instance(geometry, 1, 1.0, rng,
                                             cells_per_unit=cells)
    rep = cov.ink_spots_check(E, F, geometry, 1, 0.5)
    assert rep.family["anchor_stride"] == stride
    assert not rep.hypothesis_ok and not rep.passed
    large = [v for v in rep.violations
             if v["reason"] == "half-filled cylinder with r >= r0"]
    assert large and all(v["radius"] >= 0.5 for v in large)
    _assert_hot_admissible(E, geometry, stride, rep.violations)


_UNION_AXES = {
    "parabolic": [Axis("t", -1, 1, 40), Axis("x", -2, 2, 56)],
    "kinetic": [Axis("t", -1, 1, 48), Axis("x", -2, 2, 128), Axis("v", -1, 1, 20)],
}


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("geometry", ["parabolic", "kinetic"])
def test_stack_union_is_the_union_of_cylinder_masks(geometry, m):
    axes = _UNION_AXES[geometry]
    shape = tuple(a.n for a in axes)
    grids = cov.RasterMask(axes).grids()
    centers = [a.centers() for a in axes]
    # every corner of the lattice, so the edge rows of each axis, and a few
    # interior anchors
    corners = np.array(list(itertools.product(*[(0, n - 1) for n in shape])))
    inner = np.random.default_rng(m).integers(0, shape, (12, len(shape)))
    hot = np.vstack([corners, inner])
    for r in (0.5, 0.25):
        singles = []
        for idx in hot:
            base = geo._cylinder_at([c[i] for c, i in zip(centers, idx)], r, geometry)
            want = geo.cylinder_mask(geo.StackedCylinder(base, m), grids)
            single = cov._stack_union(axes, geometry, m, r, idx[None])
            np.testing.assert_array_equal(single, want)
            singles.append(single)
        assert sum(s.any() for s in singles) >= len(hot) // 2
        np.testing.assert_array_equal(cov._stack_union(axes, geometry, m, r, hot),
                                      np.logical_or.reduce(singles))


def test_ink_spots_check_reads_every_flagged_stack():
    rng = np.random.default_rng(3)
    E, F = cov.synthesize_ink_spots_instance("parabolic", 1, 1.0, rng,
                                             cells_per_unit=64)
    # the flagged anchors in check order, and per cell how many of their
    # stacks cover it and (where one does) which
    grids, centers = E.grids(), [a.centers() for a in E.axes]
    flagged = []
    cover = np.zeros(E.mask.shape, int)
    owner = np.zeros(E.mask.shape, int)
    for r in cov._dyadic_radii(E, "parabolic"):
        if r >= 1.0:
            continue
        for idx in np.argwhere(_hot_on_lattice(E, "parabolic", r, 1)):
            base = geo._cylinder_at([c[i] for c, i in zip(centers, idx)], r, "parabolic")
            cells = geo.cylinder_mask(geo.StackedCylinder(base, 1), grids)
            cover += cells
            owner += len(flagged) * cells
            flagged.append((r, idx.tolist()))
    assert len(flagged) > 200
    # an anchor that a check of 200 stacks drawn by default_rng(0) skips,
    # with an F cell outside E that only its stack covers
    sample = set(np.random.default_rng(0).choice(len(flagged), 200, replace=False).tolist())
    alone = owner[(cover == 1) & ~E.mask]
    k = next(int(a) for a in alone if int(a) not in sample)
    r, idx = flagged[k]
    cell = np.argwhere((owner == k) & (cover == 1) & ~E.mask)[0]
    F.mask[tuple(cell)] = False
    rep = cov.ink_spots_check(E, F, "parabolic", 1, 1.0)
    assert not rep.hypothesis_ok and not rep.passed
    assert rep.violations == [{"radius": r, "anchor_index": idx,
                               "reason": "stacked cylinder not inside F",
                               "missing_cells": 1}]
    assert rep.family["stack_checked"] == rep.family["flagged"] == len(flagged)
