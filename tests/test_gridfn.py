import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinlab.gridfn import Axis, GridFunction


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("y", 0, 1, 4)
    with pytest.raises(ValueError):
        Axis("x", 1, 0, 4)
    with pytest.raises(ValueError):
        Axis("x", 0, 1, 0)


def test_centers_and_volume():
    a = Axis("x", 0.0, 1.0, 4)
    assert np.allclose(a.centers(), [0.125, 0.375, 0.625, 0.875])
    g = GridFunction([a, Axis("v", -1, 1, 5)])
    assert g.cell_volume == pytest.approx(0.25 * 0.4)


def test_sample_exact_on_multilinear():
    axes = [Axis("x", 0, 1, 20), Axis("v", 0, 1, 20)]
    X, V = np.meshgrid(*[a.centers() for a in axes], indexing="ij")
    g = GridFunction(axes, 2.0 + 3.0 * X - 1.5 * V)
    pts = np.random.default_rng(1).uniform(0.1, 0.9, (200, 2))
    vals, outside = g.sample(pts)
    assert outside == 0.0
    assert np.allclose(vals, 2.0 + 3.0 * pts[:, 0] - 1.5 * pts[:, 1], atol=1e-12)


def test_sample_outside_is_zero():
    g = GridFunction([Axis("x", 0, 1, 4)], np.ones(4))
    vals, outside = g.sample(np.array([[0.5], [2.0]]))
    assert vals[1] == 0.0 and outside == pytest.approx(0.5)


@given(st.floats(min_value=1.0, max_value=6.0))
@settings(max_examples=25, deadline=None)
def test_lp_norm_monotone_in_p_on_probability_cell(p):
    # on a unit-volume box with |g| <= 1 the L^p norm decreases in p
    axes = [Axis("x", 0, 1, 16)]
    vals = np.random.default_rng(3).uniform(0, 1, 16)
    g = GridFunction(axes, vals)
    assert g.norm_lp(p) <= g.norm_lp(1.0) ** (1.0 / p) + 1e-12


def test_norm_linf():
    g = GridFunction([Axis("x", 0, 1, 8)], np.arange(8.0))
    assert g.norm_lp(np.inf) == 7.0
