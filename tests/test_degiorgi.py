import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kinlab.gridfn import Axis, GridFunction
from kinlab import degiorgi as dg
from kinlab import solvers as sv


def _axes2(n=64, b=1.1):
    return [Axis("x", -b, b, n), Axis("x", -b, b, n)]


@given(st.integers(min_value=0, max_value=50),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_truncation_algebra(seed, kappa):
    vals = np.random.default_rng(seed).normal(size=(8, 8))
    u = GridFunction(_axes2(8), vals)
    plus = dg.truncate(u, kappa, "plus").values
    minus = dg.truncate(u, kappa, "minus").values
    assert np.allclose(plus - minus, vals - kappa)
    assert (plus >= 0).all() and (minus >= 0).all()
    assert (plus * minus == 0).all()


def test_truncation_gradient_support():
    # forward differences of (u - kappa)_+ vanish wherever both endpoints
    # sit below the level
    vals = np.linspace(-1, 1, 16)[:, None] * np.ones((1, 16))
    u = GridFunction(_axes2(16), vals)
    w = dg.truncate(u, 0.0, "plus").values
    g = np.diff(w, axis=0)
    below = (vals[:-1] <= 0) & (vals[1:] <= 0)
    assert np.all(g[below] == 0.0)


def test_truncate_rejects_bad_sign():
    u = GridFunction(_axes2(8))
    with pytest.raises(ValueError):
        dg.truncate(u, 0.0, "both")


def test_iterate_lemma_threshold_flip():
    res = dg.iterate_lemma(0.25 * (1 - 1e-6), 2.0, 2.0)
    assert res.verdict == "converged"
    assert res.threshold == pytest.approx(0.25)
    res2 = dg.iterate_lemma(0.275, 2.0, 2.0)
    assert res2.verdict == "diverged"


def test_iterate_lemma_exponent_recursion():
    res = dg.iterate_lemma(0.1, 2.0, 2.0, k_max=30)
    beta = 2.0
    for k in range(len(res.exponents)):
        closed = sum((k - i) * beta ** i for i in range(k + 1))
        assert res.exponents[k] == pytest.approx(closed)
        assert res.exponents[k] <= res.exponent_bounds[k] + 1e-9


def test_iterate_lemma_validation():
    with pytest.raises(ValueError):
        dg.iterate_lemma(0.1, 0.5, 2.0)
    with pytest.raises(ValueError):
        dg.iterate_lemma(0.1, 2.0, 1.0)


def test_oscillation_alpha_one_for_linear():
    axes = _axes2(176)
    X, _ = np.meshgrid(*[a.centers() for a in axes], indexing="ij")
    prof = dg.oscillation_profile(GridFunction(axes, X), (0.0, 0.0), k_max=6)
    assert 0.95 <= prof.alpha <= 1.05
    assert all(a >= b - 1e-12 for a, b in
               zip(prof.oscillations, prof.oscillations[1:]))


def test_oscillation_constant_sentinel():
    prof = dg.oscillation_profile(GridFunction(_axes2(64), np.ones((64, 64))),
                                  (0.0, 0.0))
    assert prof.alpha == math.inf


def test_caccioppoli_elliptic_within_bound():
    axes = _axes2(96, 1.0)
    coef = sv.make_coefficients({"kind": "checkerboard", "lam": 0.2,
                                 "Lam": 1.0, "tiles": 8})
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=coef,
                   boundary=lambda p: p[..., 0], source=1.0)
    sol = sv.solve_elliptic(P)
    rng = np.random.default_rng(2)
    samples = []
    for _ in range(25):
        x0 = rng.uniform(-0.3, 0.3, 2)
        r = rng.uniform(0.15, 0.3)
        samples.append((x0, r, r + rng.uniform(0.15, 0.3),
                        rng.uniform(-0.5, 0.5)))
    rep = dg.caccioppoli_report(sol, P, samples)
    assert rep.passed and rep.slack == 0.2
    assert rep.bound == pytest.approx(max(2 / 0.2, 16 / 0.2))
    assert rep.skipped == 0


def test_caccioppoli_skips_out_of_domain_samples():
    axes = _axes2(32, 1.0)
    P = sv.Problem(kind="elliptic", axes=axes,
                   coefficients=sv.make_coefficients(
                       {"kind": "identity", "lam": 1, "Lam": 1}),
                   boundary=0.0, source=1.0)
    sol = sv.solve_elliptic(P)
    rep = dg.caccioppoli_report(sol, P, [(np.zeros(2), 0.5, 5.0, 0.0)])
    assert rep.skipped == 1 and not rep.records


def _kinetic_solution(scale=1.0, nx=64, nv=48, nt=64):
    axes = [Axis("x", -0.5, 0.5, nx), Axis("v", -1.0, 1.0, nv)]
    X, V = np.meshgrid(axes[0].centers(), axes[1].centers(), indexing="ij")
    f0 = 0.2 + np.exp(-8 * X ** 2 - 4 * V ** 2)
    P = sv.Problem(kind="kinetic-fp", axes=axes,
                   coefficients=sv.make_coefficients(
                       {"kind": "identity", "lam": 1, "Lam": 1}),
                   initial=GridFunction(axes, f0), source=0.0,
                   t_final=0.25, nt=nt)
    sol = sv.solve_kinetic_fp(P)
    if scale != 1.0:
        sol = sv.Solution(sol.u, {"history": [scale * h for h in
                                              sol.info["history"]],
                                  "times": sol.info["times"]})
    return sol, P


def test_harnack_quotient_constant_is_one():
    axes = [Axis("x", -0.5, 0.5, 64), Axis("v", -1, 1, 48)]
    hist = [np.ones((64, 48)) for _ in range(17)]
    sol = sv.Solution(GridFunction(axes, hist[-1]),
                      {"history": hist, "times": list(np.linspace(0, 1, 17))})
    rep = dg.harnack_quotient(sol)
    assert rep.quotient == 1.0


def test_harnack_scale_invariance_without_source():
    s1, _ = _kinetic_solution()
    s5, _ = _kinetic_solution(scale=5.0)
    q1 = dg.harnack_quotient(s1).quotient
    q5 = dg.harnack_quotient(s5).quotient
    assert q1 == pytest.approx(q5, rel=1e-14)
    assert np.isfinite(q1) and q1 >= 1.0


def test_harnack_rejects_nonpositive():
    axes = [Axis("x", -0.5, 0.5, 16), Axis("v", -1, 1, 16)]
    hist = [np.zeros((16, 16)) for _ in range(9)]
    sol = sv.Solution(GridFunction(axes, hist[-1]),
                      {"history": hist, "times": list(np.linspace(0, 1, 9))})
    with pytest.raises(ValueError):
        dg.harnack_quotient(sol)


def test_expansion_experiment_filters_hypothesis():
    big, _ = _kinetic_solution(scale=3.0)
    small, _ = _kinetic_solution()
    out = dg.expansion_experiment([big, small])
    assert out["admitted"] == 1 and out["excluded"] == 1
    assert out["ell_hat"] > 0


def test_intermediate_value_elliptic_ramp():
    axes = _axes2(128)
    X, _ = np.meshgrid(*[a.centers() for a in axes], indexing="ij")
    iv = dg.intermediate_value_stats(GridFunction(axes, 0.75 + X), C_PW=1.0)
    # ramp crosses both levels symmetrically inside B_1
    assert iv["low"] == pytest.approx(iv["high"], rel=0.05)
    assert iv["mid"] > 0
    assert iv["within_C_IVL"]


@pytest.mark.parametrize("d, ball", [(1, 2.0), (2, math.pi), (3, 4.0 * math.pi / 3.0)])
def test_intermediate_value_constant_uses_the_unit_ball_of_its_dimension(d, ball):
    axes = [Axis("x", -1.1, 1.1, 12) for _ in range(d)]
    u = GridFunction(axes, 0.75 + np.meshgrid(*[a.centers() for a in axes],
                                              indexing="ij")[0])
    assert dg.intermediate_value_stats(u, C_PW=1.5)["C_IVL"] == 2.0 * 1.5 * ball


def test_dg_membership_kinetic_finite_constant():
    sol, P = _kinetic_solution()
    rep = dg.dg_membership(sol, P, [((0.0, 0.0, 0.0), 0.3, 0.6, 0.4)])
    assert rep["p_c"] == pytest.approx(2.5)
    assert np.isfinite(rep["certifying_constant"])
    with pytest.raises(ValueError):
        dg.dg_membership(sol, P, [], p_c=3.5)


def test_energy_checks_reject_the_other_kind():
    sol, P = _kinetic_solution(nx=16, nv=16, nt=8)
    with pytest.raises(ValueError, match="no Caccioppoli check"):
        dg.caccioppoli_report(sol, P, [])
    P_ell = sv.Problem(kind="elliptic", axes=_axes2(8),
                       coefficients=P.coefficients, boundary=0.0, source=0.0)
    with pytest.raises(ValueError, match="no membership check"):
        dg.dg_membership(sol, P_ell, [])


def test_kdg_minus_gradient_constant():
    sol, P = _kinetic_solution()
    out = dg.kdg_minus_gradient_check(
        sol, P, [(0.0, 0.02, 0.1, 0.15, 0.3, 0.3, 0.6, 0.5)])
    assert np.isfinite(out["certifying_constant"])
    assert out["records"][0]["e"] > 0
