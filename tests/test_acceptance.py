"""End-to-end acceptance checks, one printed pass/fail line per criterion."""

import numpy as np
import pytest

from kinlab.gridfn import Axis, GridFunction
from kinlab import geometry as geo
from kinlab import covering as cov
from kinlab import kernel as ker
from kinlab import solvers as sv
from kinlab import degiorgi as dg


def _report(n, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {n}: {desc} {detail}".rstrip())
    assert ok, f"criterion {n}: {desc} {detail}"


def _leggauss_nodes(n, L):
    x, w = np.polynomial.legendre.leggauss(n)
    return L * x, L * w


def test_criterion_01_kernel_normalization():
    # d = 1: Gauss-Legendre on [-8, 8]^2 plus the analytic tail bound
    x, wx = _leggauss_nodes(200, 8.0)
    X, V = np.meshgrid(x, x, indexing="ij")
    W = np.outer(wx, wx)
    m1 = float((ker.gamma1(X[..., None], V[..., None]) * W).sum())
    err1 = abs(m1 + ker.gamma_tail_mass(8.0, 1) - 1.0)

    # d = 2: tensor quadrature on [-8, 8]^4
    y, wy = _leggauss_nodes(40, 8.0)
    X1, V1, X2, V2 = np.meshgrid(y, y, y, y, indexing="ij")
    pts_x = np.stack([X1, X2], axis=-1)
    pts_v = np.stack([V1, V2], axis=-1)
    W4 = wy[:, None, None, None] * wy[None, :, None, None] * \
        wy[None, None, :, None] * wy[None, None, None, :]
    m2 = float((ker.gamma1(pts_x, pts_v) * W4).sum())
    err2 = abs(m2 + ker.gamma_tail_mass(8.0, 2) - 1.0)

    _report(1, "kernel unit mass", err1 < 1e-8 and err2 < 1e-4,
            f"(d=1 err {err1:.2e}, d=2 err {err2:.2e})")


def test_criterion_02_kolmogorov_residual_order():
    hs = [0.04, 0.02, 0.01]
    reps = []
    for h in hs:
        axes = [Axis("t", 1.0, 1.5, round(0.5 / h)),
                Axis("x", -3.0, 3.0, round(6.0 / h)),
                Axis("v", -3.0, 3.0, round(6.0 / h))]
        ts, xs, vs = (a.centers() for a in axes)
        # Gamma one t-slab at a time, consumed as made, as `lab verify-kernel` does
        reps.append(ker.kolmogorov_residual(
            axes, (ker.gamma(tk, xs[:, None, None], vs[None, :, None]) for tk in ts)))
    order = ker.residual_convergence_order(reps, hs)
    _report(2, "residual convergence order >= 1.8", order >= 1.8,
            f"(order {order:.3f})")


def test_criterion_03_adjoint_identity():
    bump = ker.Bump((0.6, 0.0, 0.0), (0.45, 0.8, 0.8))
    coarse = ker.adjoint_identity_check(bump, n_quad=(40, 72, 48))
    fine = ker.adjoint_identity_check(bump, n_quad=(80, 144, 96))
    ok = fine.rel_error < coarse.rel_error and fine.rel_error < 0.02
    _report(3, "adjoint identity refines below 2%", ok,
            f"(coarse {coarse.rel_error:.4f}, fine {fine.rel_error:.4f})")


def test_criterion_04_distance_bounds_and_optimality():
    tol = 1e-6
    rng = np.random.default_rng(11)
    worst_lo = worst_hi = 0.0
    for d, n in ((1, 4000), (2, 3000), (3, 3000)):
        t1 = rng.uniform(-1, 1, n)
        t2 = t1 + rng.uniform(0.05, 2.0, n)
        x1, x2 = rng.uniform(-2, 2, (2, n, d))
        v1, v2 = rng.uniform(-2, 2, (2, n, d))
        dist, _ = geo.kinetic_distance_batch(t1, x1, v1, t2, x2, v2)
        norms = np.array([geo.sup_norm(geo.compose(
            geo.inverse(geo.PhasePoint(t2[i], x2[i], v2[i])),
            geo.PhasePoint(t1[i], x1[i], v1[i]))) for i in range(n)])
        worst_lo = max(worst_lo, float(np.max(0.5 * norms - dist)))
        worst_hi = max(worst_hi, float(np.max(dist - norms)))
    bounds_ok = worst_lo <= tol and worst_hi <= tol

    d_half = geo.kinetic_distance(geo.PhasePoint(0.0, [0.0], [0.5]),
                                  geo.PhasePoint(0.0, [0.0], [-0.5]), tol=tol)
    d_one = geo.kinetic_distance(geo.PhasePoint(1.0, [0.0], [0.0]),
                                 geo.origin(1), tol=tol)
    opt_ok = abs(d_half - 0.5) <= tol and abs(d_one - 1.0) <= tol

    m = 10000
    t = np.sort(rng.uniform(-1, 1, (3, m)), axis=0)
    t[1] += 0.02
    t[2] += 0.04
    x = rng.uniform(-2, 2, (3, m, 1))
    v = rng.uniform(-2, 2, (3, m, 1))
    d01, _ = geo.kinetic_distance_batch(t[1], x[1], v[1], t[0], x[0], v[0])
    d12, _ = geo.kinetic_distance_batch(t[2], x[2], v[2], t[1], x[1], v[1])
    d02, _ = geo.kinetic_distance_batch(t[2], x[2], v[2], t[0], x[0], v[0])
    tri_viol = float(np.max(d02 - d01 - d12))
    tri_ok = tri_viol <= 3 * tol

    _report(4, "distance bounds, optimality, triangle",
            bounds_ok and opt_ok and tri_ok,
            f"(lo {worst_lo:.1e}, hi {worst_hi:.1e}, d_half {d_half:.7f}, "
            f"d_one {d_one:.7f}, tri {tri_viol:.1e})")


def test_criterion_05_iteration_lemma():
    conv = dg.iterate_lemma(0.25 * (1 - 1e-6), 2.0, 2.0)
    div = dg.iterate_lemma(0.275, 2.0, 2.0)
    flips = conv.verdict == "converged" and conv.sequence[-1] < 1e-12 \
        and len(conv.sequence) <= 61 and div.verdict == "diverged"
    beta = 2.0
    exps_ok = True
    res = dg.iterate_lemma(0.1, 2.0, 2.0, k_max=30)
    for k, (p, b) in enumerate(zip(res.exponents, res.exponent_bounds)):
        closed = sum((k - i) * beta ** i for i in range(k + 1))
        exps_ok &= abs(p - closed) < 1e-9 * max(1.0, closed)
        exps_ok &= p <= beta ** (k + 1) / (beta - 1) ** 2 + 1e-9
        exps_ok &= abs(b - beta ** (k + 1) / (beta - 1) ** 2) < 1e-9 * b
    _report(5, "iteration lemma threshold and exponents", flips and exps_ok)


def test_criterion_06_caccioppoli():
    lam, Lam = 0.2, 1.0
    bound = max(2 / lam, 16 * Lam / lam)
    rng = np.random.default_rng(21)
    axes = [Axis("x", -1, 1, 256), Axis("x", -1, 1, 256)]
    worst = 0.0
    total = 0
    for s, (b0, b1, b2, src) in enumerate(((0.2, 1.0, -0.5, 1.0),
                                           (-0.4, -0.7, 1.1, -2.0))):
        coef = sv.make_coefficients({"kind": "checkerboard", "lam": lam,
                                     "Lam": Lam, "tiles": 8}, seed=s)
        P = sv.Problem(kind="elliptic", axes=axes, coefficients=coef,
                       boundary=lambda p: b0 + b1 * p[..., 0] + b2 * p[..., 1],
                       source=src)
        sol = sv.solve_elliptic(P)
        samples = []
        for _ in range(100):
            x0 = rng.uniform(-0.3, 0.3, 2)
            r = rng.uniform(0.1, 0.3)
            samples.append((x0, r, r + rng.uniform(0.1, 0.35),
                            rng.uniform(-0.6, 0.6)))
        rep = dg.caccioppoli_report(sol, P, samples)
        total += len(rep.records)
        worst = max(worst, rep.worst_ratio / rep.bound)
        assert rep.passed
    _report(6, "Caccioppoli energy ratio within bound",
            total == 200 and worst <= 1.2,
            f"(200 samples, worst ratio/bound {worst:.3f}, bound {bound:g})")


def test_criterion_07_maximal_inequality():
    rng = np.random.default_rng(31)
    axes = [Axis("t", -1, 0, 24), Axis("x", -1, 1, 24), Axis("v", -1, 1, 24)]
    cap = 2 * 5 ** 3
    worst = 0.0
    for _ in range(50):
        g = GridFunction(axes, rng.random((24, 24, 24)) ** 4)
        Mg = cov.maximal_function(g)
        kappas = np.quantile(Mg.values, [0.5, 0.9, 0.99])
        worst = max(worst, cov.maximal_inequality_constant(g, Mg, kappas))
    _report(7, "weak (1,1) maximal constant within bound", worst <= cap,
            f"(worst {worst:.3f} vs {cap})")


def test_criterion_08_interval_stacking():
    rng = np.random.default_rng(41)
    failures = 0
    for _ in range(1000):
        k = int(rng.integers(1, 12))
        fam = cov.IntervalFamily(list(zip(rng.uniform(-3, 3, k),
                                          rng.uniform(0.01, 1.0, k))))
        for m in (1, 2, 4):
            rep = cov.interval_stack_ratio(fam, m)
            if rep.ratio < rep.bound:
                failures += 1
    _report(8, "interval stacking bound, 1000 families", failures == 0,
            f"({failures} failures)")


def test_criterion_09_ink_spots():
    rng = np.random.default_rng(51)
    bad = 0
    for i in range(50):
        m = int(rng.choice([1, 2, 4]))
        E, F = cov.synthesize_ink_spots_instance("parabolic", m, 1.0, rng,
                                                 cells_per_unit=96)
        rep = cov.ink_spots_check(E, F, "parabolic", m, 1.0)
        bad += int(not (rep.hypothesis_ok and rep.passed))
    for i in range(50):
        m = int(rng.choice([1, 2, 4]))
        E, F = cov.synthesize_ink_spots_instance("kinetic", m, 1.0, rng,
                                                 cells_per_unit=48)
        rep = cov.ink_spots_check(E, F, "kinetic", m, 1.0)
        bad += int(not (rep.hypothesis_ok and rep.passed))
    _report(9, "ink-spots inequality on 100 instances", bad == 0,
            f"({bad} failing instances)")


def test_criterion_10_kernel_evolution():
    t0, T = 0.2, 0.05
    axes = [Axis("x", -0.35, 0.35, 128), Axis("v", -3.0, 3.0, 128)]
    X, V = np.meshgrid(axes[0].centers(), axes[1].centers(), indexing="ij")
    f0 = ker.gamma(t0, X[..., None], V[..., None])
    exact = ker.gamma(t0 + T, X[..., None], V[..., None])
    errs = []
    for nt in (2, 4, 8):
        P = sv.Problem(kind="kinetic-fp", axes=axes,
                       coefficients=sv.make_coefficients(
                           {"kind": "identity", "lam": 1, "Lam": 1}),
                       initial=GridFunction(axes, f0), source=0.0,
                       t_final=T, nt=nt)
        sol = sv.solve_kinetic_fp(P)
        errs.append(float(np.abs(sol.u.values - exact).sum() /
                          np.abs(exact).sum()))
    order = np.log2((errs[0] - errs[1]) / (errs[1] - errs[2]))
    ok = errs[-1] < 0.02 and order >= 1.0
    _report(10, "kernel evolution matches exact profile", ok,
            f"(L1 {100 * errs[-1]:.2f}%, temporal order {order:.2f})")


def _holder_alpha(n, coef_spec, coef_seed, boundary):
    axes = [Axis("x", -1.1, 1.1, n), Axis("x", -1.1, 1.1, n)]
    coef = sv.make_coefficients(coef_spec, seed=coef_seed)
    P = sv.Problem(kind="elliptic", axes=axes, coefficients=coef,
                   boundary=boundary, source=0.0)
    sol = sv.solve_elliptic(P)
    prof = dg.oscillation_profile(sol.u, (0.0, 0.0), k_max=6)
    mono = all(a >= b - 1e-12 for a, b in
               zip(prof.oscillations, prof.oscillations[1:]))
    return prof.alpha, mono


def test_criterion_11_holder_regularity():
    smooth_spec = {"kind": "identity", "lam": 1.0, "Lam": 1.0}
    harmonic = lambda p: p[..., 0] - 0.6 * p[..., 1] \
        + 0.1 * (p[..., 0] ** 2 - p[..., 1] ** 2)
    a_smooth, mono_smooth = _holder_alpha(352, smooth_spec, 0, harmonic)
    smooth_ok = 0.95 <= a_smooth <= 1.05 and mono_smooth

    rng = np.random.default_rng(61)
    rough_ok = True
    first_rough = None
    for lam in (0.5, 0.2):
        for i in range(5):
            a0, a1, a2, a3, a4 = rng.uniform(-1, 1, 5)
            bdry = (lambda c: lambda p: c[0] + c[1] * p[..., 0]
                    + c[2] * p[..., 1]
                    + c[3] * (p[..., 0] ** 2 - p[..., 1] ** 2)
                    + c[4] * p[..., 0] * p[..., 1])((a0, a1, a2, a3, a4))
            spec = {"kind": "checkerboard", "lam": lam, "Lam": 1.0,
                    "tiles": 8}
            alpha, mono = _holder_alpha(176, spec, 100 + i, bdry)
            rough_ok &= np.isfinite(alpha) and alpha > 0 and mono
            if first_rough is None:
                first_rough = (spec, 100 + i, bdry, alpha)

    a_ref, _ = _holder_alpha(704, smooth_spec, 0, harmonic)
    stable = abs(a_ref - a_smooth) <= 0.15 * a_smooth
    spec, cseed, bdry, alpha = first_rough
    a_ref2, _ = _holder_alpha(352, spec, cseed, bdry)
    stable &= abs(a_ref2 - alpha) <= 0.15 * alpha

    _report(11, "Holder exponents: smooth band, rough positive, stable",
            smooth_ok and rough_ok and stable,
            f"(smooth {a_smooth:.3f}->{a_ref:.3f}, "
            f"rough sample {alpha:.3f}->{a_ref2:.3f})")


def _rough_kinetic_instance(i, nx, nv, nt):
    rng = np.random.default_rng(2000 + i)
    axes = [Axis("x", -0.5, 0.5, nx), Axis("v", -1.0, 1.0, nv)]
    X, V = np.meshgrid(axes[0].centers(), axes[1].centers(), indexing="ij")
    xc, vc = rng.uniform(-0.15, 0.15), rng.uniform(-0.2, 0.2)
    f0 = 0.2 + np.exp(-8 * (X - xc) ** 2 - 4 * (V - vc) ** 2)
    coef = sv.make_coefficients({"kind": "checkerboard", "lam": 0.2,
                                 "Lam": 1.0, "tiles": 8}, seed=i)
    P = sv.Problem(kind="kinetic-fp", axes=axes, coefficients=coef,
                   initial=GridFunction(axes, f0), source=0.0,
                   t_final=0.25, nt=nt)
    return sv.solve_kinetic_fp(P)


def _scale_to_hypothesis(sol, eta0=0.5):
    # rescale the trajectory so a clear majority of the positivity cylinder
    # sits above level 1; the equation is linear so this is admissible
    hist, times = sol.info["history"], sol.info["times"]
    tau = (np.asarray(times) - times[-1]) / (times[-1] - times[0]) \
        * (1.0 + eta0 ** 2)
    pos = geo.KineticCylinder(geo.PhasePoint(-1.0, [0.0], [0.0]), eta0)
    xv = np.ix_(*sol.u.centers())
    masks = [geo.cylinder_mask(pos, (t, *xv)) for t in tau]
    pool = np.concatenate([f[m].ravel() for f, m in zip(hist, masks)
                           if m.any()])
    s = 1.5 / float(np.quantile(pool, 0.25))
    scaled = [s * f for f in hist]
    return sv.Solution(GridFunction(sol.u.axes, scaled[-1]),
                       {"history": scaled, "times": times})


def test_criterion_12_expansion_and_harnack():
    quotients = {}
    ell_ok = True
    for nx, nv, nt in ((64, 48, 64), (128, 96, 128)):
        sols = [_rough_kinetic_instance(i, nx, nv, nt) for i in range(50)]
        scaled = [_scale_to_hypothesis(s) for s in sols]
        out = dg.expansion_experiment(scaled)
        ell_ok &= out["admitted"] == 50 and out["ell_hat"] > 0
        qs = [dg.harnack_quotient(s).quotient for s in sols]
        assert all(np.isfinite(q) for q in qs)
        quotients[nx] = float(np.median(qs))
    drift = abs(quotients[128] - quotients[64]) / quotients[64]
    _report(12, "expansion of positivity and Harnack stability",
            ell_ok and drift <= 0.10,
            f"(median quotient {quotients[64]:.3f}->{quotients[128]:.3f}, "
            f"drift {100 * drift:.1f}%)")


def test_criterion_13_young_and_weak_lp():
    rng = np.random.default_rng(71)
    axes = [Axis("t", 0, 1, 5), Axis("x", -2, 2, 16), Axis("v", -2, 2, 16)]
    shape = tuple(a.n for a in axes)
    young_ok = True
    for _ in range(10):
        f = GridFunction(axes, rng.random(shape))
        g = GridFunction(axes, rng.random(shape))
        p = float(rng.uniform(1.0, 2.5))
        q = float(rng.uniform(1.0, 1.0 / (1.0 - min(1.0 / p, 0.45))))
        young_ok &= ker.young_check(f, g, p, q).passed

    weak_ok = True
    for _ in range(20):
        h = GridFunction(axes, rng.normal(size=shape) ** 2)
        p = float(rng.uniform(1.0, 4.0))
        weak_ok &= ker.weak_lp_norm(h, p).value <= h.norm_lp(p) * (1 + 1e-12)

    # the kernel's weak L^{1+1/(2d)} estimate stays bounded under refinement
    # while the strong norm at the same exponent keeps growing
    p_star = 1.5
    weak_vals, strong_vals = [], []
    for n in (24, 48, 96):
        ax = [Axis("t", 0, 0.5, n), Axis("x", -2, 2, n), Axis("v", -2, 2, n)]
        T, X, V = np.meshgrid(*[a.centers() for a in ax], indexing="ij")
        g = GridFunction(ax, ker.gamma(T, X[..., None], V[..., None]))
        weak_vals.append(ker.weak_lp_norm(g, p_star).value)
        strong_vals.append(g.norm_lp(p_star))
    stable = max(weak_vals) <= 1.25 * min(weak_vals)
    growing = strong_vals[0] < strong_vals[1] < strong_vals[2] and \
        strong_vals[2] > 1.2 * strong_vals[0]
    _report(13, "Young, weak<=strong, borderline weak-Lp", young_ok and
            weak_ok and stable and growing,
            f"(weak {weak_vals[0]:.3f}..{weak_vals[-1]:.3f}, "
            f"strong {strong_vals[0]:.3f}..{strong_vals[-1]:.3f})")
