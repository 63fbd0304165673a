import json

import numpy as np
import pytest

from kinlab import cli
from kinlab import geometry as geo


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _run(tmp_path, command, cfg, out="out", jobs=1):
    path = _write(tmp_path, f"{command}.json", cfg)
    outdir = tmp_path / out
    code = cli.main([command, "--config", path, "--jobs", str(jobs),
                     "--out", str(outdir)])
    report = None
    rp = outdir / "report.json"
    if rp.exists():
        report = json.loads(rp.read_text())
    return code, report, outdir


def test_unknown_key_is_config_error(tmp_path):
    code, _, _ = _run(tmp_path, "verify-geometry", {"seed": 1, "bogus": 2})
    assert code == 3


def test_missing_seed_is_config_error(tmp_path):
    code, _, _ = _run(tmp_path, "verify-geometry", {"samples": 5})
    assert code == 3


def test_unreadable_config_is_config_error(tmp_path):
    outdir = tmp_path / "o"
    assert cli.main(["covering", "--config", str(tmp_path / "missing.json"),
                     "--out", str(outdir)]) == 3


def test_bad_jobs_is_usage_error(tmp_path):
    path = _write(tmp_path, "c.json", {"seed": 1})
    assert cli.main(["covering", "--config", path, "--jobs", "0",
                     "--out", str(tmp_path / "o")]) == 3


def test_geometry_vacuous_with_warning(tmp_path):
    code, report, _ = _run(tmp_path, "verify-geometry",
                           {"seed": 1, "samples": 0})
    assert code == 0
    assert report["warnings"]


def test_geometry_small_run_passes(tmp_path):
    code, report, outdir = _run(tmp_path, "verify-geometry",
                                {"seed": 7, "samples": 120})
    assert code == 0
    assert report["passed"]
    assert (outdir / "distance_samples.csv").exists()
    header = (outdir / "distance_samples.csv").read_text().splitlines()[0]
    assert header == "index,distance,sup_norm"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sup_norms_of_differences_equal_the_scalar_group_code(d):
    rng = np.random.default_rng(d)
    t1, x1, v1 = cli._random_points(rng, 300, d)
    t2, x2, v2 = cli._random_points(rng, 300, d)
    t2[:10], v2[10:20], x2[20:30] = t1[:10], v1[10:20], x1[20:30]
    got = cli._sup_norms_of_differences(t1, x1, v1, t2, x2, v2)
    want = np.array([geo.sup_norm(geo.compose(
        geo.inverse(geo.PhasePoint(t2[i], x2[i], v2[i])),
        geo.PhasePoint(t1[i], x1[i], v1[i]))) for i in range(300)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _separate_solves_verify_geometry(cfg):
    """cmd_verify_geometry as it was before it took every distance from one
    batched solve, verbatim: a batch for the samples, three for the triangle
    triples and a laddered scalar solve per optimality instance."""
    rng = np.random.default_rng(cfg["seed"])
    N, d, tol = cfg["samples"], cfg["d"], cfg["tol"]
    records, warnings = [], []
    if N == 0:
        warnings.append("samples=0: all geometry suites are vacuous")
        records.append({"check": "vacuous", "passed": True})
        return records, warnings, []

    # group axioms on random triples
    ok = True
    worst = 0.0
    for _ in range(min(N, 500)):
        zs = [geo.PhasePoint(t, x, v) for t, x, v in zip(*cli._random_points(rng, 3, d))]
        z1, z2, z3 = zs
        lhs = geo.compose(geo.compose(z1, z2), z3)
        rhs = geo.compose(z1, geo.compose(z2, z3))
        err = max(abs(lhs.t - rhs.t), np.abs(lhs.x - rhs.x).max(),
                  np.abs(lhs.v - rhs.v).max())
        zi = geo.compose(z1, geo.inverse(z1))
        err = max(err, abs(zi.t), np.abs(zi.x).max(), np.abs(zi.v).max())
        worst = max(worst, err)
        ok &= err < 1e-10
    records.append({"check": "group_axioms", "passed": bool(ok),
                    "worst_error": worst})

    # distance sandwiched by the sup norm of the group difference
    t1, x1, v1 = cli._random_points(rng, N, d)
    t2, x2, v2 = cli._random_points(rng, N, d)
    dist, gap = geo.kinetic_distance_batch(t1, x1, v1, t2, x2, v2)
    norms = cli._sup_norms_of_differences(t1, x1, v1, t2, x2, v2)
    lower_ok = bool(np.all(dist >= 0.5 * norms - tol))
    upper_ok = bool(np.all(dist <= norms + tol))
    records.append({"check": "distance_bounds", "passed": lower_ok and upper_ok,
                    "max_lower_violation": float(np.max(0.5 * norms - dist)),
                    "max_upper_violation": float(np.max(dist - norms))})
    rows = sorted(zip(range(N), dist.tolist(), norms.tolist()))
    csvs = [("distance_samples.csv", ["index", "distance", "sup_norm"], rows)]

    # optimality instances: pure velocity gap hits the 1/2 bound, pure time
    # gap hits the upper bound; both must reproduce the exact value
    z_a = geo.PhasePoint(0.0, np.zeros(d), 0.5 * np.eye(d)[0])
    z_b = geo.PhasePoint(0.0, np.zeros(d), -0.5 * np.eye(d)[0])
    d_half = geo.kinetic_distance(z_a, z_b, tol=min(tol, 1e-6))
    z_c = geo.PhasePoint(1.0, np.zeros(d), np.zeros(d))
    z_o = geo.PhasePoint(0.0, np.zeros(d), np.zeros(d))
    d_one = geo.kinetic_distance(z_c, z_o, tol=min(tol, 1e-6))
    opt_tol = cfg["optimality_tol"]
    opt_ok = abs(d_half - 0.5) <= opt_tol and abs(d_one - 1.0) <= opt_tol
    records.append({"check": "optimality_instances", "passed": bool(opt_ok),
                    "d_half": d_half, "d_one": d_one, "tolerance": opt_tol})

    # triangle inequality on random triples
    M = max(N // 10, 1)
    t3, x3, v3 = cli._random_points(rng, M, d)
    d12, _ = geo.kinetic_distance_batch(t1[:M], x1[:M], v1[:M], t2[:M], x2[:M],
                                        v2[:M])
    d13, _ = geo.kinetic_distance_batch(t1[:M], x1[:M], v1[:M], t3, x3, v3)
    d32, _ = geo.kinetic_distance_batch(t3, x3, v3, t2[:M], x2[:M], v2[:M])
    tri = d12 - (d13 + d32)
    records.append({"check": "triangle_inequality",
                    "passed": bool(np.all(tri <= 3 * tol)),
                    "max_violation": float(tri.max())})

    # cylinder membership invariance under the kinetic dilation
    ok = True
    for _ in range(200):
        z0 = geo.PhasePoint(*[a[0] for a in cli._random_points(rng, 1, d)])
        r = rng.uniform(0.2, 2.0)
        Q = geo.KineticCylinder(z0, r)
        z = geo.PhasePoint(z0.t - rng.uniform(0, r * r) * 0.99,
                           z0.x + rng.uniform(-1, 1, d) * r ** 3 * 0.5,
                           z0.v + rng.uniform(-1, 1, d) * r * 0.5)
        if not geo.cylinder_contains(Q, z):
            continue
        R = rng.uniform(0.5, 2.0)
        Qs = geo.KineticCylinder(geo.scale(z0, R), Q.radius * R)
        ok &= geo.cylinder_contains(Qs, geo.scale(z, R))
    records.append({"check": "membership_dilation", "passed": bool(ok)})
    return records, warnings, csvs


@pytest.mark.parametrize("seed, samples", [(4, 30), (9, 21)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_geometry_one_batch_equals_the_separate_solves(tmp_path, d, seed, samples):
    cfg = {"seed": seed, "samples": samples, "d": d}
    code, report, outdir = _run(tmp_path, "verify-geometry", cfg)
    want, _, csvs = _separate_solves_verify_geometry(
        dict(cli._SCHEMAS["verify-geometry"], **cfg))
    assert code == 0
    # JSON text tells -0.0 from 0.0 and writes every float's shortest repr
    assert (json.dumps(report["records"], sort_keys=True)
            == json.dumps(want, sort_keys=True))
    (name, names, rows), = csvs
    cli.write_csv(tmp_path / name, names, rows)
    assert (outdir / name).read_bytes() == (tmp_path / name).read_bytes()


def test_geometry_strict_optimality_tol_fails(tmp_path, monkeypatch):
    # the solve returns both optimality values exactly, so this one misses
    # them (the last two rows of its batch) by 1e-9: inside the default
    # optimality_tol, outside a strict one
    solve = geo.kinetic_distance_batch

    def missing_the_optimality_rows(*args, **kwargs):
        best, gap = solve(*args, **kwargs)
        best[-2:] += 1e-9
        return best, gap

    monkeypatch.setattr(geo, "kinetic_distance_batch", missing_the_optimality_rows)
    code, _, _ = _run(tmp_path, "verify-geometry", {"seed": 7, "samples": 10},
                      out="default")
    assert code == 0
    code, report, _ = _run(tmp_path, "verify-geometry",
                           {"seed": 7, "samples": 10,
                            "optimality_tol": 1e-12})
    assert code == 2
    rec = {r["check"]: r for r in report["records"]}
    assert not rec["optimality_instances"]["passed"]
    assert rec["triangle_inequality"]["passed"]


def test_reports_deterministic(tmp_path):
    cfg = {"seed": 3, "samples": 60}
    _, r1, o1 = _run(tmp_path, "verify-geometry", cfg, out="a")
    _, r2, o2 = _run(tmp_path, "verify-geometry", cfg, out="b")
    r1.pop("wall_clock_s")
    r2.pop("wall_clock_s")
    assert r1 == r2
    assert (o1 / "distance_samples.csv").read_bytes() == \
        (o2 / "distance_samples.csv").read_bytes()


def test_kernel_unsupported_dimension(tmp_path):
    code, _, _ = _run(tmp_path, "verify-kernel", {"seed": 1, "d": 3})
    assert code == 3


def test_harnack_constant_profile(tmp_path):
    code, report, outdir = _run(tmp_path, "harnack",
                                {"seed": 1, "instances": 2,
                                 "profile": "constant"})
    assert code == 0
    for rec in report["records"]:
        assert rec["quotient"] == 1.0
    assert (outdir / "quotients.csv").exists()


def test_harnack_nonpositive_data_fails(tmp_path):
    code, report, _ = _run(tmp_path, "harnack",
                           {"seed": 1, "instances": 1, "floor": -2.0})
    assert code == 2
    assert "error" in report["records"][0]


def test_covering_small_run(tmp_path):
    code, report, outdir = _run(tmp_path, "covering",
                                {"seed": 2, "families": 50,
                                 "maximal_fields": 1, "n": 24,
                                 "geometry": "parabolic", "ink_spots": 1})
    assert code == 0
    assert report["passed"]
    lines = (outdir / "interval_stacking.csv").read_text().splitlines()
    assert len(lines) == 51


def test_covering_vacuous_families_warn(tmp_path):
    code, report, _ = _run(tmp_path, "covering",
                           {"seed": 2, "families": 0, "maximal_fields": 1,
                            "n": 24})
    assert code == 0
    assert any("vacuous" in w for w in report["warnings"])


def test_kernel_no_young_pair_warns(tmp_path):
    code, report, _ = _run(tmp_path, "verify-kernel",
                           {"seed": 1, "young_pairs": 0, "base_n": 8,
                            "adjoint_quad": [20, 36, 24],
                            "adjoint_threshold": 1.0})
    assert code == 0
    checks = {r["check"]: r["passed"] for r in report["records"]}
    assert checks["young_inequality"] and checks["weak_le_strong"]
    [warning] = report["warnings"]
    assert "Young" in warning and "vacuous" in warning


def test_kernel_admitted_young_pair_passes(tmp_path):
    # at seed 2 the first two drawn (p, q) have 1/p + 1/q <= 1 and are
    # skipped; the third is admitted, so the Young and weak-norm checks run
    code, report, _ = _run(tmp_path, "verify-kernel",
                           {"seed": 2, "young_pairs": 3, "base_n": 8,
                            "adjoint_quad": [20, 36, 24],
                            "adjoint_threshold": 1.0})
    assert code == 0
    assert report["warnings"] == []
    checks = {r["check"]: r["passed"] for r in report["records"]}
    assert checks["young_inequality"] and checks["weak_le_strong"]


def test_holder_scan_unfittable_instance_warns(tmp_path):
    code, report, _ = _run(tmp_path, "holder-scan",
                           {"seed": 1, "instances": 1, "n": 16, "k_max": 0})
    assert code == 0
    assert report["records"][0]["alpha"] == "sentinel"
    [warning] = report["warnings"]
    assert warning.startswith("instance_0:") and "vacuous" in warning


def test_holder_scan_constant_sentinel_and_jobs(tmp_path):
    code, report, outdir = _run(tmp_path, "holder-scan",
                                {"seed": 5, "instances": 2, "n": 96},
                                jobs=2)
    assert code == 0
    rows = (outdir / "alphas.csv").read_text().splitlines()
    assert rows[0] == "index,alpha,constant,fit_residual,monotone"
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1"]
    assert report["config_hash"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("cfg, error", [
    ({"Lam": 1e300}, "non-finite residual"),
    ({"box": 1e-100}, "non-finite residual"),
    # h^2 is inf, and 0: the operator itself is not finite
    ({"box": 1e200}, "building the operator hit a non-finite value"),
    ({"box": 1e-200}, "building the operator hit a non-finite value"),
], ids=["huge-Lam", "tiny-box", "h2-inf", "h2-zero"])
def test_holder_scan_solver_error_is_a_failed_instance(tmp_path, capsys, cfg,
                                                      error, jobs):
    # in range, but the solve meets a non-finite value: no warning, and the
    # instance is a failed record
    code, report, outdir = _run(tmp_path, "holder-scan",
                                {"seed": 0, "n": 16, "instances": 2, **cfg},
                                jobs=jobs)
    assert code == 2 and not report["passed"]
    assert capsys.readouterr().err == ""
    assert [r["check"] for r in report["records"]] == ["instance_0", "instance_1"]
    for rec in report["records"]:
        assert set(rec) == {"check", "passed", "error"} and not rec["passed"]
        assert error in rec["error"]
    assert (outdir / "alphas.csv").read_text() == \
        "index,alpha,constant,fit_residual,monotone\n"


@pytest.mark.parametrize("cfg", [{"seed": 0, "n": "abc"}, {"seed": 0, "n": True},
                                 {"seed": 0, "box": "1"}, {"seed": True},
                                 {"seed": 0, "coefficient": 3}])
def test_config_value_of_wrong_type_is_config_error(tmp_path, cfg):
    code, _, _ = _run(tmp_path, "holder-scan", cfg)
    assert code == 3


def test_int_config_value_is_accepted_for_a_float_field(tmp_path):
    code, report, _ = _run(tmp_path, "verify-geometry",
                           {"seed": 1, "samples": 0, "tol": 1})
    assert code == 0 and report["config"]["tol"] == 1


@pytest.mark.parametrize("command, cfg, key", [
    ("verify-geometry", {"d": 0}, "d"),
    ("verify-geometry", {"samples": -3}, "samples"),
    ("verify-geometry", {"samples": 0, "d": 9}, "d"),
    ("holder-scan", {"n": 0}, "n"),
    ("holder-scan", {"coefficient": "foo"}, "coefficient"),
    ("holder-scan", {"lam": 0.8, "Lam": 0.5}, "Lam"),
    ("covering", {"m": []}, "m"),
    ("covering", {"m": [0]}, "m"),
    ("covering", {"m": [1.5]}, "m"),
    ("covering", {"r0": -1, "ink_spots": 1}, "r0"),
    ("verify-kernel", {"adjoint_quad": [1, 2]}, "adjoint_quad"),
    ("harnack", {"nx": 0}, "nx"),
    ("harnack", {"lam": -1}, "lam"),
    ("harnack", {"omega": 1.5}, "omega"),
    ("harnack", {"seed": -1}, "seed"),
    ("verify-geometry", {"samples": 50, "optimality_tol": float("nan")},
     "optimality_tol"),
    ("verify-geometry", {"samples": 50, "optimality_tol": -1.0}, "optimality_tol"),
    ("verify-kernel", {"adjoint_threshold": float("nan")}, "adjoint_threshold"),
    ("verify-kernel", {"adjoint_threshold": -1.0}, "adjoint_threshold"),
    ("harnack", {"floor": float("nan")}, "floor"),
    ("harnack", {"floor": float("inf")}, "floor"),
    ("harnack", {"floor": float("-inf")}, "floor"),
    # below the smallest dyadic radius the ink-spots lattice resolves
    ("covering", {"geometry": "kinetic", "r0": 0.5, "ink_spots": 1}, "r0"),
    ("covering", {"geometry": "parabolic", "r0": 0.25, "ink_spots": 1}, "r0"),
    # m_ink = 9 coarsens the lattice until 1, the top of r0's range, is the
    # smallest radius it resolves: no r0 can help
    ("covering", {"m_ink": 9, "ink_spots": 1}, "m_ink"),
])
def test_config_value_out_of_range_is_config_error(tmp_path, capsys, command,
                                                   cfg, key):
    code, report, _ = _run(tmp_path, command, {"seed": 0, **cfg})
    assert code == 3 and report is None
    assert capsys.readouterr().err.startswith(f"config error: {key} must be")


@pytest.mark.parametrize("cfg", [{"m_ink": 8}, {"m_ink": 20, "r0": 0.6}])
def test_ink_spots_lattice_fine_enough_for_r0_runs(tmp_path, cfg):
    # the smallest resolved radius depends on r0 as well as m_ink
    code, report, _ = _run(tmp_path, "covering",
                           {"seed": 0, "families": 0, "ink_spots": 1, **cfg})
    assert code == 0 and report["passed"]


def test_ink_spots_lattice_without_a_resolved_radius_is_config_error(tmp_path, capsys):
    # m_ink = 100 widens the x axis past the 384-cell cap: not even r = 1 is resolved
    code, report, _ = _run(tmp_path, "covering",
                           {"seed": 0, "m_ink": 100, "ink_spots": 1})
    assert code == 3 and report is None
    assert capsys.readouterr().err.startswith("config error: m = 100 and r0 = 1.0")


def test_every_range_names_a_config_key_and_admits_its_defaults():
    keys = set().union(*cli._SCHEMAS.values())
    assert set(cli._RANGES) == keys
    for schema in cli._SCHEMAS.values():
        cfg = dict(schema, seed=0)
        assert all(cli._admits(cfg[k], cli._RANGES[k], cfg)
                   for k in cfg if k in cli._RANGES)
