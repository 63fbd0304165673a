"""Tests of the benchmark's own code: the layer tracer, the metric names, the
repeatability of the work counts and the child process that makes a run's
repetitions.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import re

import numpy as np
import pytest

import kinlab.cli as cli
from kinlab import kernel
from kinlab.gridfn import Axis, GridFunction

import child
import layertrace
import run
import workloads

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "harnack": {"instances": 2, "coefficient": "checkerboard", "lam": 0.2},
    "holder-scan": {"n": 48, "instances": 2},
    "verify-geometry": {"samples": 300},
    "covering": {"families": 10, "maximal_fields": 1, "n": 12,
                 "ink_spots": 1},
}


def run_lab(tmp_path, command, seed, traced):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = dict(TINY[command], seed=seed)
    cfg_path = tmp_path / f"{command}-{seed}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / f"{command}-{seed}-{'traced' if traced else 'plain'}"
    tracer = layertrace.Tracer().install() if traced else None
    try:
        code = cli.main([command, "--config", str(cfg_path), "--jobs", "1",
                         "--out", str(out)])
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = json.loads((out / "report.json").read_text())
    return code, report, tracer


def snapshot():
    """Every attribute of the kinlab modules and of the classes they define."""
    owners = list(layertrace.Tracer().modules.values())
    owners += [obj for mod in list(owners) for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__.startswith("kinlab.")]
    return {owner: dict(vars(owner)) for owner in owners}


def test_tracer_patches_call_sites_and_restores_them(tmp_path):
    before = snapshot()
    tracer = layertrace.Tracer().install()
    try:
        from kinlab import covering, geometry
        assert GridFunction.sample is not before[GridFunction]["sample"]
        assert covering.dilate_5Q is geometry.dilate_5Q
        assert covering.dilate_5Q is not before[geometry]["dilate_5Q"]
    finally:
        tracer.uninstall()
    run_lab(tmp_path, "harnack", 0, traced=True)
    for owner, attrs in before.items():
        for attr, value in attrs.items():
            assert vars(owner)[attr] is value, f"{owner}.{attr} not restored"


def test_traced_records_equal_untraced(tmp_path):
    for command in ("harnack", "verify-geometry"):
        code_a, plain, _ = run_lab(tmp_path, command, 7, traced=False)
        code_b, traced, tracer = run_lab(tmp_path, command, 7, traced=True)
        assert code_a == code_b == 0
        assert traced["records"] == plain["records"]
        assert tracer.spans


def test_spans_nest_per_thread(tmp_path):
    # harnack solves its instances in a worker thread even at --jobs 1
    _, _, tracer = run_lab(tmp_path, "harnack", 1, traced=True)
    solves = [s for s in tracer.spans if s.name == "solvers.solve_kinetic_fp"]
    assert len(solves) == 2 and all(s.parent is None for s in solves)
    for span in tracer.spans:
        if span.parent is not None:
            assert span.parent.start <= span.start <= span.end <= span.parent.end
    m = layertrace.layer_metrics(tracer.spans)
    assert m["solvers.share"] > 0.5
    assert m["cli.self_s"] >= 0.0


def test_self_time_subtracts_union_of_children():
    assert layertrace.covered([(1, 3), (2, 5), (7, 8), (9, 12)], 0, 10) == 6
    parent = layertrace.Span(0, "a", "kernel", None, 0.0)
    parent.end = 10.0
    kids = []
    for i, (a, b) in enumerate([(1, 3), (2, 5), (7, 8)], start=1):
        kid = layertrace.Span(i, "b", "gridfn", parent, a)
        kid.end = b
        kids.append(kid)
    assert layertrace.self_time(parent, {0: kids}) == pytest.approx(5.0)


@pytest.mark.parametrize("command,keys", [
    ("verify-geometry", ["geometry.kinetic_distance_batch.pairs",
                         "geometry.group_ops.calls"]),
    ("holder-scan", ["solvers.solve_elliptic.unknowns",
                     "solvers.solve_elliptic.iterations"]),
    ("harnack", ["solvers.solve_kinetic_fp.cell_steps",
                 "gridfn.sample.points"]),
    ("covering", ["covering.synthesize_ink_spots_instance.cells",
                  "covering.ink_spots_check.flagged",
                  "covering.ink_spots_check.stack_checked"]),
])
def test_work_counts_repeat_for_one_seed(tmp_path, command, keys):
    counts = []
    for rep in range(2):
        _, _, tracer = run_lab(tmp_path / str(rep), command, 11, traced=True)
        m = layertrace.layer_metrics(tracer.spans)
        counts.append([m[k] for k in keys])
    assert counts[0] == counts[1]
    assert all(c > 0 for c in counts[0])


def test_convolution_counts_repeat(tmp_path):
    axes = [Axis("t", 0, 1, 3), Axis("x", -2, 2, 8), Axis("v", -2, 2, 8)]
    counts = []
    for _ in range(2):
        rng = np.random.default_rng(3)
        f = GridFunction(axes, rng.normal(size=(3, 8, 8)) ** 2)
        g = GridFunction(axes, rng.normal(size=(3, 8, 8)) ** 2)
        tracer = layertrace.Tracer().install()
        try:
            kernel.young_check(f, g, 1.5, 1.5)
        finally:
            tracer.uninstall()
        counts.append([(s.name, s.counts) for s in tracer.spans if s.counts])
    assert counts[0] == counts[1]
    assert ("kernel.kin_convolve", {"pairs": 192 * 192}) in counts[0]


def test_margin_headroom_in_units_of_the_bound():
    adjoint = workloads.Margin("adjoint_identity", "relative_error", 0.02,
                               below=True)
    recs = [{"check": "adjoint_identity", "relative_error": 0.01947}]
    assert adjoint.headrooms(recs) == [pytest.approx(0.0265)]
    alpha = workloads.Margin("instance_*", "alpha", 0.0, below=False, scale=1.0)
    recs = [{"check": "instance_0", "alpha": 0.4},
            {"check": "instance_1", "alpha": "sentinel"}]
    assert alpha.headrooms(recs) == [pytest.approx(0.4)]
    wl = workloads.WORKLOADS["ink-spots"]
    recs = [{"check": "maximal_weak11", "worst_constant": 1.5, "bound": 6.0}]
    assert wl.min_margin(recs) == pytest.approx(0.75)


def test_convolution_count_mismatch_is_noted():
    records = [{"check": "young_inequality", "passed": True}]
    wl = workloads.WORKLOADS["kernel-young"]

    def rep(calls):
        return (False, {"exit_code": 0, "kin_convolve_calls": calls},
                {"passed": True, "records": records})

    ok = [rep(workloads.YOUNG_CONVOLUTIONS)] * 3
    assert run.tally(wl, ok)[:3] == (3, 0, [])
    _, _, notes, _ = run.tally(wl, ok[:2] + [rep(workloads.YOUNG_CONVOLUTIONS + 1)])
    assert len(notes) == 1 and "kin_convolve" in notes[0]


def test_measure_repeats_in_one_child(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    wl = workloads.Workload("tiny", "verify-geometry", {"samples": 300}, ())
    setups, peak_rss, reps = run.measure(wl, 3, 0.0, 1, str(tmp_path))
    assert len(setups) == child.SETUP_SAMPLES and all(t > 0 for t in setups)
    assert peak_rss > 0
    # at least two repetitions, traced first
    assert [traced for traced, _, _ in reps] == [True, False]
    assert all(result["exit_code"] == 0 for _, result, _ in reps)
    assert reps[0][1]["layers"]["geometry.kinetic_distance_batch.pairs"] > 0
    assert run.tally(wl, reps)[1:3] == (0, [])


def test_measure_counts_a_dead_child_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    bad = workloads.Workload("bad", "verify-geometry", {"no_such_key": 1}, ())
    setups, peak_rss, reps = run.measure(bad, 0, 0.0, 0, str(tmp_path))
    attempted, failed, notes, _ = run.tally(bad, reps)
    assert (setups, peak_rss) == ([], None)
    assert attempted == failed == 1 and notes


def test_names_match_benchmark_json():
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    layer_names = run.per_layer_names()
    names = (list(workloads.WORKLOADS) + list(run.END_TO_END) + layer_names)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == {n: run.layer_unit(n) for n in layer_names})
