"""kinlab benchmark: time, memory and margin of `lab` runs, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kinlab checkout.  A run starts one fresh
interpreter (child.py, with the checkout's `src` on PYTHONPATH) that
imports kinlab and then runs one `lab` command (see workloads.py) again
and again with the same seed, while the next repetition would end within
S seconds, but at least twice; between repetitions it times the set-up of
a few more fresh interpreters.  Output checks: exit code 0, `passed` in
report.json, records identical across repetitions and between traced and
untraced ones, and for verify-kernel the number of group convolutions.

--trace 0 reports the end-to-end metrics: wall and CPU time as means
over the repetitions, set-up time as the median of the set-up samples, and
the peak resident set of the process that made the repetitions.
--trace 1 alternates traced and untraced repetitions, traced first, and
reports the per-layer metrics of the traced ones, plus the tracing overhead.

Prints one line per metric (name, value, unit), one `machine` line, and as
its last line one JSON object with keys correct, attempted, failed, metrics.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

from workloads import WORKLOADS, YOUNG_CONVOLUTIONS

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".perfbench_runs"
TIME_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "check_pass_ratio": "ratio",
    "min_margin": "ratio",
}

# Per-layer counts that must repeat exactly across runs of one seed.
EXACT_COUNTS = (
    "gridfn.sample.points", "kernel.kin_convolve.pairs",
    "covering.synthesize_ink_spots_instance.cells",
    "covering.ink_spots_check.flagged", "solvers.solve_elliptic.unknowns",
    "solvers.solve_kinetic_fp.cell_steps",
    "geometry.kinetic_distance_batch.pairs",
)

_UNIT_SUFFIXES = (
    ("_per_s", "1/s"), (".bytes_computed", "B"),
    (".ns_per_unknown_iter", "ns"), (".s", "s"), ("_s", "s"),
    ("share", "ratio"), ("_ratio", "ratio"),
    (".final_residual", "1"), (".mass_drift", "1"), (".max_gap", "1"),
)


def layer_unit(name):
    for suffix, unit in _UNIT_SUFFIXES:
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names():
    import layertrace
    return (list(layertrace.metric_names())
            + ["solvers.solve_elliptic.iterations_spread",
               "trace.untraced_wall_s", "trace.traced_wall_s",
               "trace.wall_ratio"])


# ---------------------------------------------------------------------------
# Machine
# ---------------------------------------------------------------------------

def _blas():
    import numpy as np
    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    out = {"blas": f"{info.get('name')} {info.get('version')}",
           "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                out["blas_threads"] = int(getattr(lib, sym)())
                return out
    return out


def _cache_bytes():
    # glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and
    # _SC_LEVEL3_CACHE_SIZE (per core for L1/L2)
    try:
        libc = ctypes.CDLL(None)
        return {f"{lvl}_bytes": int(libc.sysconf(code)) for lvl, code in
                (("l1d", 188), ("l2", 191), ("l3", 194))}
    except (OSError, AttributeError):
        return {}


def machine_info():
    import numpy as np
    import scipy
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}
    info.update(_blas())
    info.update(_cache_bytes())
    return info


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, rundir):
    """Runs child.py once for the whole run; returns the set-up times, the
    peak resident set in MB and a list of (traced, result, report) per
    repetition, result and report None where the child or the command
    died."""
    cfg_path = os.path.join(rundir, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(workload.config(seed), fh)
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "run",
           workload.command, cfg_path, rundir, str(seconds), str(trace)]
    with open(os.path.join(rundir, "child.log"), "w") as log:
        # its own session, so that a timeout also ends its probe children
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log, start_new_session=True)
        try:
            proc.wait(timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # it ended on its own meanwhile
            proc.wait()
            print("child timed out", file=sys.stderr)
    if proc.returncode != 0:
        with open(os.path.join(rundir, "child.log")) as fh:
            print(f"child exited {proc.returncode}\n{fh.read()[-2000:]}",
                  file=sys.stderr)
    path = os.path.join(rundir, "reps.json")
    if not os.path.exists(path):
        return [], None, [(False, None, None)]
    with open(path) as fh:
        out = json.load(fh)
    reps = []
    for i, result in enumerate(out["reps"]):
        report = None
        report_path = os.path.join(rundir, f"rep{i}", "report.json")
        if result["exit_code"] is not None and os.path.exists(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
        reps.append((result["traced"], result, report))
    if proc.returncode != 0 or not reps:
        # the child died after its last complete repetition
        reps.append((False, None, None))
    return out["setup_s"], out["peak_rss_mb"], reps


def tally(workload, reps):
    """Checks attempted and failed over all repetitions, and notes on
    anything wrong.  A repetition that crashed, exited non-zero or whose
    records differ from the first complete report counts all its checks as
    failed."""
    reference = next((rep[2]["records"] for rep in reps if rep[2]), None)
    n_checks = len(reference) if reference else 1
    attempted = failed = 0
    notes = []
    for i, (traced, result, report) in enumerate(reps):
        attempted += n_checks
        if result is None or report is None:
            failed += n_checks
            notes.append(f"rep{i}: no result or no report")
            continue
        if report["records"] != reference:
            failed += n_checks
            notes.append(f"rep{i}: records differ from rep0"
                         + (" (traced)" if traced else ""))
            continue
        bad = sum(not r.get("passed", False) for r in report["records"])
        failed += bad
        if bad or result["exit_code"] != 0 or not report.get("passed"):
            notes.append(f"rep{i}: exit {result['exit_code']}, {bad} failed checks")
        if (workload.command == "verify-kernel"
                and result["kin_convolve_calls"] != YOUNG_CONVOLUTIONS):
            notes.append(f"rep{i}: expected {YOUNG_CONVOLUTIONS} kin_convolve "
                         f"calls, got {result['kin_convolve_calls']}: the "
                         "Young-pair replay in workloads.py no longer matches "
                         "the command")
    return attempted, failed, notes, reference


def end_to_end_metrics(workload, setups, peak_rss, reps, attempted, failed,
                       reference):
    done = [r for _, r, report in reps if report is not None]
    # Means over the run's repetitions: the host's speed moves in phases of
    # seconds to a minute, and a mean averages over the phases the run saw
    # where a median of a few repetitions lands in one of them.
    m = {name: statistics.mean(r[name] for r in done) if done else 0.0
         for name in ("wall_s", "cpu_s")}
    m["peak_rss_mb"] = peak_rss or 0.0
    m["setup_s"] = statistics.median(setups) if setups else 0.0
    m["check_pass_ratio"] = 1.0 - failed / attempted
    margin = workload.min_margin(reference) if reference else None
    m["min_margin"] = -1.0 if margin is None else margin
    return m


def per_layer_metrics(reps, notes):
    traced = [r["layers"] for t, r, report in reps if t and report is not None]
    plain = [r["wall_s"] for t, r, report in reps
             if not t and report is not None]
    if not traced or not plain:
        notes.append("no complete traced and untraced repetition")
        return {name: 0.0 for name in per_layer_names()}
    m = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        if layer_unit(name) == "count":
            m[name] = values[0]
            if name in EXACT_COUNTS and len(set(values)) > 1:
                notes.append(f"{name} differs between traced runs: {values}")
        else:
            m[name] = statistics.median(values)
    iters = [t["solvers.solve_elliptic.iterations"] for t in traced]
    m["solvers.solve_elliptic.iterations_spread"] = max(iters) - min(iters)
    walls = [r["wall_s"] for t, r, report in reps if t and report is not None]
    m["trace.untraced_wall_s"] = statistics.median(plain)
    m["trace.traced_wall_s"] = statistics.median(walls)
    m["trace.wall_ratio"] = m["trace.traced_wall_s"] / m["trace.untraced_wall_s"]
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "kinlab", "cli.py")):
        print("error: run from the root of a kinlab checkout "
              "(src/kinlab/cli.py not found)", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    rundir = os.path.join(RUNS_DIR, f"{workload.name}-trace{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    machine = machine_info()
    with open(os.path.join(rundir, "machine.json"), "w") as fh:
        json.dump(machine, fh, indent=1)

    setups, peak_rss, reps = measure(workload, args.seed, args.seconds,
                                     args.trace, rundir)
    attempted, failed, notes, reference = tally(workload, reps)
    if args.trace:
        metrics = per_layer_metrics(reps, notes)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end_metrics(workload, setups, peak_rss, reps,
                                     attempted, failed, reference)
        units = END_TO_END
    for note in notes:
        print(f"note: {note}")
    for i, (traced, result, _) in enumerate(reps):
        if result is not None:
            print(f"rep{i}{' traced' if traced else ''}: "
                  f"wall_s {result['wall_s']:.4g} cpu_s {result['cpu_s']:.4g}")
    print("setup_s samples: " + " ".join(f"{t:.4g}" for t in setups))
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps({
        "correct": not notes, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
