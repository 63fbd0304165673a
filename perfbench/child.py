"""Run one `lab` command repeatedly in one fresh interpreter and record the
cost of each repetition.

    python3 perfbench/child.py run COMMAND CONFIG RUNDIR SECONDS TRACE
    python3 perfbench/child.py probe COMMAND CONFIG

Expects `src` of the checkout on PYTHONPATH.

`probe` measures set-up: the import of `kinlab.cli` plus the config load in
this fresh interpreter, and prints it as one JSON object.

`run` measures its own set-up the same way, then calls `kinlab.cli.main`
into RUNDIR/rep<i> again and again, each time recording the wall and
process CPU time of the call (all threads) and the number of
`kernel.kin_convolve` calls.  With TRACE 1 every other repetition, the
first included, is traced by `layertrace.Tracer`; its per-layer figures go
into the result and its raw spans into RUNDIR/rep<i>/spans.jsonl, both
written after the call.  Between repetitions it starts `probe` children
until it holds SETUP_SAMPLES set-up times, so that they sample the host
over the whole run.  It starts another repetition while that would end
within SECONDS of its own start, but makes at least MIN_REPS.  After each
repetition it rewrites RUNDIR/reps.json with everything so far, plus the
peak resident set of this process.  A repetition whose call raises ends
the run.
"""

import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

MIN_REPS = 2
SETUP_SAMPLES = 5


def set_up(command, config):
    t0 = time.perf_counter()
    import kinlab.cli as cli
    cli.load_config(config, command)
    return cli, time.perf_counter() - t0


def probe(command, config):
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "probe",
                           command, config],
                          capture_output=True, text=True, timeout=60)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(command, config, rundir, seconds, trace):
    start = time.perf_counter()
    cli, setup_s = set_up(command, config)
    from kinlab import kernel

    # one counter for every repetition, so that untraced runs show how many
    # group convolutions the workload really made (see
    # workloads.young_pairs_for)
    convolve, convolutions = kernel.kin_convolve, [0]

    @functools.wraps(convolve)
    def counted_convolve(*args, **kwargs):
        convolutions[0] += 1
        return convolve(*args, **kwargs)

    kernel.kin_convolve = counted_convolve
    setups, reps, costs = [setup_s], [], []
    while True:
        t0 = time.perf_counter()
        if len(setups) < SETUP_SAMPLES:
            setups.append(probe(command, config))
        outdir = os.path.join(rundir, f"rep{len(reps)}")
        traced = trace and len(reps) % 2 == 0
        tracer = None
        if traced:
            import layertrace
            tracer = layertrace.Tracer().install()
        convolutions[0] = 0
        code = None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main([command, "--config", config, "--jobs", "1",
                             "--out", outdir])
        except Exception:
            traceback.print_exc()
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if tracer is not None:
                tracer.uninstall()
        rep = {"traced": traced, "exit_code": code, "wall_s": wall,
               "cpu_s": cpu, "kin_convolve_calls": convolutions[0]}
        if tracer is not None:
            rep["layers"] = layertrace.layer_metrics(tracer.spans)
            with open(os.path.join(outdir, "spans.jsonl"), "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.as_dict()) + "\n")
        reps.append(rep)
        costs.append(time.perf_counter() - t0)
        save(rundir, setups, reps)
        if code is None:
            break
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + statistics.median(costs) > seconds:
            break
    kernel.kin_convolve = convolve
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe(command, config))
    save(rundir, setups, reps)


def save(rundir, setups, reps):
    path = os.path.join(rundir, "reps.json")
    with open(path + ".tmp", "w") as fh:
        json.dump({"setup_s": setups, "peak_rss_mb": peak_rss_mb(),
                   "reps": reps}, fh)
    os.replace(path + ".tmp", path)


def main(argv):
    mode, command, config = argv[:3]
    if mode == "probe":
        print(json.dumps({"setup_s": set_up(command, config)[1]}))
    else:
        rundir, seconds, trace = argv[3:6]
        # lab's own printing goes to the log, with the tracebacks
        sys.stdout = sys.stderr
        run(command, config, rundir, float(seconds), trace == "1")


if __name__ == "__main__":
    main(sys.argv[1:])
