"""kvnlab benchmark: time the kvn-lab scenarios end to end, or trace their layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kvnlab checkout; kvnlab is imported from its src/.
Each workload runs in fresh worker processes (worker.py) that call
``kvnlab.cli.run`` back to back, one client in a closed loop.  With
``--trace 0`` workers, each with one cold and one warm pass, are started one
after another while the next is expected to fit in the time, and the
end-to-end metrics are medians over them; ``--trace 1`` runs one worker that
times untraced passes, then traced passes, then the per-layer kernels.
Every output is checked; the last line of stdout is the JSON result.
Scratch output goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from kernels import LABEL_REPS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "cold_pass_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}

# span self times only for the layers the workloads' passes spend time in;
# the measurement, algebra and uncertainty layers are measured by kernels
PASS_LAYERS = ("phasespace", "stateio", "dynamics", "cli")
PER_LAYER = (
    *(f"{layer}.{kind}" for layer in PASS_LAYERS for kind in ("self_s", "share")),
    "trace.pass_s", "trace.overhead_s", "trace.spans",
    "phasespace.transform_s", "phasespace.transform_calls",
    "phasespace.expectation_s", "phasespace.expectation_calls",
    "dynamics.split_step_2d_s", "phasespace.fft_pair_2d_x_s", "phasespace.fft_pair_2d_p_s",
    "dynamics.split_step_4d_s", "phasespace.fft_pair_4d_x_s", "phasespace.fft_pair_4d_P_s",
    "dynamics.coupling_shear_s",
    "measurement.kraus_s",
    *(f"measurement.kraus_probs_{rep}_s" for rep in LABEL_REPS),
    "measurement.couple_s", "measurement.von_neumann_couple_s", "measurement.simultaneity_s",
    "phasespace.marginal_4d_s", "phasespace.conditional_4d_s",
    "algebra.multiply_s", "algebra.heisenberg_evolve_s",
    "algebra.multiply_calls", "algebra.heisenberg_calls",
    "uncertainty.error_disturbance_s",
    "stateio.save_state_s", "stateio.save_state_4d_s", "stateio.bytes_written",
    "cli.record_s", "cli.record_calls",
)


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


class WorkerFailed(RuntimeError):
    pass


def _nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def thread_caps():
    """Thread-pool variables for the workers, capped at the usable CPU count."""
    n = _nproc()
    caps = {}
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        caps[var] = str(min(int(cur), n)) if cur.isdigit() and int(cur) > 0 else str(n)
    return caps


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spawn_worker(args, caps, deadline):
    """Run one worker; returns its result with the parent-measured set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--seconds", repr(args.seconds)]
    env = dict(os.environ, **caps)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or code != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {code} (first line {first.strip()!r})")
    result = json.loads(lines[-1])
    result["setup_s"] = setup
    return result


def count_failures(results):
    """(attempted, failed, messages): check failures plus determinism mismatches.

    Every pass of one workload and seed must record the same manifest
    checksums, across passes and across worker processes.
    """
    attempted = sum(r["runs"] for r in results)
    messages = [p for r in results for p in r["problems"]]
    passes = [sums for r in results for sums in r["checksums"]]
    mismatches = 0
    for i in range(len(passes[0])):
        runs = [p[i] for p in passes if p[i] is not None]
        mismatches += sum(run != runs[0] for run in runs)
    if mismatches:
        messages.append(f"{mismatches} run(s) wrote files whose checksums differ "
                        "from the first pass")
    return attempted, sum(r["failed"] for r in results) + mismatches, messages


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    load_start = os.getloadavg()
    caps = thread_caps()
    results, durations = [], []
    t_start = time.monotonic()
    while not results or (not args.trace and time.monotonic() - t_start
                          + statistics.median(durations) <= args.seconds):
        t0 = time.monotonic()
        results.append(spawn_worker(args, caps, deadline))
        durations.append(time.monotonic() - t0)
    attempted, failed, messages = count_failures(results)
    for msg in messages:
        print(f"failure: {msg}", file=sys.stderr)

    warm = [t for r in results for t in r["pass_s"]]
    if args.trace:
        metrics = {name: results[0]["layer"][name] for name in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "cold_pass_s": statistics.median(r["cold_pass_s"] for r in results),
            "pass_s": statistics.median(warm),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in results) / 1024.0,
        }
    env = {
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "nproc": _nproc(),
        "cpu_model": cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "thread_caps": caps,
        "workers": len(results),
        "warm_passes": len(warm),
    }
    print("env " + json.dumps(env, sort_keys=True))
    w = WORKLOADS[args.workload]
    print("workload " + json.dumps({"name": w.name, "sizes": w.sizes, "moves": w.moves,
                                    "unchanged": w.unchanged}))
    units = {name: unit_of(name) for name in PER_LAYER} if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    print(f"{args.workload} pass times " + " ".join(f"{t:.4f}" for t in warm))
    print(f"{args.workload} error_rate {failed / attempted!r} "
          f"({failed} failed of {attempted} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
