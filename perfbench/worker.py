"""One workload process: set up, then time back-to-back kvnlab.cli.run passes.

Started by run.py; not meant to be run by hand.  It prints ``ready`` once
kvnlab is imported and the configs are built (the parent times set-up up to
that line), and one JSON result as its last line.

    worker.py --root DIR --workload NAME --seed N --trace 0|1 [--seconds S]

With ``--trace 0`` it runs a cold and one warm pass; with ``--trace 1`` it
runs a cold pass, then untraced and traced passes for S seconds, then the
per-layer kernels.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def _import_kvnlab(root):
    """Import kvnlab from the checkout's src/, refusing any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import kvnlab

    if src not in Path(kvnlab.__file__).resolve().parents:
        raise ImportError(f"kvnlab imported from {kvnlab.__file__}, not from {src}")


class Runner:
    """Runs passes of one workload and keeps their timings and verdicts."""

    def __init__(self, cli, workload, seed, work_dir):
        self.cli = cli
        self.configs = workload.configs(seed)
        self.seed = seed
        self.work_dir = work_dir
        self.runs = 0
        self.failed = 0
        self.problems = []
        self.checksums = []     # per pass: per run, the manifest's (name, sha256) pairs
        self.state_bytes = []   # per pass: bytes of .state files written

    def one_pass(self):
        """Run every config once; returns the wall time of the cli.run calls."""
        from workloads import check_run, manifest_checksums

        outs = [Path(tempfile.mkdtemp(dir=self.work_dir)) / "out" for _ in self.configs]
        raised = {}
        t0 = time.perf_counter()
        for i, (cfg, out) in enumerate(zip(self.configs, outs)):
            try:
                self.cli.run(cfg, out, seed=self.seed)
            except Exception as exc:  # a failed run is counted, not fatal
                raised[i] = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        sums, nbytes = [], 0
        for i, (cfg, out) in enumerate(zip(self.configs, outs)):
            self.runs += 1
            problems = [raised[i]] if i in raised else check_run(cfg, out)
            self.failed += bool(problems)
            self.problems += [f"{cfg['scenario']}: {p}" for p in problems]
            sums.append(manifest_checksums(out) if not problems else None)
            nbytes += sum(f.stat().st_size for f in out.glob("*.state"))
            shutil.rmtree(out.parent)
        self.checksums.append(sums)
        self.state_bytes.append(nbytes)
        return wall


def _timed_passes(one_pass, budget_s):
    """At least one pass, then more while the next is expected to fit the budget."""
    times = []
    t_start = time.perf_counter()
    while not times or time.perf_counter() - t_start + statistics.median(times) <= budget_s:
        times.append(one_pass())
    return times


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    _import_kvnlab(args.root)
    import numpy

    from kvnlab import cli
    from workloads import WORKLOADS

    work_root = args.root / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=work_root, prefix="worker-"))
    runner = Runner(cli, WORKLOADS[args.workload], args.seed, work_dir)
    print("ready", flush=True)

    try:
        t0 = time.perf_counter()
        cold = runner.one_pass()
        # peak of set-up plus one pass: what a single kvn-lab invocation costs
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {"numpy": numpy.__version__, "cold_pass_s": cold, "rss_kb": rss_kb}
        if args.trace:
            budget = args.seconds - (time.perf_counter() - t0)
            result.update(_traced_part(runner, budget, work_dir, args))
        else:
            result["pass_s"] = [runner.one_pass()]
        result.update(runs=runner.runs, failed=runner.failed, problems=runner.problems,
                      checksums=runner.checksums)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))


def _traced_part(runner, budget, work_dir, args):
    """Untraced then traced passes, each on half the budget, then the kernels."""
    from kernels import run_kernels
    from spans import Tracer, pass_metrics, split_passes

    plain = _timed_passes(runner.one_pass, budget / 2)
    tracer = Tracer()
    first = len(runner.checksums)

    def traced_pass():
        tracer.pass_id += 1
        return runner.one_pass()

    with tracer:
        traced = _timed_passes(traced_pass, budget / 2)
    tracer.dump(args.root / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json")
    per_pass = split_passes(tracer.spans)
    layer = [pass_metrics(per_pass[k + 1], wall) for k, wall in enumerate(traced)]
    metrics = {}
    for name in layer[0]:
        values = [m[name] for m in layer]
        # counts repeat exactly from pass to pass; keep them as integers
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["stateio.bytes_written"] = runner.state_bytes[first]
    kernel_dir = Path(tempfile.mkdtemp(dir=work_dir))
    metrics.update(run_kernels(kernel_dir))
    return {"pass_s": plain, "layer": metrics}


if __name__ == "__main__":
    main()
