"""pseudolab benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload block-field --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  The run sets up the
workload's inputs from --seed, runs one warm-up pass whose outputs are
checked against numpy oracles after the timed region, then repeats whole
passes for --seconds.  Each later pass must reproduce the warm-up outputs
exactly.  Timings are reported in reference seconds, scaled by a fixed
calibration kernel timed beside them (calibrate.py).  The last line of
standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1, named and
with the units that BENCHMARK.json at the checkout root gives.  Metric
definitions and the layer-to-metric map are in README.md beside this file.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # metric names and units
SETUP_REPEATS = (6, 6)  # fresh interpreters before and after the timed passes
KERNEL_REPEATS = 5  # calibration kernels after each set-up probe
THREAD_VARS = ("PSEUDOLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, HERE)

import calibrate  # noqa: E402
from workloads import WORKLOADS, file_digests  # noqa: E402


def metric_units(sections):
    """{name: unit} of the metrics BENCHMARK.json lists in those sections."""
    with open(SPEC) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for sec in sections for m in spec[sec]}


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "pseudolab", "__init__.py")):
        raise SystemExit(f"error: no pseudolab sources under {SRC}")
    sys.path.insert(0, SRC)
    import pseudolab
    import pseudolab.cli  # noqa: F401  (not imported by the package itself)

    return pseudolab


def _git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def machine_info(found_env):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "thread_env": found_env,
    }


def _setup(pl, name, seed, workdir, span=lambda name: contextlib.nullcontext()):
    import numpy as np

    return WORKLOADS[name](pl, np.random.default_rng(seed), workdir, span)


def setup_probe(name, seed):
    """Time import plus input construction in a fresh interpreter."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        t0 = time.perf_counter()
        pl = _import_package()
        _setup(pl, name, seed, workdir)
        elapsed = time.perf_counter() - t0
        calibrate.kernel()  # first call warms numpy's dispatch
        kernel_s = statistics.median(calibrate.kernel() for _ in range(KERNEL_REPEATS))
        print(elapsed, kernel_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name, seed, repeats):
    """(set-up time, calibration kernel time) of `repeats` fresh
    interpreters, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    probes = []
    for _ in range(repeats):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        elapsed, kernel_s = done.stdout.strip().splitlines()[-1].split()
        probes.append((float(elapsed), float(kernel_s)))
    return probes


class Runner:
    """Runs passes of one workload and keeps what the checks need."""

    def __init__(self, setup):
        self.setup = setup
        self.reference = None  # outputs of the warm-up pass
        self.errors = {}  # label -> exception type name, from the warm-up pass
        self.attempted = 0
        self.failed = 0
        self.passes = 0  # timed passes, untraced and traced
        self.unexpected = []

    def one_pass(self):
        """Run every operation once, each followed by the calibration
        kernel.  Returns the pass time (the sum of the operation times) and
        the median kernel time of the pass."""
        ops = self.setup.ops
        outputs, errors = {}, {}
        elapsed, kernel_times = 0.0, []
        for op in ops:
            t = time.perf_counter()
            try:
                outputs[op.label] = op.run()
            except Exception as exc:  # counted below, never hidden
                errors[op.label] = type(exc).__name__
            elapsed += time.perf_counter() - t
            kernel_times.append(calibrate.kernel())
        digests = {op.label: file_digests(op) for op in ops if op.files}
        self._account(len(ops), outputs, errors, digests)
        return elapsed, statistics.median(kernel_times)

    def _account(self, ran, outputs, errors, digests):
        import numpy as np

        self.attempted += ran
        self.failed += len(errors)
        for label, kind in errors.items():
            self.unexpected.append(f"{label} raised {kind}")
        if self.reference is None:
            self.reference = (outputs, digests)
            self.errors = errors
            return
        ref_out, ref_dig = self.reference
        for label, value in outputs.items():
            same = label in ref_out and bool(np.array_equal(value, ref_out[label])
                                             if isinstance(value, np.ndarray)
                                             else value == ref_out[label])
            if not same or digests.get(label) != ref_dig.get(label):
                self.failed += 1
                self.unexpected.append(f"{label} differs from the first pass")

    def cells(self):
        ref_out = self.reference[0]
        return sum(op.cells for op in self.setup.ops if op.label in ref_out)

    def timed(self, seconds):
        """Whole passes until the next would end after `seconds`: the pass
        times and the median kernel time of each pass."""
        samples, kernels = [], []
        start = time.perf_counter()
        while True:
            elapsed, kernel_s = self.one_pass()
            samples.append(elapsed)
            kernels.append(kernel_s)
            if time.perf_counter() - start + statistics.median(samples) > seconds:
                self.passes += len(samples)
                return samples, kernels

    def check(self):
        findings = self.setup.check(self.reference[0])
        for f in findings:
            if not f.ok:
                # a wrong output is wrong in every pass that reproduced it
                self.failed += 1 + self.passes
        return findings


def quartile3(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=4)[2]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true",
                    help="one setup, one pass per phase, both metric sets")
    args = ap.parse_args(argv)

    found_env = {k: os.environ.get(k) for k in THREAD_VARS}
    # measure the package's default field thread pool
    os.environ.pop("PSEUDOLAB_THREADS", None)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    pl = _import_package()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return _run(pl, args, found_env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(pl, args, found_env, workdir):
    import tracing

    traced = args.trace == 1 or args.smoke
    tracer = tracing.Tracer() if traced else None
    if tracer is not None:
        tracer.install(pl)
        setup = _setup(pl, args.workload, args.seed, workdir, tracer.span)
        tracer.uninstall()
    else:
        setup = _setup(pl, args.workload, args.seed, workdir)
    e2e = args.trace == 0 or args.smoke
    # set-up is sampled on both sides of the timed passes; each probe is
    # scaled by the kernel time of its own interpreter
    before, after = (1, 0) if args.smoke else SETUP_REPEATS
    setup_probes = measure_setup(args.workload, args.seed, before) if e2e else []
    runner = Runner(setup)
    runner.one_pass()  # warm-up; its outputs are the ones checked

    seconds = args.seconds / 2 if traced else args.seconds
    if args.smoke:
        seconds = 0.0
    samples, kernels = runner.timed(seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    solve = calibrate.scaled_median(samples, kernels)
    metrics = {}
    if e2e:
        setup_probes += measure_setup(args.workload, args.seed, after)
        metrics.update({
            "setup_s": calibrate.scaled_median(*zip(*setup_probes)),
            "solve_s": solve,
            "cells_per_s": runner.cells() / solve,
            "peak_rss_mb": peak_mb,
        })
    findings = []
    if traced:
        tracer.phase = tracing.TRACED_PHASE
        tracer.install(pl)
        try:
            traced_samples, traced_kernels = runner.timed(seconds)
        finally:
            tracer.uninstall()
        layer = tracing.layer_metrics(tracer.spans(), len(traced_samples))
        layer["trace_overhead"] = calibrate.scaled_median(traced_samples, traced_kernels) / solve
        defects, findings = setup.probe()
        layer["numkernel.convergence_errors"] = float(defects)

    findings += runner.check()
    max_err = max((f.rel_err for f in findings), default=0.0)
    correct = all(f.ok for f in findings) and not runner.unexpected
    if traced:
        layer.update({
            "bench.error_rate": runner.failed / runner.attempted,
            "bench.max_rel_err": max_err,
            "bench.solve_samples": float(len(samples)),
        })
        metrics.update(layer)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))

    info = machine_info(found_env)
    for f in findings:
        if not f.ok:
            print(f"check failed: {f.label}: rel_err {f.rel_err:.3g} {f.note}", file=sys.stderr)
    for msg in runner.unexpected:
        print(f"failure: {msg}", file=sys.stderr)
    print(json.dumps({"machine": info, "workload": args.workload, "seed": args.seed,
                      "inputs": setup.info, "samples": len(samples),
                      "pass_s": [round(x, 6) for x in samples],
                      "pass_median_s": statistics.median(samples),
                      "pass_p75_s": quartile3(samples),
                      "kernel_s": [round(x, 7) for x in kernels],
                      "setup_probes": setup_probes,
                      "errors": runner.errors,
                      "error_rate": runner.failed / runner.attempted,
                      "max_rel_err": max_err}))
    units = metric_units((["end_to_end"] if e2e else []) + (["per_layer"] if traced else []))
    for name, unit in units.items():
        print(f"{args.workload:>20} {name:<32} {metrics[name]:14.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
