"""mcglm benchmark: fit latency and throughput per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload car-mc --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. Each workload runs in its own process
with BLAS pinned to one thread (verified through ctypes). The load is a
closed loop: one caller fits replicates one after another for
``--seconds``, visiting the pool in an order fixed by ``--seed``. Every
fit is checked against the reference recorded at the seed commit. The
last line of standard output is one JSON object; see README.md.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import boot

boot.pin_blas_env()

WORKLOAD_NAMES = ("paired-r2", "car-mc", "cli-mc")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import mcglm; print(time.perf_counter() - t)"
)
# per-fit layer metrics reported as calls as well as self time
CALL_LAYERS = (
    "covariance.weight", "covariance.dC", "covariance.dsigma", "covariance.assembly",
    "functions.covlink", "matpred.assemble_U", "estfun.state",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="traced run: write spans as JSON lines here")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_seconds(src):
    """Wall time of ``import mcglm`` in a fresh interpreter (BLAS env inherited)."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(src=str(src))],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def p90(sorted_walls):
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    rank = math.ceil(0.9 * len(sorted_walls))
    return sorted_walls[rank - 1], len(sorted_walls) - rank


def round_rates(records, passed, size):
    """Passing fits per second of fit time in each round of ``size`` consecutive fits.

    A trailing partial round is dropped unless it is the only one.
    """
    rates = []
    for k in range(0, max(len(records) - size + 1, 1), size):
        walls = [r[1] for r in records[k:k + size]]
        rates.append(sum(passed[k:k + size]) / sum(walls))
    return rates


def run_fits(workload, indices, seconds=None):
    """Closed loop over ``indices``; with ``seconds``, stop once that long has passed.

    Returns [(pool index, wall seconds, Outcome)].
    """
    records = []
    start = time.perf_counter()
    for i in indices:
        wall, outcome = workload.fit(i)
        records.append((i, wall, outcome))
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return records


def run_metadata(args, workload, blas, attempted):
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (boot.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=boot.ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((boot.ROOT / "src" / "mcglm").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **workload.shape(),
        "attempted": attempted,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {k: v["config"] for k, v in blas.items()},
        "blas_threads": {k: v["threads"] for k, v in blas.items()},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def gate(records, refs):
    """Per fit, whether it passed (matched its reference and converged),
    and the number of fits that missed their reference."""
    from workloads import matches

    passed, mismatched = [], 0
    for i, _, outcome in records:
        ok = matches(outcome, refs[i])
        mismatched += not ok
        passed.append(ok and outcome.converged)
    return passed, mismatched


def run_workload(args):
    src = boot.use_checkout_source()
    blas = boot.verify_one_blas_thread()
    import numpy as np

    import workloads

    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=boot.ROOT) as workdir:
        w = workloads.WORKLOADS[args.workload](workdir)
        ref = workloads.load_reference(w.name)
        if len(ref["replicates"]) != w.pool_size:
            raise boot.BenchError("reference does not cover the replicate pool")
        refs = ref["replicates"]
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t_import = 0.0 if args.trace else import_seconds(src)
            t0 = time.perf_counter()
            w.setup()
            setups.append(t_import + time.perf_counter() - t0)
        notes = []
        correct = True
        if ref.get("inputs_sha256") and w.inputs_digest() != ref["inputs_sha256"]:
            notes.append("generated inputs differ from the reference pool")
            correct = False
        order = [int(i) for i in np.random.default_rng(args.seed).permutation(w.pool_size)]
        simulate_s = w.prepare()
        if args.trace:
            result, lines = traced_run(args, w, order, refs, notes)
        else:
            result, lines = timed_run(args, w, order, refs, setups, simulate_s)
        correct = correct and result.pop("correct")
        meta = run_metadata(args, w, blas, result["attempted"])

    print(f"# mcglm benchmark: workload {w.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"blas_threads numpy={blas['numpy']['threads']} scipy={blas['scipy']['threads']} (verified)")
    for line in lines + notes:
        print(line)
    return {"correct": bool(correct), **result}


def timed_run(args, w, order, refs, setups, simulate_s):
    records = run_fits(w, itertools.cycle(order), args.seconds)
    passed, mismatched = gate(records, refs)
    n, failed = len(records), passed.count(False)
    # Each visited replicate counts once, with the mean of its fits, and
    # every complete round of the pool holds the same replicates, so a
    # run's mix of replicates does not depend on how far it got.
    per_rep = defaultdict(list)
    for i, wall, _ in records:
        per_rep[i].append(wall)
    rep_walls = {i: statistics.fmean(v) for i, v in per_rep.items()}
    rates = round_rates(records, passed, w.pool_size)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "fit_s": (statistics.median(rep_walls.values()), "s"),
        "fits_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    shape = " ".join(f"{k}={v}" for k, v in w.shape().items())
    notes = {
        "setup_s": f"(median of {len(setups)})",
        "fit_s": f"(median over {len(rep_walls)} replicates of their mean; {n} fits)",
        "fits_per_s": f"(median over {len(rates)} rounds of the pool; {shape})",
    }
    lines = [f"{k} {v:.6g} {u} {notes.get(k, '')}".rstrip() for k, (v, u) in metrics.items()]
    value, beyond = p90(sorted(r[1] for r in records))
    if beyond >= 10:
        lines.append(f"fit_s_p90 {value:.6g} s ({n} fits, {beyond} beyond)")
    else:
        lines.append(f"fit_s_p90 not reported: {n} fits leave fewer than 10 beyond it")
    lines.append(f"fail_share {failed / n:.6g} ratio ({failed} of {n} fits; "
                 f"{mismatched} off the reference)")
    if simulate_s is not None:
        lines.append(f"simulate_s {simulate_s:.6g} s ({w.pool_size} replicates)")
    return {
        "correct": mismatched == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, lines


def traced_run(args, w, order, refs, notes):
    from tracer import SPAN_LAYERS, Tracer

    untraced = run_fits(w, itertools.cycle(order), args.seconds / 2)
    indices = [r[0] for r in untraced]
    inputs = w.inputs()
    tracer = Tracer()
    try:
        missing = tracer.install()
        t0 = time.perf_counter()
        w.regenerate(tracer)
        traced = run_fits(w, indices)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    if args.spans:
        tracer.write_spans(args.spans)
    same = w.inputs() == inputs and all(
        a[2].bits() == b[2].bits() for a, b in zip(untraced, traced))
    if not same:
        notes.append("traced results differ from untraced results")
    notes.extend(f"not traced: {m}.{a} does not exist" for m, a in missing)
    records = untraced + traced
    passed, mismatched = gate(records, refs)
    n = len(traced)
    selfs = tracer.self_times()
    metrics = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}_s"] = (selfs.get(layer, (0.0, 0))[0] / n, "s/fit")
    for layer in CALL_LAYERS:
        metrics[f"{layer}_calls"] = (selfs.get(layer, (0.0, 0))[1] / n, "calls/fit")
    metrics["functions.chol_calls"] = (tracer.counts["functions.chol"] / n, "calls/fit")
    iters = sum(r[2].n_iter for r in traced)
    metrics["solver.iters_per_fit"] = (iters / n, "iters/fit")
    metrics["solver.states_per_iter"] = (
        selfs.get("estfun.state", (0.0, 0))[1] / max(iters, 1), "calls/iter")
    metrics["solver.pd_retries"] = (sum(r[2].escalations for r in traced) / n, "retries/fit")
    layer_sum = sum(v for k, (v, _) in metrics.items() if k.endswith("_s"))
    metrics["trace.wall_s"] = (wall / n, "s/fit")
    metrics["trace.remainder_s"] = (wall / n - layer_sum, "s/fit")
    metrics["trace.overhead_s"] = (
        statistics.median(r[1] for r in traced) - statistics.median(r[1] for r in untraced),
        "s/fit",
    )
    lines = [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"traced {n} fits after {len(untraced)} untraced fits of the same "
                 f"replicates; results bitwise equal: {same}")
    return {
        "correct": same and mismatched == 0,
        "attempted": len(records),
        "failed": passed.count(False),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, lines


def run_all(args):
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args)
    except boot.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
