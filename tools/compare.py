"""Fit-by-fit interleaved comparison of two mcglm checkouts on the benchmark's workloads.

    python3 tools/compare.py PARENT_SRC CHANGE_SRC --workload car-mc --rounds 8
    python3 tools/compare.py PARENT_SRC CHANGE_SRC --workload all --rounds 8

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each checkout's ``mcglm`` is imported in this one process under its own
module name, and the workload is built for each from this checkout's
``perfbench/workloads.py``. Every round visits the pool once; each
replicate is fitted by both packages back to back, the first of the two
alternating, and each fit's CPU time is taken with ``time.process_time``.
BLAS is pinned to one thread.

It prints the ratio of the median CPU time per fit (change / parent),
the share of fits on which the change took less CPU time, the largest
relative difference in estimates and in standard errors (each relative
to the largest magnitude of the parent's vector), and the 25th, 50th
and 75th percentiles of the per-replicate CPU ratio (change / parent of
the two back-to-back fits), whose spread shows how far one ratio of
medians can be trusted, and for each side how many fits miss the
benchmark's reference (the workload module's ``load_reference`` and
``matches``, at its ``RTOL``), the gate ``perfbench/run.py`` applies.
``--workload all`` prints these six lines for every workload in turn
(paired-r2, car-mc, cli-mc). It stops with
an error when the two disagree on convergence, iteration count or alpha
escalations, since their times would then not measure the same work.
Otherwise it reports only: no bound, no exit status from the timings.
"""

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import boot  # noqa: E402

boot.pin_blas_env()

import numpy as np  # noqa: E402

WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_package(src, name):
    """Import the ``mcglm`` package under ``src`` as the module ``name``."""
    init = Path(src).resolve() / "mcglm" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no mcglm package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def load_workloads(pkg, name):
    """perfbench/workloads.py as the module ``name``, its ``mcglm`` bound to ``pkg``."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    saved = {key: sys.modules.get(key) for key in ("mcglm", "mcglm.cli")}
    sys.modules["mcglm"], sys.modules["mcglm.cli"] = pkg, cli
    try:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key, value in saved.items():
            if value is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = value
    return module


def timed_fit(workload, i):
    t0 = time.process_time()
    _, outcome = workload.fit(i)
    return time.process_time() - t0, outcome


def rel_diff(a, b):
    """max |a - b| relative to max |b|; 0 when both fits failed and returned nothing."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b))) if b.size else 0.0


def compare(modules, workload_name, rounds, workdir):
    """Print the six comparison lines for one workload; ``modules`` is (parent, change)."""
    sides = []
    for tag, module in zip(("parent", "change"), modules):
        if workload_name not in module.WORKLOADS:
            raise SystemExit(f"error: unknown workload {workload_name!r}")
        side = Path(workdir) / workload_name / tag
        side.mkdir(parents=True)
        workload = module.WORKLOADS[workload_name](side)
        workload.setup()
        workload.prepare()
        workload.fit(0)  # warm-up
        sides.append(workload)
    parent, change = sides
    pool = parent.pool_size
    # both sides load this checkout's workloads.py, so one gate serves both
    refs, matches = modules[0].load_reference(workload_name)["replicates"], modules[0].matches
    cpu = {"parent": [], "change": []}
    missed = {"parent": 0, "change": 0}
    won = 0
    diff = {"estimates": 0.0, "std_errors": 0.0}
    for k in range(rounds):
        for i in range(pool):
            first_parent = (k * pool + i) % 2 == 0
            if first_parent:
                t_p, o_p = timed_fit(parent, i)
                t_c, o_c = timed_fit(change, i)
            else:
                t_c, o_c = timed_fit(change, i)
                t_p, o_p = timed_fit(parent, i)
            same = (o_p.converged, o_p.n_iter, o_p.escalations) == (
                o_c.converged, o_c.n_iter, o_c.escalations)
            if not same:
                raise SystemExit(
                    f"error: replicate {i} differs: parent (converged, n_iter, escalations) "
                    f"= {(o_p.converged, o_p.n_iter, o_p.escalations)}, change = "
                    f"{(o_c.converged, o_c.n_iter, o_c.escalations)}"
                )
            for key in diff:
                diff[key] = max(diff[key], rel_diff(getattr(o_c, key), getattr(o_p, key)))
            cpu["parent"].append(t_p)
            cpu["change"].append(t_c)
            won += t_c < t_p
            missed["parent"] += not matches(o_p, refs[i])
            missed["change"] += not matches(o_c, refs[i])
    n = rounds * pool
    med = {tag: statistics.median(ts) for tag, ts in cpu.items()}
    print(f"workload {workload_name}: {pool} replicates x {rounds} rounds = {n} fits per checkout")
    print(f"median CPU per fit: parent {med['parent']:.6g} s, change {med['change']:.6g} s, "
          f"ratio {med['change'] / med['parent']:.4f}")
    print(f"change faster on {won}/{n} fits ({100.0 * won / n:.1f}%)")
    print(f"largest relative difference: estimates {diff['estimates']:.3g}, "
          f"std errors {diff['std_errors']:.3g}")
    q1, q2, q3 = np.percentile(np.divide(cpu["change"], cpu["parent"]), [25, 50, 75])
    print(f"per-replicate CPU ratio: 25% {q1:.4f}, 50% {q2:.4f}, 75% {q3:.4f}")
    print(f"fits missing the reference: parent {missed['parent']}/{n}, "
          f"change {missed['change']}/{n}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--rounds", type=int, default=8)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    modules = [
        load_workloads(load_package(src, f"mcglm_{tag}"), f"workloads_{tag}")
        for tag, src in (("parent", args.parent_src), ("change", args.change_src))
    ]
    names = list(modules[1].WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix="mcglm-compare-") as workdir:
        for name in names:
            compare(modules, name, args.rounds, workdir)


if __name__ == "__main__":
    main()
