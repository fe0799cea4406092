"""Alternating benchmark pairs of two mcglm checkouts, read by the claim rule.

    python3 tools/pairs.py PARENT_ROOT CHANGE_ROOT --workload car-mc --pairs 10 --seconds 36
    python3 tools/pairs.py PARENT_ROOT CHANGE_ROOT --workload all --pairs 10 --seconds 36

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts. Pair k
(k = 1 .. --pairs) runs each checkout's own ``perfbench/run.py
--workload W --seed k --seconds S`` in its own process, the parent first
in odd pairs and the change first in even ones, and reads the JSON
object on the last line of each run. ``--workload all`` runs the pairs
of every workload in this checkout's ``BENCHMARK.json`` in turn and
prints one block for each as soon as its pairs are done.

For every end-to-end metric in this checkout's ``BENCHMARK.json`` it
prints each side's median and quartiles over the runs and the number of
pairs the change won, by the metric's ``better`` direction (a tie wins
for neither side). Then it says whether the claim rule holds (the
change wins at least nine tenths of the pairs and its median beats the
parent's by more than the parent's interquartile range) and whether the
change's median is worse than the parent's by more than the metric's
bound. It reports only: no exit status from the numbers. A checkout
without ``perfbench/run.py``, or a run that fails, gives one
``error:`` line and exit status 2.

So does a pair of checkouts of which exactly one has a ``__pycache__``
directory under ``src/``: ``setup_s`` includes ``import mcglm`` in a
fresh interpreter, which cached bytecode makes about a millisecond
faster, enough to read as a ``setup_s`` change on ``cli-mc``. Give it
checkouts without bytecode caches, or with them on both sides.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(25th, 50th, 75th) percentiles, linear between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Read the runs of one metric; ``parent[k]`` and ``change[k]`` are pair k's values.

    Returns each side's quartiles, the pairs the change won, whether the
    claim rule holds and whether the change is worse than ``bound``
    (relative to the parent's median).
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: change better
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    qp, qc = quartiles(parent), quartiles(change)
    gap = sign * (qp[1] - qc[1])
    return {
        "parent": qp,
        "change": qc,
        "won": won,
        "pairs": len(parent),
        "claim": 10 * won >= 9 * len(parent) and gap > qp[2] - qp[0],
        "worse": -gap > bound * abs(qp[1]),
    }


def has_bytecode(root):
    """Whether any ``__pycache__`` directory lies under the checkout's ``src/``."""
    return any((Path(root) / "src").rglob("__pycache__"))


def run_bench(root, workload, seed, seconds):
    """One benchmark run of the checkout at ``root``: its last JSON line."""
    script = Path(root) / "perfbench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{script} --seed {seed} exited {proc.returncode}: {err}")
    return json.loads(lines[-1])


def report(metrics, runs):
    """Print the lines for every metric; ``runs`` maps 'parent'/'change' to run results."""
    for side in ("parent", "change"):
        ok = sum(r["correct"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {ok}/{len(runs[side])} runs correct, {failed} of {attempted} fits failed")
    for m in metrics:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        v = verdict(values["parent"], values["change"], m["better"], m["bound"])
        (p1, p2, p3), (c1, c2, c3) = v["parent"], v["change"]
        print(f"{name} ({m['unit']}, {m['better']} is better): "
              f"parent {p2:.6g} [{p1:.6g}, {p3:.6g}], change {c2:.6g} [{c1:.6g}, {c3:.6g}], "
              f"ratio {c2 / p2:.4f}; change won {v['won']}/{v['pairs']} pairs; "
              f"claim rule {'holds' if v['claim'] else 'fails'}; "
              f"worse than its {m['bound']:g} bound: {'yes' if v['worse'] else 'no'}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_root")
    p.add_argument("change_root")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=36.0)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
                 else [args.workload])
    roots = {"parent": args.parent_root, "change": args.change_root}
    try:
        for root in roots.values():
            if not (Path(root) / "perfbench" / "run.py").is_file():
                raise RuntimeError(f"no perfbench/run.py under {root}")
        cached = [side for side, root in roots.items() if has_bytecode(root)]
        if len(cached) == 1:
            raise RuntimeError(f"only the {cached[0]} checkout has __pycache__ under src/; "
                               "setup_s needs matching bytecode caches")
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for k in range(1, args.pairs + 1):
                order = ("parent", "change") if k % 2 else ("change", "parent")
                for side in order:
                    runs[side].append(run_bench(roots[side], workload, k, args.seconds))
            print(f"workload {workload}: {args.pairs} pairs of {args.seconds:g} s runs, "
                  f"seeds 1-{args.pairs}")
            report(bench["end_to_end"], runs)
            sys.stdout.flush()  # a block is read while the next workload runs
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
