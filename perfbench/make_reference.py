"""Record the reference result of every pooled replicate.

    python3 perfbench/make_reference.py [--workload NAME]

Run from the root of a checkout of the commit whose results are the
reference (the correctness gate compares every benchmark fit against
these files). Writes perfbench/reference/<workload>.json.
"""

import argparse
import json
import sys
import tempfile

import boot

boot.pin_blas_env()


def record(name):
    import workloads

    with tempfile.TemporaryDirectory(prefix="perfbench-ref-", dir=boot.ROOT) as workdir:
        w = workloads.WORKLOADS[name](workdir)
        w.setup()
        w.prepare()
        outcomes = [w.fit(i)[1] for i in range(w.pool_size)]
        doc = {
            "workload": name,
            "pool_seed": workloads.POOL_SEED,
            "inputs_sha256": w.inputs_digest(),
            "shape": w.shape(),
            "replicates": [o.to_json() for o in outcomes],
        }
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    n_fail = sum(not o.converged for o in outcomes)
    print(f"{name}: {len(outcomes)} replicates, {n_fail} failed; wrote {path}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None)
    args = p.parse_args(argv)
    boot.use_checkout_source()
    boot.verify_one_blas_thread()
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
