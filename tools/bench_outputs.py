"""Write the outputs of every benchmark op, for diffing two source trees.

    python tools/bench_outputs.py OUT --seeds 0 1 2 [--root CHECKOUT]

Runs each op of the four workloads in ``perfbench/workloads.py`` once per
seed, with the package imported from CHECKOUT's ``src/`` (default: the
checkout holding this script) and one BLAS thread, into
``OUT/<workload>-<seed>/``: the seeded inputs under ``inputs/`` and each
op's files under ``<index>-<op>/``. It prints every op's exit code and the
problems its check finds, and exits 1 if any op raised or failed its check.

A change that should leave outputs alone is shown to do so by running this
on a checkout of the parent and on the change, into two directories, and
comparing them with ``diff -r``. ``perfbench/`` is only imported, never
written.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import traceback

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_workload(workloads, name: str, seed: int, out: str) -> bool:
    """Run every op of one workload at one seed; True when all pass."""
    work = os.path.join(out, f"{name}-{seed}")
    os.makedirs(work)
    here = os.getcwd()
    os.chdir(work)      # the ops read their circuit files as inputs/...
    try:
        params = workloads.make_inputs(name, seed, "inputs")
        ops = workloads.build_ops(
            name, params, check_reference=seed == workloads.DEFAULT_SEED)
        ok = True
        for j, op in enumerate(ops):
            out_dir = f"{j}-{op.name}"
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    code = op.run(out_dir)
                except Exception:
                    code = None
                    problems = [traceback.format_exc()]
            if code is not None:
                problems = op.check(code, out_dir)
            ok = ok and code is not None and not problems
            print(f"{name} seed {seed} {op.name}: exit {code}; "
                  + ("; ".join(problems) if problems else "checks pass"))
        return ok
    finally:
        os.chdir(here)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="output directory (must not exist)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="source checkout to run")
    args = ap.parse_args()
    root, out = os.path.abspath(args.root), os.path.abspath(args.out)
    if os.path.exists(out):
        ap.error(f"{out} exists")
    for var in BLAS_VARS:
        os.environ[var] = "1"     # before numpy loads its BLAS
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import circadia
    import workloads

    if not os.path.abspath(circadia.__file__).startswith(
            os.path.join(root, "src") + os.sep):
        ap.error(f"circadia imported from {circadia.__file__}, not {root}")
    ok = True
    for seed in args.seeds:
        for name in workloads.WORKLOADS:
            ok = run_workload(workloads, name, seed, out) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
