"""One workload in a fresh process; started by run.py.

Prints ``ready`` once ``circadia.cli`` is imported (run.py times set-up up
to that line), writes the seeded inputs, then runs the workload's op list
pass after pass until the time budget is spent, checking every op's outputs
and that every pass writes byte-identical files. With --trace 1 passes
alternate untraced and traced. The result goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import circadia.cli  # set-up ends with this import

import layertrace
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _digest(out_dir: str) -> dict:
    found = {}
    for base, _, files in os.walk(out_dir):
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(
                    f.read()).hexdigest()
    return found


def run_pass(ops, out_dirs: list, first_digests: dict | None):
    """Run the op list once; return (wall s, cpu s, per-op problems, digests).

    Only the ops are timed. Checks read the files afterwards.
    """
    codes = []
    sink = io.StringIO()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op, out_dir in zip(ops, out_dirs):
            try:
                codes.append(op.run(out_dir))
            except Exception:  # an op that crashes counts as failed
                codes.append(traceback.format_exc())
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    problems, digests = [], []
    for i, (op, out_dir, code) in enumerate(zip(ops, out_dirs, codes)):
        if isinstance(code, str):
            problems.append([f"{op.name} raised:\n{code}"])
            digests.append({})
            continue
        try:
            found = op.check(code, out_dir)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            found = [f"{op.name}: unreadable output: {exc!r}"]
        digest = _digest(out_dir)
        if first_digests is not None and digest != first_digests[i]:
            found.append(f"{op.name}: outputs differ from the first pass")
        problems.append(found)
        digests.append(digest)
    return wall, cpu, problems, digests


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    os.chdir(args.workdir)
    params = workloads.make_inputs(args.workload, args.seed, "inputs")
    ops = workloads.build_ops(
        args.workload, params,
        check_reference=args.seed == workloads.DEFAULT_SEED)
    lu_available = layertrace.lu_operator_available()

    walls, cpus, traced_walls, layer_passes = [], [], [], []
    attempted = failed = 0
    problems_seen: list[str] = []
    first_digests = None
    first_spans = None
    hook_errors: list[str] = []
    observed = None
    start = time.perf_counter()
    i = 0
    # At least two passes (the second proves byte-identical reruns, the
    # traced run needs one untraced and one traced pass); a further pass
    # starts while the budget is not spent.
    while True:
        traced = bool(args.trace) and i % 2 == 1
        pass_dir = os.path.join("out", f"pass-{i}")
        out_dirs = [os.path.join(pass_dir, f"{j}-{op.name}")
                    for j, op in enumerate(ops)]
        if traced:
            tracer = layertrace.Tracer()
            with layertrace.Installed(tracer):
                wall, cpu, problems, digests = run_pass(ops, out_dirs,
                                                        first_digests)
            traced_walls.append(wall)
            layer_passes.append(layertrace.layer_metrics(tracer.spans,
                                                         lu_available))
            if first_spans is None:
                first_spans = layertrace.spans_payload(tracer.spans)
            hook_errors.extend(tracer.hook_errors)
        else:
            wall, cpu, problems, digests = run_pass(ops, out_dirs,
                                                    first_digests)
            walls.append(wall)
            cpus.append(cpu)
        if first_digests is None:
            first_digests = digests
            try:
                observed = workloads.reference_values(args.workload, out_dirs)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                observed = {"error": repr(exc)}
        shutil.rmtree(pass_dir, ignore_errors=True)
        attempted += len(ops)
        for found in problems:
            if found:
                failed += 1
                problems_seen.extend(found)
        i += 1
        if i >= 2 and time.perf_counter() - start >= args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "params": params,
        "ops": [op.name for op in ops],
        "attempted": attempted,
        "failed": failed,
        "problems": problems_seen[:20],
        "observed": observed,
        "wall_s": walls,
        "cpu_s": cpus,
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if args.trace:
        layers, unstable = layertrace.combine(layer_passes)
        layers["proc.cpu_s"] = statistics.median(cpus)
        layers["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        result["layers"] = layers
        result["unstable_counts"] = unstable
        result["hook_errors"] = sorted(set(hook_errors))
        result["traced_wall_s"] = traced_walls
        with open(args.spans, "w", encoding="utf-8") as f:
            json.dump(first_spans, f)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    return 0


def environment() -> dict:
    import numpy
    import scipy
    from circadia import dynamics

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "leapfrog_kernel": ("numba" if getattr(dynamics, "_HAVE_NUMBA", False)
                            else "python"),
        "circadia_file": os.path.relpath(circadia.cli.__file__, ROOT),
    }


if __name__ == "__main__":
    print("ready", flush=True)
    sys.exit(main())
