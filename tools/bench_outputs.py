"""Write the outputs of every benchmark op, for diffing two source trees.

    python tools/bench_outputs.py OUT --seeds 0 1 2 [--root CHECKOUT]
                                      [--against DIR]

Runs each op of the four workloads in ``perfbench/workloads.py`` once per
seed, with the package imported from CHECKOUT's ``src/`` (default: the
checkout holding this script) and one BLAS thread, into
``OUT/<workload>-<seed>/``: the seeded inputs under ``inputs/`` and each
op's files under ``<index>-<op>/``. It prints every op's exit code and the
problems its check finds, and exits 1 if any op raised or failed its check.

A change that should leave outputs alone is shown to do so by running this
on a checkout of the parent and on the change, into two directories, and
comparing them with ``diff -r``. A change that moves values by rounding
shows by how much with ``--against DIR``, DIR an earlier output of this
script: after the run it lists the files of either tree that differ or
exist in only one, and for each differing CSV and JSON file the largest
absolute and relative difference of every numeric CSV column (and of the
``# meta:`` JSON a table carries) and of every JSON value (a list of
numbers is one value); a non-numeric entry that differs is named, other
files are only said to differ. ``perfbench/`` is only imported, never
written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
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


def _flatten(value, key: str, out: dict) -> None:
    """Leaves of a JSON value by key path into out; a list of numbers is
    one leaf (its elements in order)."""
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{key}.{k}" if key else str(k), out)
    elif isinstance(value, list) and value and all(
            _number(v) is not None for v in value):
        out[key] = value
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{key}[{i}]", out)
    else:
        out[key] = [value]


def _number(value):
    """value as a float when it is a JSON or CSV number, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _entries(path: str) -> dict | None:
    """Key -> list of values of a CSV table (one key per column, plus the
    leaves of its '# meta:' JSON) or a JSON file; None for other files."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    out: dict = {}
    if path.endswith(".json"):
        _flatten(json.loads(text), "", out)
        return out
    if not path.endswith(".csv"):
        return None
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    for ln in lines:
        if ln.startswith("# meta:"):
            _flatten(json.loads(ln[len("# meta:"):]), "meta", out)
    rows = list(csv.reader(body))
    if rows:
        for j, name in enumerate(rows[0]):
            out[name] = [row[j] if j < len(row) else None for row in rows[1:]]
    return out


def _largest_difference(a: list, b: list):
    """(largest |a - b|, largest |a - b| / max(|a|, |b|)) over paired
    numbers, equal non-finite values counting 0 and a pair with a
    non-finite difference (a NaN beside a number) infinite; None when the
    lists differ in length or hold a non-numeric pair that differs."""
    if len(a) != len(b):
        return None
    d_abs = d_rel = 0.0
    for x, y in zip(a, b):
        fx, fy = _number(x), _number(y)
        if fx is None or fy is None:
            if x != y:
                return None
            continue
        if fx == fy or (math.isnan(fx) and math.isnan(fy)):
            continue
        d = abs(fx - fy)
        if not math.isfinite(d):
            return math.inf, math.inf
        d_abs = max(d_abs, d)
        d_rel = max(d_rel, d / max(abs(fx), abs(fy)))
    return d_abs, d_rel


def compare_trees(new: str, old: str) -> None:
    """Print what differs between two output trees of this script."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, fs in os.walk(root) for f in fs}

    ours, theirs = files(new), files(old)
    same = 0
    for rel in sorted(ours | theirs):
        if rel not in theirs or rel not in ours:
            print(f"{rel}: only in {new if rel in ours else old}")
            continue
        a, b = os.path.join(new, rel), os.path.join(old, rel)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() == fb.read():
                same += 1
                continue
        try:
            ea, eb = _entries(a), _entries(b)
        except (UnicodeDecodeError, json.JSONDecodeError, csv.Error):
            ea = eb = None
        if ea is None or eb is None:
            print(f"{rel}: differs (not a table)")
            continue
        named = False
        for key in sorted(set(ea) | set(eb)):
            got = None if key not in ea or key not in eb \
                else _largest_difference(ea[key], eb[key])
            if got is None:
                print(f"{rel} {key}: differs (shape or text)")
            elif got != (0.0, 0.0):
                print(f"{rel} {key}: max abs {got[0]:.3g}, "
                      f"max rel {got[1]:.3g}")
            named = named or got != (0.0, 0.0)
        if not named:
            print(f"{rel}: differs in its text, not in its values")
    print(f"{same} of {len(ours | theirs)} files byte-identical")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="output directory (must not exist)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="source checkout to run")
    ap.add_argument("--against", help="an earlier output tree of this "
                    "script to compare the new one with")
    args = ap.parse_args()
    root, out = os.path.abspath(args.root), os.path.abspath(args.out)
    if os.path.exists(out):
        ap.error(f"{out} exists")
    against = args.against and os.path.abspath(args.against)
    if against and not os.path.isdir(against):
        ap.error(f"{against} is not a directory")
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
    if against:
        compare_trees(out, against)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
