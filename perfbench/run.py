"""circadia benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``. NAME is one of the workloads in ``workloads.py`` or ``all``.
Each run of a workload happens in a fresh child process (``worker.py``)
with BLAS threads pinned to 1. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: end-to-end metrics from untraced passes: ``wall_s``
  (median pass time), ``setup_s`` (median time from interpreter start
  until ``circadia.cli`` is imported, over several fresh start-ups) and
  ``peak_rss_mb`` (the child's peak resident set size).
* ``--trace 1``: per-layer metrics from traced passes, see
  ``layertrace.py`` and ``layers.json``.

``failed``/``attempted`` is the fail ratio: an op fails when its exit code,
an invariant of its outputs, a stored reference value (seed 0) or the
byte identity of a rerun is wrong. Files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import layertrace
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4        # plus the worker's own start-up
IMPORTTIME_PROBES = 3
PROBE_CODE = "import circadia.cli; print(circadia.cli.__file__, flush=True)"
EXPECTED_CLI = os.path.join(SRC, "circadia", "cli.py")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CIRCADIA_CONSTANTS", None)   # constants override is test-only
    env["PYTHONPATH"] = SRC
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def first_line(p: subprocess.Popen, timeout: float) -> str:
    """The child's first stdout line; kills the child if none comes."""
    if not select.select([p.stdout], [], [], timeout)[0]:
        p.kill()
        p.communicate()
        raise BenchError(f"no output from a child process in {timeout} s")
    return p.stdout.readline()


def setup_probe(env) -> float:
    """Seconds from process start until circadia.cli is imported."""
    t0 = time.perf_counter()
    p = subprocess.Popen([sys.executable, "-c", PROBE_CODE], cwd=ROOT,
                         env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    line = first_line(p, 120)
    elapsed = time.perf_counter() - t0
    _, err = p.communicate(timeout=120)
    if p.returncode != 0 or os.path.realpath(line.strip()) != \
            os.path.realpath(EXPECTED_CLI):
        raise BenchError(f"set-up probe failed: {line.strip()!r} {err}")
    return elapsed


def importtime_probe(env) -> dict:
    """Cumulative import seconds of circadia (package and cli module) and of
    scipy.interpolate, from ``python -X importtime``."""
    p = subprocess.run([sys.executable, "-X", "importtime", "-c", PROBE_CODE],
                       cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=120)
    if p.returncode != 0:
        raise BenchError(f"import-time probe failed: {p.stderr[-2000:]}")
    found = layertrace.importtime(p.stderr, ("circadia", "circadia.cli",
                                             "scipy.interpolate"))
    return {"import_s": found["circadia"] + found["circadia.cli"],
            "scipy_interpolate_s": found["scipy.interpolate"]}


def run_worker(env, workload, seed, seconds, traced, workdir, result_path,
               spans_path) -> tuple[float, dict]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(traced)),
           "--workdir", workdir, "--result", result_path,
           "--spans", spans_path]
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                         text=True)
    line = first_line(p, 120)
    setup = time.perf_counter() - t0
    try:
        p.communicate(timeout=max(120.0, 4.0 * seconds + 60.0))
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise BenchError(f"{workload}: worker timed out")
    if p.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"{workload}: worker exited {p.returncode}")
    with open(result_path, "r", encoding="utf-8") as f:
        result = json.load(f)
    if os.path.realpath(os.path.join(ROOT, result["env"]["circadia_file"])) \
            != os.path.realpath(EXPECTED_CLI):
        raise BenchError("worker imported circadia from outside src/")
    return setup, result


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        commit = p.stdout.strip() or None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas_threads": {v: "1" for v in BLAS_VARS}, "seed": seed,
            "git_commit": commit}


def tail(samples: list) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return f"no tail percentile (n={n}, needs >= 20)"
    s = sorted(samples)
    return f"p{100.0 * (n - 10) / n:.0f}={s[n - 11]:.4f} s (n={n})"


def bench_one(workload: str, seed: int, seconds: float, traced: bool):
    env = child_env()
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    workdir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    result_path = os.path.join(OUT, f"result-{tag}.json")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if traced:
            probes = [importtime_probe(env) for _ in range(IMPORTTIME_PROBES)]
            setups = []
        else:
            setups = [setup_probe(env) for _ in range(SETUP_PROBES)]
        setup, result = run_worker(
            env, workload, seed, seconds, traced, workdir, result_path,
            os.path.join(OUT, f"spans-{workload}-seed{seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(setup)
    result["env"].update(environment(seed))
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)

    walls = result["wall_s"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload} seed {seed}: {len(walls)} untraced "
          f"pass(es) of {len(result['ops'])} op(s) "
          f"[{', '.join(result['ops'])}], {failed}/{attempted} ops failed")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    if traced:
        layers = result["layers"]
        layers["setup.import_s"] = statistics.median(
            p["import_s"] for p in probes)
        layers["setup.scipy_interpolate_import_s"] = statistics.median(
            p["scipy_interpolate_s"] for p in probes)
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        with open(os.path.join(HERE, "layers.json"), "r",
                  encoding="utf-8") as f:
            if set(json.load(f)["metrics"]) != set(units):
                raise BenchError("layers.json and BENCHMARK.json per_layer "
                                 "name different metrics")
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
        if result["unstable_counts"]:
            print(f"  counts that did not repeat across traced passes: "
                  f"{result['unstable_counts']}")
        for err in result["hook_errors"]:
            print(f"  trace attribute lost: {err}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"  wall_s       {metrics['wall_s']['value']:.4f} s  median of "
              f"{len(walls)} passes, range {min(walls):.4f}..{max(walls):.4f}"
              f"; {tail(walls)}")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s  median of "
              f"{len(setups)} start-ups")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  fail_ratio   {failed / attempted:.4g} ({failed}/{attempted})")
    for key, val in metrics.items():
        if traced and val["value"] is not None:
            print(f"  {key:40s} {val['value']:.6g} {val['unit']}")
    print("env " + json.dumps({"params": result["params"], **result["env"]},
                              sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "circadia", "cli.py")):
        print(f"error: no circadia package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    seconds = args.seconds or float(load_spec()["run_seconds"])
    if seconds <= 0:
        ap.error("--seconds must be > 0")
    os.makedirs(OUT, exist_ok=True)
    # byte-compile once so that no set-up sample pays for it
    compileall.compile_dir(os.path.join(SRC, "circadia"), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = bench_one(name, args.seed, seconds,
                                      bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
