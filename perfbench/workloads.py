"""Seeded inputs, op lists and output checks of the four benchmark workloads.

Every workload is closed-loop: its ops run one after another in one
process, CLI commands in-process through ``circadia.cli.main(argv)`` and a
library call where no command exists.

Seed 0 is the default seed: it uses the nominal parameters unchanged and
its outputs are also compared with ``reference.json``. Any other seed
jitters (kappa, xi, lambdaJ) inside a +-2% box, which keeps each
workload's regime (subcritical, past the fold, transmon-like), and draws a
fresh Foster model and sample grid.
"""

from __future__ import annotations

import copy
import csv
import json
import os

import numpy as np

DEFAULT_SEED = 0
JITTER = 0.02

WORKLOADS = ("bo_ladder", "compare_routes", "spectra2d", "classical")

# Nominal (kappa, xi, lambdaJ) per circuit file.
NOMINAL = {
    "bo_ladder": {"bo": (0.5, 10.0, 5.0)},
    "compare_routes": {"cmp": (0.5, 1.0, 0.5)},
    "spectra2d": {"s2d": (0.6, 40.0, 400.0)},
    "classical": {"fold": (0.5, 1.0, 2.0), "dyn": (0.2, 1.0, 0.5)},
}
# Coarser than the default 2D grids (compact 192 phi points, extended
# 140x249) so that a pass takes seconds, not tens of seconds; the compact
# rung still starts from the far Gershgorin shift and the LU fill stays
# near 3M entries.
S2D_GRIDS = {"compact": {"n_phi": 96}, "extended": {"nx": 96, "ny": 160}}
# A pass has to take seconds so that a run holds several: 7 x points instead
# of the acceptance gate's 21, and a coarser reduce grid and leapfrog step
# than the CLI defaults (1024 points, dt 2e-4).
BO_LADDER = "0.6,0.45,0.3"
BO_X_POINTS = 7
REDUCE_GRID = 256
DYN_DT = 5e-4
FOSTER_NOMINAL = {"c_inf": 1.0,
                  "resonances": [[0.5, 1.5], [0.8, 3.0], [1.2, 4.5]]}
FOSTER_BAND = (0.5, 6.0)
FOSTER_SAMPLES = 300
FOSTER_GAP = 0.02   # samples keep this relative distance from every pole

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def circuit_payload(kappa: float, xi: float, lambdaJ: float) -> dict:
    """SI circuit whose reduction lands on (kappa, xi, lambdaJ).

    Inverts the reduction through the package's constants table: pick C,
    then derive C', L and E_J.
    """
    from circadia import get_constants

    k = get_constants()
    C = 1e-12
    e_c = 4.0 * k.e**2 / C
    omega_c = xi * e_c / k.hbar
    return {"C_F": C, "Cp_F": kappa**4 * C, "L_H": 1.0 / (omega_c**2 * C),
            "EJ_J": lambdaJ * e_c, "ng": 0.0}


def _jitter(rng, value: float, seed: int) -> float:
    if seed == DEFAULT_SEED:
        return float(value)
    return float(value * (1.0 + rng.uniform(-JITTER, JITTER)))


def _foster_model(rng, seed: int) -> dict:
    if seed == DEFAULT_SEED:
        return copy.deepcopy(FOSTER_NOMINAL)
    res = [[_jitter(rng, L, seed), om * (1.0 + rng.uniform(-0.1, 0.1))]
           for L, om in FOSTER_NOMINAL["resonances"]]
    return {"c_inf": _jitter(rng, FOSTER_NOMINAL["c_inf"], seed),
            "resonances": res}


def _foster_samples(rng, model: dict) -> np.ndarray:
    from circadia import FosterModel, eval_admittance

    fm = FosterModel(c_inf=model["c_inf"],
                     resonances=tuple(tuple(r) for r in model["resonances"]))
    om = np.sort(rng.uniform(FOSTER_BAND[0], FOSTER_BAND[1], FOSTER_SAMPLES))
    for pole in fm.omegas:
        om = om[np.abs(om - pole) > FOSTER_GAP * pole]
    return np.column_stack([om, eval_admittance(fm, om).imag])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")


def make_inputs(workload: str, seed: int, inputs_dir: str) -> dict:
    """Write the workload's input files; return the generated parameters."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(inputs_dir, exist_ok=True)
    params: dict = {"seed": seed, "circuits": {}}
    for name, nominal in NOMINAL[workload].items():
        kappa, xi, lam = (_jitter(rng, v, seed) for v in nominal)
        params["circuits"][name] = {"kappa": kappa, "xi": xi,
                                    "lambdaJ": lam}
        _write_json(os.path.join(inputs_dir, f"{name}.json"),
                    circuit_payload(kappa, xi, lam))
    if workload == "classical":
        model = _foster_model(rng, seed)
        samples = _foster_samples(rng, model)
        # repr(float(v)): numpy 2 scalar reprs read as a header line
        with open(os.path.join(inputs_dir, "foster.csv"), "w",
                  encoding="utf-8") as f:
            f.write("omega,ImY\n")
            for w, y in samples:
                f.write(f"{float(w)!r},{float(y)!r}\n")
        params["foster_model"] = model
        params["foster_samples"] = int(samples.shape[0])
    _write_json(os.path.join(inputs_dir, "params.json"), params)
    return params


# ---------------------------------------------------------------------------
# ops


class Op:
    """One closed-loop step: run() returns an exit code, check() returns a
    list of problems found in the files it wrote under out_dir."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _cli(argv):
    def run(out_dir):
        from circadia import cli
        return cli.main(argv + ["--out", out_dir])
    return run


def _spectra2d_run(params):
    c = params["circuits"]["s2d"]

    def run(out_dir):
        from circadia import Cosine, spectra
        table = spectra.spectrum_vs_kappa(Cosine(), c["xi"], c["lambdaJ"],
                                          (c["kappa"],), k=4,
                                          bases=("extended", "compact"),
                                          grids=S2D_GRIDS)
        os.makedirs(out_dir, exist_ok=True)
        table.to_csv(os.path.join(out_dir, "spectrum.csv"))
        return 0
    return run


def build_ops(workload: str, params: dict, check_reference: bool) -> list:
    ref = load_reference()[workload] if check_reference else None
    if workload == "bo_ladder":
        argv = ["bo-sweep", "--circuit", "inputs/bo.json",
                "--kappa-ladder", BO_LADDER, "--x-min", "-3", "--x-max", "3",
                "--x-points", str(BO_X_POINTS)]
        return [Op("bo-sweep", _cli(argv), _checker(check_bo, ref, 0))]
    if workload == "compare_routes":
        argv = ["compare", "--circuit", "inputs/cmp.json"]
        return [Op("compare", _cli(argv), _checker(check_compare, ref, 0))]
    if workload == "spectra2d":
        return [Op("spectrum_vs_kappa", _spectra2d_run(params),
                   _checker(check_spectra2d, ref, 0))]
    if workload == "classical":
        return [
            Op("reduce", _cli(["reduce", "--circuit", "inputs/fold.json",
                               "--grid", str(REDUCE_GRID)]),
               _checker(check_reduce, ref, 2)),   # refused past the fold
            Op("dynamics", _cli(["dynamics", "--circuit", "inputs/dyn.json",
                                 "--report", "shadow", "--dt", str(DYN_DT)]),
               _checker(check_dynamics, ref, 0)),
            Op("foster", _cli(["foster", "--input", "inputs/foster.csv",
                               "--resonances", "3"]),
               _checker(lambda o, r: check_foster(o, r, params), ref, 0)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# checks: each returns the problems found in one op's outputs


def _checker(fn, ref, expected_code: int):
    def check(code, out_dir):
        if code != expected_code:
            return [f"exit code {code}, expected {expected_code}"]
        return fn(out_dir, ref)
    return check


def _load(out_dir, name):
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as f:
        return json.load(f)


def _rows(out_dir, name):
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as f:
        lines = [ln for ln in f if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _close(got, want, rel, label, problems, floor=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{label}: shape {got.shape} != {want.shape}")
        return
    scale = np.maximum(np.abs(want), floor)
    if not np.all(np.abs(got - want) <= rel * scale):
        problems.append(f"{label}: {got.tolist()} != reference "
                        f"{want.tolist()} (rel {rel})")


def check_bo(out_dir, ref):
    problems = []
    rep = _load(out_dir, "bo_report.json")
    if rep["verdict"] != "decreasing":
        problems.append(f"verdict {rep['verdict']!r}")
    sups = rep["sup_abs_delta"]
    if not all(b < a for a, b in zip(sups, sups[1:])):
        problems.append(f"sup|delta_e0| not strictly decreasing: {sups}")
    table: dict = {}
    for row in _rows(out_dir, "bo_sweep.csv"):
        table[(float(row["kappa"]), float(row["x"]))] = float(row["delta_e0"])
    for (kap, x), d in table.items():
        mirror = table.get((kap, -x))
        if mirror is None or abs(mirror - d) > 1e-8 * max(sups):
            problems.append(f"delta_e0 not symmetric at kappa={kap}, x={x}")
    if ref:
        _close(sups, ref["sup_abs_delta"], 1e-6, "sup_abs_delta", problems)
        _close(rep["quadratic_fits"], ref["quadratic_fits"], 1e-6,
               "quadratic_fits", problems)
    return problems


def check_compare(out_dir, ref):
    problems = []
    rep = _load(out_dir, "compare.json")
    for name, col in rep["columns"].items():
        if "error" in col:
            problems.append(f"column {name}: {col['error']}")
            continue
        lv = col["levels_EC"]
        if not all(b > a for a, b in zip(lv, lv[1:])):
            problems.append(f"column {name}: levels not ascending")
        if ref:
            _close(lv, ref["levels_EC"][name], 1e-6, f"{name} levels",
                   problems, floor=1.0)
    for name in ("classical_reduced", "bo_extended"):
        ratio = rep["box_proxy"].get(name, {}).get("spacing_ratio")
        if ratio is None or abs(ratio - 0.5) > 0.05:
            problems.append(f"box proxy {name}: spacing ratio {ratio}")
        elif ref:
            _close(ratio, ref["spacing_ratio"][name], 1e-4,
                   f"{name} spacing ratio", problems)
    return problems


def check_spectra2d(out_dir, ref):
    problems = []
    levels: dict = {}
    for row in _rows(out_dir, "spectrum.csv"):
        if row["error"]:
            problems.append(f"error row: {row['error']}")
            continue
        levels.setdefault(row["basis"], []).append(
            float(row["energy_native"]))
    for basis in ("extended", "compact"):
        lv = levels.get(basis, [])
        if len(lv) != 4:
            problems.append(f"{basis}: {len(lv)} levels, expected 4")
        elif not all(b >= a for a, b in zip(lv, lv[1:])):
            problems.append(f"{basis}: levels not ascending")
        elif ref:
            _close(lv, ref["energy_native"][basis], 1e-6, f"{basis} levels",
                   problems, floor=1.0)
    return problems


def check_reduce(out_dir, ref):
    problems = []
    rep = _load(out_dir, "reduce_report.json")
    if rep["verdict"] != "multivalued":
        problems.append(f"verdict {rep['verdict']!r}")
    if rep["max_branches"] != 3:
        problems.append(f"max_branches {rep['max_branches']}")
    if abs(rep["beta_crit"] - 1.0) > 1e-10:
        problems.append(f"beta_crit {rep['beta_crit']!r}")
    counts = [int(r["branch_count"]) for r in _rows(out_dir, "branches.csv")]
    if not counts or any(c % 2 == 0 for c in counts):
        problems.append("even or missing root counts in branches.csv")
    return problems


def check_dynamics(out_dir, ref):
    problems = []
    rep = _load(out_dir, "dynamics_report.json")
    if not rep["energy_drift"] <= 1e-8:
        problems.append(f"energy drift {rep['energy_drift']!r}")
    if not rep["max_x_deviation"] < 0.05:
        problems.append(f"max |x| deviation {rep['max_x_deviation']!r}")
    rows = _rows(out_dir, "trajectory.csv")
    if len(rows) != rep["samples"]:
        problems.append(f"{len(rows)} trajectory rows, report says "
                        f"{rep['samples']}")
    if ref:
        _close(rep["max_x_deviation"], ref["max_x_deviation"], 1e-6,
               "max_x_deviation", problems)
        _close(rep["slow_period"], ref["slow_period"], 1e-12, "slow_period",
               problems)
    return problems


def check_foster(out_dir, ref, params):
    problems = []
    rep = _load(out_dir, "foster_report.json")
    model = params["foster_model"]
    if rep["reactance_slope_positive"] is not True:
        problems.append("reactance slope not positive")
    if not rep["rms_residual"] < 1e-6:
        problems.append(f"rms residual {rep['rms_residual']!r}")
    if rep["l_zero"] is not None:
        problems.append("spurious inductive branch")
    _close(rep["c_inf"], model["c_inf"], 1e-6, "c_inf", problems)
    _close(rep["resonances"], model["resonances"], 1e-6, "resonances",
           problems)
    return problems


def reference_values(workload: str, out_dirs: list) -> dict:
    """The values check_* compares against, read from one pass's outputs
    (used to write reference.json for the default seed)."""
    if workload == "bo_ladder":
        rep = _load(out_dirs[0], "bo_report.json")
        return {"sup_abs_delta": rep["sup_abs_delta"],
                "quadratic_fits": rep["quadratic_fits"]}
    if workload == "compare_routes":
        rep = _load(out_dirs[0], "compare.json")
        return {"levels_EC": {n: c["levels_EC"]
                              for n, c in rep["columns"].items()},
                "spacing_ratio": {n: e["spacing_ratio"]
                                  for n, e in rep["box_proxy"].items()}}
    if workload == "spectra2d":
        levels: dict = {}
        for row in _rows(out_dirs[0], "spectrum.csv"):
            levels.setdefault(row["basis"], []).append(
                float(row["energy_native"]))
        return {"energy_native": levels}
    rep = _load(out_dirs[1], "dynamics_report.json")
    return {"max_x_deviation": rep["max_x_deviation"],
            "slow_period": rep["slow_period"]}
