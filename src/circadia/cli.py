"""Batch command line front end.

Subcommands map one-to-one onto the library layers:

  reduce     effective potential of one circuit (branch table when multivalued)
  bo-sweep   Born-Oppenheimer potential over a kappa ladder, verdict line
  compare    three quantization routes side by side at one parameter point
  dynamics   leapfrog trajectory of the regularized two-mode circuit
  foster     lossless admittance fit, or evaluation, from CSV samples

Every run writes a manifest next to its outputs. Outputs carry no wall-clock
data, so rerunning a command on identical inputs reproduces every file byte
for byte. Exit codes: 0 success, 1 usage or input validation, 2 physical-
regime refusal, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.interpolate import CubicSpline

from . import __version__
from .constants import get_constants
from .dynamics import _slow_period, integrate, shadow_reduced_dynamics, \
    slow_manifold_residual
from .errors import CircadiaError, ConvergenceError, PhysicalRegimeError, \
    StructureMismatchError, ValidationError
from .foster import eval_admittance, fit_foster, read_admittance_csv, \
    reactance_slope, write_model_json, FosterModel
from .manifest import RunManifest
from .params import load_circuit, reduce as reduce_circuit
from .potentials import BiasedCosine, Cosine, Custom, PolynomialEven, \
    PotentialModel
from .reduction import branch_table, effective_potential
from .spectra import HamiltonianSpec, bo_effective_potential, bo_fast_ground, \
    eigenvalues_in_window, lowest_eigenvalues, naive_compact_adiabatic
from .svgplot import line_plot

TWO_PI = 2.0 * math.pi


class CliParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for physical refusal."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# shared loading helpers


def _potential_from_doc(spec) -> PotentialModel:
    if spec is None:
        return Cosine()
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        raise ValidationError("circuit 'potential' must be a string or object")
    kind = str(spec.get("kind", "cosine")).lower()
    if kind == "cosine":
        return Cosine()
    if kind == "biased_cosine":
        return BiasedCosine(float(spec.get("phi_ext", 0.0)))
    if kind == "quadratic":
        return PolynomialEven([0.0, 0.5 * float(spec.get("curvature", 1.0))])
    if kind == "polynomial_even":
        return PolynomialEven(spec.get("coeffs", [0.0, 0.5]))
    if kind == "custom_csv":
        if "path" not in spec:
            raise ValidationError("custom_csv potential needs a 'path'")
        return Custom.from_csv(str(spec["path"]))
    raise ValidationError(f"unknown potential kind {kind!r}")


def _load_circuit_bundle(path: str):
    si = load_circuit(path)
    rc, scales = reduce_circuit(si)
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    p = _potential_from_doc(doc.get("potential"))
    return si, rc, scales, p


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _new_manifest(command: str, args, parameters: dict) -> RunManifest:
    k = get_constants()
    parameters = dict(parameters)
    parameters["constants"] = {"hbar_Js": k.hbar, "e_C": k.e}
    m = RunManifest(command=command, version=__version__,
                    parameters=parameters)
    if getattr(args, "circuit", None):
        m.add_input(args.circuit)
    if getattr(args, "input", None):
        m.add_input(args.input)
    if getattr(args, "model", None):
        m.add_input(args.model)
    return m


def _finish(manifest: RunManifest, out: str, outputs: list[str]) -> None:
    manifest.outputs = [os.path.basename(o) for o in outputs]
    manifest.write(os.path.join(out, "manifest.json"))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    si, rc, scales, p = _load_circuit_bundle(args.circuit)
    out = _outdir(args)
    basis = "ExtendedX" if args.basis == "extended" else "CompactPhi"
    manifest = _new_manifest("reduce", args, {
        "basis": basis, "grid": args.grid,
        "kappa": rc.kappa, "xi": rc.xi, "lambdaJ": rc.lambdaJ,
        "beta": rc.beta, "ng": rc.ng})
    try:
        pot = effective_potential(p, rc, basis, args.grid)
    except PhysicalRegimeError as exc:
        beta_crit = exc.context.get("beta_crit", float("nan"))
        coords, rows = branch_table(p, rc, basis, args.grid)
        branch_path = os.path.join(out, "branches.csv")
        name = "x" if basis == "ExtendedX" else "phi"
        with open(branch_path, "w", encoding="utf-8") as f:
            f.write(f"# units: coordinate={name} (dimensionless), V,Vp,Vpp in "
                    "E_C units; one row per branch\n")
            f.write("coordinate,V,Vp,Vpp,branch_count\n")
            for c, V, Vp, Vpp, count in rows:
                f.write(f"{c!r},{V!r},{Vp!r},{Vpp!r},{count}\n")
        report = {
            "verdict": "multivalued",
            "beta": rc.beta, "beta_crit": beta_crit,
            "max_branches": max((r[4] for r in rows), default=0),
        }
        report_path = os.path.join(out, "reduce_report.json")
        _write_json(report_path, report)
        _finish(manifest, out, [branch_path, report_path])
        print(f"multivalued: beta={rc.beta:.6g} >= beta_crit={beta_crit:.6g}; "
              "branch table written")
        return 2
    pot_path = os.path.join(out, "potential.csv")
    pot.to_csv(pot_path)
    svg_path = os.path.join(out, "potential.svg")
    name = "x" if basis == "ExtendedX" else "phi"
    line_plot(svg_path, [("V", pot.coordinates, pot.V),
                         ("Vpp", pot.coordinates, pot.Vpp)],
              xlabel=name, ylabel="E_C units",
              title="effective potential (single branch)")
    report = {
        "verdict": "single-valued",
        "beta": rc.beta, "beta_crit": pot.meta["beta_crit"],
        "minima": [[loc, curv] for loc, curv in pot.minima],
        "basis": basis,
    }
    report_path = os.path.join(out, "reduce_report.json")
    _write_json(report_path, report)
    _finish(manifest, out, [pot_path, svg_path, report_path])
    print(f"single-valued: beta={rc.beta:.6g} < "
          f"beta_crit={pot.meta['beta_crit']:.6g}; {len(pot.minima)} minima")
    return 0


# ---------------------------------------------------------------------------
# bo-sweep


def _parse_ladder(text: str) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"bad kappa ladder {text!r}")
    return np.asarray(vals, dtype=float)


def cmd_bo_sweep(args) -> int:
    si, rc, scales, p = _load_circuit_bundle(args.circuit)
    out = _outdir(args)
    kappas = _parse_ladder(args.kappa_ladder)
    xs = np.linspace(args.x_min, args.x_max, args.x_points)
    manifest = _new_manifest("bo-sweep", args, {
        "kappa_ladder": [float(v) for v in kappas],
        "x_min": args.x_min, "x_max": args.x_max, "x_points": args.x_points,
        "grid": args.grid, "jobs": args.jobs,
        "xi": rc.xi, "lambdaJ": rc.lambdaJ})
    kw = dict(n=args.grid) if args.grid else {}
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            table = bo_effective_potential(kappas, xs, p, rc.xi, rc.lambdaJ,
                                           map_fn=pool.map, **kw)
    else:
        table = bo_effective_potential(kappas, xs, p, rc.xi, rc.lambdaJ, **kw)

    fits = table.quadratic_fit()
    # 1e-8 sits above the fast-solver noise floor (~1e-10 on e0) and far
    # below any physical delta_e0 scale.
    sup_scale = float(np.max(np.abs(table.delta)))
    if sup_scale < 1e-8:
        verdict = "decreasing"
        qualifier = " (identically zero)"
    else:
        stabilized = all(
            abs(b - a) <= 0.1 * max(abs(a), abs(b))
            for a, b in zip(fits, fits[1:]))
        if stabilized and abs(fits[-1]) > 1e-9:
            verdict = "converges-nonzero"
            qualifier = ""
        else:
            verdict = table.verdict
            qualifier = ""

    csv_path = os.path.join(out, "bo_sweep.csv")
    table.to_sweep_table().to_csv(csv_path)
    svg_path = os.path.join(out, "bo_sweep.svg")
    line_plot(svg_path,
              [(f"kappa={kap:g}", table.xs, table.U[i])
               for i, kap in enumerate(table.kappas)],
              xlabel="x", ylabel="U = delta_e0/kappa^2 (hbar*omega_C units)",
              title="Born-Oppenheimer effective potential")
    report = {
        "verdict": verdict,
        "sup_abs_delta": [float(v) for v in table.sup_abs],
        "quadratic_fits": [float(v) for v in fits],
        "kappas": [float(v) for v in table.kappas],
    }
    report_path = os.path.join(out, "bo_report.json")
    _write_json(report_path, report)
    _finish(manifest, out, [csv_path, svg_path, report_path])
    print(f"verdict: {verdict}{qualifier}")
    for kap, s, a in zip(table.kappas, table.sup_abs, fits):
        print(f"  kappa={kap:g}: sup|delta_e0|={s:.6g}  curvature_fit={a:.6g}")
    return 0


# ---------------------------------------------------------------------------
# compare


def _wrap_pi(phi: np.ndarray) -> np.ndarray:
    return (phi + math.pi) % TWO_PI - math.pi


def _bo_column_potential(rc, p, n_samples: int = 41):
    """xi * U_BO(sqrt(xi)*phi) as a callable of phi, E_C units."""
    phis = np.linspace(-math.pi, math.pi, n_samples)
    e = np.array([bo_fast_ground(rc.kappa, rc.xi, rc.lambdaJ, p,
                                 float(math.sqrt(rc.xi) * phi))
                  for phi in phis])
    u = (e - e[(n_samples - 1) // 2]) / rc.kappa**2
    periodic = p.is_periodic and abs(p.period - TWO_PI) < 1e-12
    if periodic:
        u[-1] = u[0]
        spline = CubicSpline(phis, u, bc_type="periodic")

        def v(q):
            return rc.xi * spline(_wrap_pi(np.asarray(q, dtype=float)))
    else:
        spline = CubicSpline(phis, u)

        def v(q):
            return rc.xi * spline(np.asarray(q, dtype=float))
    return v, periodic


def _ladder_stats(levels: np.ndarray) -> dict:
    spacings = np.diff(levels)
    return {
        "levels_EC": [float(v) for v in levels],
        "spacings_EC": [float(v) for v in spacings],
        "mean_spacing_EC": float(np.mean(spacings)) if spacings.size else None,
    }


def _box_proxy(make_spec, vmax: float) -> dict:
    """Mean level spacing in a fixed window for two box lengths."""
    lo, hi = vmax + 1.0, vmax + 5.0
    entry: dict = {"window_EC": [lo, hi]}
    spacings = []
    for label, L in (("L", 10.0 * math.pi), ("2L", 20.0 * math.pi)):
        n = int(round(2.0 * L / 0.02)) + 1
        w = eigenvalues_in_window(make_spec(L, n), lo, hi).eigenvalues
        if w.size < 2:
            entry[label] = {"half_width": L, "error": "fewer than 2 levels"}
            spacings.append(None)
            continue
        s = float(np.mean(np.diff(w)))
        entry[label] = {"half_width": L, "levels_in_window": int(w.size),
                        "mean_spacing_EC": s}
        spacings.append(s)
    if None not in spacings and spacings[0]:
        entry["spacing_ratio"] = spacings[1] / spacings[0]
    return entry


def cmd_compare(args) -> int:
    si, rc, scales, p = _load_circuit_bundle(args.circuit)
    out = _outdir(args)
    nphi = args.grid
    k = 3
    manifest = _new_manifest("compare", args, {
        "grid": nphi, "charge_half_factor": args.charge_half_factor,
        "kappa": rc.kappa, "xi": rc.xi, "lambdaJ": rc.lambdaJ,
        "beta": rc.beta, "ng": rc.ng})
    columns: dict = {}

    # Column A: quantize the classically reduced single branch,
    # H/E_C = (1/2) n_phi^2 + V(phi).
    pot = None
    try:
        pot = effective_potential(p, rc, "CompactPhi",
                                  np.linspace(-math.pi, math.pi, nphi))
        resA = lowest_eigenvalues(
            HamiltonianSpec(variant="Extended1D", effective=pot, c_kin=0.5),
            k)
        columns["classical_reduced"] = _ladder_stats(resA.eigenvalues)
    except CircadiaError as exc:
        columns["classical_reduced"] = {
            "error": f"{type(exc).__name__}: {exc}"}

    # Column B: quantize the Born-Oppenheimer potential of the extended
    # two-mode model, H/E_C = (1/2) n_phi^2 + xi*U_BO(sqrt(xi)*phi).
    v_bo = None
    bo_periodic = False
    try:
        if rc.kappa <= 0:
            raise ValidationError("BO column needs kappa > 0")
        v_bo, bo_periodic = _bo_column_potential(rc, p)
        resB = lowest_eigenvalues(
            HamiltonianSpec(variant="Extended1D", v_func=v_bo, c_kin=0.5,
                            grid={"half_width": math.pi, "n": nphi}),
            k)
        columns["bo_extended"] = _ladder_stats(resB.eigenvalues)
    except CircadiaError as exc:
        columns["bo_extended"] = {"error": f"{type(exc).__name__}: {exc}"}

    # Column C: the naive compact adiabatic ladder, converted E'_C -> E_C.
    try:
        if rc.kappa <= 0:
            raise ValidationError("compact column needs kappa > 0")
        nas = naive_compact_adiabatic(
            rc.kappa, rc.xi, rc.ng, k,
            charge_half_factor=args.charge_half_factor)
        columns["compact_naive_adiabatic"] = _ladder_stats(
            nas.numerical / rc.kappa**4)
        columns["compact_naive_adiabatic"]["formula_EC"] = [
            float(v) / rc.kappa**4 for v in nas.formula]
    except CircadiaError as exc:
        columns["compact_naive_adiabatic"] = {
            "error": f"{type(exc).__name__}: {exc}"}

    # Continuum proxy: the extended pair densifies in a fixed window as the
    # box doubles; the compact ladder stays discrete by construction.
    proxy: dict = {}
    if pot is not None and p.is_periodic and abs(p.period - TWO_PI) < 1e-12:
        try:
            vmaxA = float(np.max(pot.V))
            proxy["classical_reduced"] = _box_proxy(
                lambda L, n: HamiltonianSpec(
                    variant="Extended1D",
                    effective=effective_potential(
                        p, rc, "CompactPhi", np.linspace(-L, L, n)),
                    c_kin=0.5),
                vmaxA)
        except CircadiaError as exc:
            proxy["classical_reduced"] = {
                "error": f"{type(exc).__name__}: {exc}"}
    if v_bo is not None and bo_periodic:
        try:
            phis = np.linspace(-math.pi, math.pi, 721)
            vmaxB = float(np.max(v_bo(phis)))
            proxy["bo_extended"] = _box_proxy(
                lambda L, n: HamiltonianSpec(
                    variant="Extended1D", v_func=v_bo, c_kin=0.5,
                    grid={"half_width": L, "n": n}),
                vmaxB)
        except CircadiaError as exc:
            proxy["bo_extended"] = {"error": f"{type(exc).__name__}: {exc}"}

    report = {
        "columns": columns,
        "box_proxy": proxy,
        "parameters": {"kappa": rc.kappa, "xi": rc.xi,
                       "lambdaJ": rc.lambdaJ, "beta": rc.beta, "ng": rc.ng},
        "notes": [
            "columns use H/E_C = (1/2) n_phi^2 + V(phi) for the extended "
            "pair; the compact column is the kappa^4-scaled slow ladder",
            "the extended pair's spacing follows sqrt(lambdaJ/(1+beta)); "
            "the compact ladder depends only on xi and the charge "
            "convention",
        ],
    }
    report_path = os.path.join(out, "compare.json")
    _write_json(report_path, report)

    csv_path = os.path.join(out, "compare.csv")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("# units: energies in E_C units\n")
        f.write("column,level,energy_EC,spacing_EC\n")
        for name, data in columns.items():
            if "error" in data:
                f.write(f'"{name}",-1,nan,nan\n')
                continue
            lv = data["levels_EC"]
            sp = [float("nan")] + data["spacings_EC"]
            for i, (e, s) in enumerate(zip(lv, sp)):
                f.write(f'"{name}",{i},{e!r},{s!r}\n')
    svg_path = os.path.join(out, "compare.svg")
    series = []
    for name, data in columns.items():
        if "error" not in data:
            lv = data["levels_EC"]
            series.append((name, np.arange(len(lv)),
                           np.asarray(lv) - lv[0]))
    line_plot(svg_path, series, xlabel="level index",
              ylabel="E - E0 (E_C units)", title="three quantization routes")

    _finish(manifest, out, [report_path, csv_path, svg_path])
    for name, data in columns.items():
        if "error" in data:
            print(f"{name}: FAILED {data['error']}")
        else:
            print(f"{name}: mean spacing "
                  f"{data['mean_spacing_EC']:.6g} E_C")
    for name, entry in proxy.items():
        if "spacing_ratio" in entry:
            print(f"box proxy {name}: spacing ratio {entry['spacing_ratio']:.3f} "
                  "(continuum limit halves it)")
    return 0


# ---------------------------------------------------------------------------
# dynamics


def cmd_dynamics(args) -> int:
    si, rc, scales, p = _load_circuit_bundle(args.circuit)
    out = _outdir(args)
    if args.t_end is not None:
        t_end = args.t_end
    else:
        t_end = 2.0 * _slow_period(rc)
    manifest = _new_manifest("dynamics", args, {
        "x0": args.x0, "px0": args.px0, "y0": args.y0, "py0": args.py0,
        "t_end": t_end, "dt": args.dt, "report": args.report,
        "kappa": rc.kappa, "xi": rc.xi, "lambdaJ": rc.lambdaJ})
    if args.y0 is not None:
        y0 = args.y0
    else:
        from .dynamics import manifold_eta
        y0 = rc.kappa * float(manifold_eta(rc, p, np.array([args.x0]))[0])
    py0 = args.py0 if args.py0 is not None else 0.0

    record = integrate(rc, p, (args.x0, args.px0, y0, py0), t_end,
                       dt=args.dt)
    csv_path = os.path.join(out, "trajectory.csv")
    record.to_csv(csv_path)
    svg_path = os.path.join(out, "trajectory.svg")
    line_plot(svg_path,
              [("x", record.times, record.states[:, 0]),
               ("y", record.times, record.states[:, 2])],
              xlabel="t (1/omega_C)", ylabel="coordinate",
              title="regularized trajectory")
    report = {"energy_drift": record.energy_drift,
              "dt": record.dt, "t_end": t_end,
              "samples": int(record.times.size)}
    outputs = [csv_path, svg_path]
    if args.report == "residual":
        y_res, py_res = slow_manifold_residual(rc, p, args.x0, dt=args.dt)
        report["y_residual"] = y_res
        report["py_residual"] = py_res
    elif args.report == "shadow":
        cmp_ = shadow_reduced_dynamics(rc, p, args.x0, args.px0, dt=args.dt)
        report["max_x_deviation"] = cmp_.max_deviation
        report["slow_period"] = cmp_.slow_period
    report_path = os.path.join(out, "dynamics_report.json")
    _write_json(report_path, report)
    outputs.append(report_path)
    _finish(manifest, out, outputs)
    print(f"energy drift {record.energy_drift:.3e} over t_end={t_end:.6g}")
    if "y_residual" in report:
        print(f"slow-manifold residuals: y {report['y_residual']:.3e}, "
              f"p_y {report['py_residual']:.3e}")
    if "max_x_deviation" in report:
        print(f"full-vs-reduced max |x| deviation "
              f"{report['max_x_deviation']:.3e}")
    return 0


# ---------------------------------------------------------------------------
# foster


def _model_from_json(path: str) -> FosterModel:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"model file {path} is not JSON: {exc}")
    try:
        return FosterModel(
            c_inf=float(doc["c_inf"]),
            resonances=tuple((float(L), float(om))
                             for L, om in doc.get("resonances", [])),
            l_zero=(None if doc.get("l_zero") is None
                    else float(doc["l_zero"])))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad model file {path}: {exc}")


def _masked_curve(model: FosterModel, omega: np.ndarray) -> np.ndarray:
    """Im Y with NaN at samples too close to a pole (plot-safe)."""
    vals = np.full(omega.size, np.nan)
    ok = np.ones(omega.size, dtype=bool)
    for _, om in model.resonances:
        ok &= np.abs(omega - om) > 1e-3 * om
    if np.any(ok):
        vals[ok] = eval_admittance(model, omega[ok]).imag
    return vals


def cmd_foster(args) -> int:
    out = _outdir(args)
    if args.model:
        model = _model_from_json(args.model)
        manifest = _new_manifest("foster", args, {
            "mode": "eval", "omega_min": args.omega_min,
            "omega_max": args.omega_max, "points": args.points})
        omega = np.linspace(args.omega_min, args.omega_max, args.points)
        vals = _masked_curve(model, omega)
        csv_path = os.path.join(out, "admittance.csv")
        with open(csv_path, "w", encoding="utf-8") as f:
            f.write("# units: omega and Im Y in the model's input units; "
                    "NaN rows sit inside a pole margin\n")
            f.write("omega,ImY\n")
            for w, v in zip(omega, vals):
                f.write(f"{float(w)!r},{float(v)!r}\n")
        svg_path = os.path.join(out, "admittance.svg")
        line_plot(svg_path, [("Im Y", omega, vals)], xlabel="omega",
                  ylabel="Im Y", title="Foster admittance")
        _finish(manifest, out, [csv_path, svg_path])
        print(f"evaluated {args.points} samples on "
              f"[{args.omega_min:g}, {args.omega_max:g}]")
        return 0

    if not args.input:
        raise ValidationError("foster needs --input samples.csv or --model")
    samples = read_admittance_csv(args.input)
    manifest = _new_manifest("foster", args, {
        "mode": "fit", "resonances": args.resonances})
    model, report = fit_foster(samples, args.resonances)
    model_path = os.path.join(out, "foster_model.json")
    write_model_json(model_path, model, report)

    omega = samples[:, 0]
    dense = np.linspace(float(omega.min()), float(omega.max()), 600)
    curve = _masked_curve(model, dense)
    svg_path = os.path.join(out, "foster_fit.svg")
    line_plot(svg_path,
              [("data", omega, samples[:, 1]), ("fit", dense, curve)],
              xlabel="omega", ylabel="Im Y", title="Foster fit")

    probe = np.linspace(float(omega.min()), float(omega.max()), 10_000)
    mask = np.ones(probe.size, dtype=bool)
    for _, om in model.resonances:
        mask &= np.abs(probe - om) > 1e-6 * om
    slope_ok = bool(np.all(reactance_slope(model, probe[mask]) > 0.0))

    summary = {
        "rms_residual": report.rms_residual,
        "c_inf": model.c_inf,
        "l_zero": model.l_zero,
        "resonances": [[L, om] for L, om in model.resonances],
        "reactance_slope_positive": slope_ok,
    }
    summary_path = os.path.join(out, "foster_report.json")
    _write_json(summary_path, summary)
    _finish(manifest, out, [model_path, svg_path, summary_path])
    print(f"fit rms residual {report.rms_residual:.3e}; "
          f"{len(model.resonances)} resonance(s); "
          f"reactance slope positive: {slope_ok}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> CliParser:
    parser = CliParser(prog="circadia",
                       description="nearly singular circuit laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def add_common(sp, circuit=True):
        if circuit:
            sp.add_argument("--circuit", required=True,
                            help="circuit descriptor JSON")
        sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("reduce", help="effective potential of one circuit",
                        parents=[], add_help=True)
    add_common(sp)
    sp.add_argument("--basis", choices=("compact", "extended"),
                    default="compact")
    sp.add_argument("--grid", type=int, default=1024)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("bo-sweep",
                        help="Born-Oppenheimer potential over a kappa ladder")
    add_common(sp)
    sp.add_argument("--kappa-ladder", required=True,
                    help="comma list, strictly decreasing, e.g. 0.6,0.45,0.3")
    sp.add_argument("--x-min", type=float, default=-3.0)
    sp.add_argument("--x-max", type=float, default=3.0)
    sp.add_argument("--x-points", type=int, default=21)
    sp.add_argument("--grid", type=int, default=0,
                    help="fast-axis points (0 = auto)")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(func=cmd_bo_sweep)

    sp = sub.add_parser("compare",
                        help="three quantization routes side by side")
    add_common(sp)
    sp.add_argument("--grid", type=int, default=2048,
                    help="phi-axis points for the extended pair")
    sp.add_argument("--charge-half-factor", action="store_true")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("dynamics", help="leapfrog trajectory")
    add_common(sp)
    sp.add_argument("--x0", type=float, default=1.0)
    sp.add_argument("--px0", type=float, default=0.0)
    sp.add_argument("--y0", type=float, default=None,
                    help="default: on the slow manifold")
    sp.add_argument("--py0", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=None,
                    help="default: two slow periods")
    sp.add_argument("--dt", type=float, default=2e-4)
    sp.add_argument("--report", choices=("none", "residual", "shadow"),
                    default="none")
    sp.set_defaults(func=cmd_dynamics)

    sp = sub.add_parser("foster", help="lossless admittance fit or eval")
    add_common(sp, circuit=False)
    sp.add_argument("--input", help="CSV of (omega, Im Y) samples")
    sp.add_argument("--resonances", type=int, default=1)
    sp.add_argument("--model", help="evaluate this model JSON instead")
    sp.add_argument("--omega-min", type=float, default=0.1)
    sp.add_argument("--omega-max", type=float, default=10.0)
    sp.add_argument("--points", type=int, default=200)
    sp.set_defaults(func=cmd_foster)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except PhysicalRegimeError as exc:
        extras = " ".join(f"{k}={v:.6g}" for k, v in exc.context.items())
        print(f"refused (physical regime): {exc} {extras}".rstrip(),
              file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, StructureMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
