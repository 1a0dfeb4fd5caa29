"""Batch command line front end.

Subcommands map one-to-one onto the library layers:

  reduce     effective potential of one circuit (branch table when multivalued)
  bo-sweep   Born-Oppenheimer potential over a kappa ladder, verdict line
  compare    three quantization routes side by side at one parameter point
  dynamics   leapfrog trajectory of the regularized two-mode circuit
  foster     lossless admittance fit, or evaluation, from CSV samples

Every run writes a manifest next to its outputs. A command computes first
and then writes --out in one step, so --out is created only when the run
has something to write: a run that exits 1, 2 or 3 leaves none, except
reduce past the fold, whose exit 2 writes its branch table and report.
Outputs carry no wall-clock data, so rerunning a command on identical
inputs reproduces every file byte for byte. Exit codes: 0 success, 1 usage
or input validation, 2 physical-regime refusal, 3 numerical
non-convergence.

Only bo-sweep and compare diagonalize; they import circadia.spectra, and
with it scipy's eigensolvers, when they run, so the other commands start
without scipy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .constants import get_constants
from .dynamics import _manifold_y0, _residual_span, _slow_period, \
    integrate, shadow_reduced_dynamics, slow_manifold_residual
from .errors import CircadiaError, ConvergenceError, PhysicalRegimeError, \
    StructureMismatchError, ValidationError
from .foster import FosterModel, clear_of_poles, eval_admittance, \
    fit_foster, reactance_slope, read_admittance_csv, read_model_json, \
    write_model_json
from .manifest import RunManifest
from .params import read_circuit
from .potentials import CubicSpline, PotentialModel, _two_pi_periodic
from .reduction import _reduced_branch, branch_table, effective_potential, \
    write_potential_csv
from .svgplot import line_plot
from .sweeps import float_rows, write_csv, write_json


class CliParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for physical refusal."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# shared loading helpers


def _check_flags(args, finite=(), at_least=()) -> None:
    """Refuse, before any work, a flag of `finite` that is set but not
    finite, and a flag of the (flag, low) pairs `at_least` below low."""
    for flag in finite:
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise ValidationError(
                f"--{flag.replace('_', '-')} must be finite, got {value}")
    for flag, low in at_least:
        value = getattr(args, flag)
        if value < low:
            raise ValidationError(
                f"--{flag.replace('_', '-')} must be >= {low}, got {value}")


def _new_manifest(command: str, args, parameters: dict,
                  p: PotentialModel | None = None) -> RunManifest:
    """Manifest with every input file hashed: the files named by the
    arguments and the table a potential was read from."""
    k = get_constants()
    parameters = dict(parameters)
    parameters["constants"] = {"hbar_Js": k.hbar, "e_C": k.e}
    m = RunManifest(command=command, version=__version__,
                    parameters=parameters)
    for name in ("circuit", "input", "model"):
        if getattr(args, name, None):
            m.add_input(getattr(args, name))
    if p is not None and p.source:
        m.add_input(p.source)
    return m


def _write_run(out: str, manifest: RunManifest, files: dict) -> None:
    """Write a computed run into the directory out: files maps each output
    name, in order, to a writer called with the file's path. The manifest
    lists those names and is written last. A command calls this once, after
    its work has succeeded, so a refused run leaves no directory behind."""
    os.makedirs(out, exist_ok=True)
    for name, write in files.items():
        write(os.path.join(out, name))
    manifest.outputs = list(files)
    manifest.write(os.path.join(out, "manifest.json"))


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    rc, p = read_circuit(args.circuit)
    basis = "ExtendedX" if args.basis == "extended" else "CompactPhi"
    manifest = _new_manifest("reduce", args, {
        "basis": basis, "grid": args.grid,
        "kappa": rc.kappa, "xi": rc.xi, "lambdaJ": rc.lambdaJ,
        "beta": rc.beta, "ng": rc.ng}, p)
    try:
        pot = effective_potential(p, rc, basis, args.grid)
    except PhysicalRegimeError as exc:
        beta_crit = exc.context.get("beta_crit", float("nan"))
        _, rows = branch_table(p, rc, basis, args.grid)
        report = {
            "verdict": "multivalued",
            "beta": rc.beta, "beta_crit": beta_crit,
            "max_branches": max((r[4] for r in rows), default=0),
        }
        _write_run(args.out, manifest, {
            "branches.csv": lambda path: write_potential_csv(
                path, basis, rows, note="; one row per branch"),
            "reduce_report.json": lambda path: write_json(path, report)})
        print(f"multivalued: beta={rc.beta:.6g} >= beta_crit={beta_crit:.6g}; "
              "branch table written")
        return 2
    name = "x" if basis == "ExtendedX" else "phi"
    report = {
        "verdict": "single-valued",
        "beta": rc.beta, "beta_crit": pot.meta["beta_crit"],
        "minima": [[loc, curv] for loc, curv in pot.minima],
        "basis": basis,
    }
    _write_run(args.out, manifest, {
        "potential.csv": pot.to_csv,
        "potential.svg": lambda path: line_plot(
            path, [("V", pot.coordinates, pot.V),
                   ("Vpp", pot.coordinates, pot.Vpp)],
            xlabel=name, ylabel="E_C units",
            title="effective potential (single branch)"),
        "reduce_report.json": lambda path: write_json(path, report)})
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
    _check_flags(args, finite=("x_min", "x_max"),
                 at_least=(("x_points", 1), ("grid", 0), ("jobs", 1)))
    rc, p = read_circuit(args.circuit)
    kappas = _parse_ladder(args.kappa_ladder)
    xs = np.linspace(args.x_min, args.x_max, args.x_points)
    manifest = _new_manifest("bo-sweep", args, {
        "kappa_ladder": [float(v) for v in kappas],
        "x_min": args.x_min, "x_max": args.x_max, "x_points": args.x_points,
        "grid": args.grid, "jobs": args.jobs,
        "xi": rc.xi, "lambdaJ": rc.lambdaJ}, p)
    kw = dict(n=args.grid) if args.grid else {}
    from . import spectra
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            table = spectra.bo_effective_potential(
                kappas, xs, p, rc.xi, rc.lambdaJ, map_fn=pool.map, **kw)
    else:
        table = spectra.bo_effective_potential(kappas, xs, p, rc.xi,
                                               rc.lambdaJ, **kw)

    fits = table.quadratic_fit()
    report = {
        "verdict": table.verdict,
        "sup_abs_delta": [float(v) for v in table.sup_abs],
        "quadratic_fits": [float(v) for v in fits],
        "kappas": [float(v) for v in table.kappas],
    }
    _write_run(args.out, manifest, {
        "bo_sweep.csv": table.to_sweep_table().to_csv,
        "bo_sweep.svg": lambda path: line_plot(
            path, [(f"kappa={kap:g}", table.xs, table.U[i])
                   for i, kap in enumerate(table.kappas)],
            xlabel="x", ylabel="U = delta_e0/kappa^2 (hbar*omega_C units)",
            title="Born-Oppenheimer effective potential"),
        "bo_report.json": lambda path: write_json(path, report)})
    print(f"verdict: {table.verdict}"
          + (" (identically zero)" if table.vanishing else ""))
    for kap, s, a in zip(table.kappas, table.sup_abs, fits):
        print(f"  kappa={kap:g}: sup|delta_e0|={s:.6g}  curvature_fit={a:.6g}")
    return 0


# ---------------------------------------------------------------------------
# compare


def _ladder_stats(levels: np.ndarray) -> dict:
    spacings = np.diff(levels)
    return {
        "levels_EC": [float(v) for v in levels],
        "spacings_EC": [float(v) for v in spacings],
        "mean_spacing_EC": float(np.mean(spacings)) if spacings.size else None,
    }


def _box_proxy(v, vmax: float) -> dict:
    """Level count and mean level spacing of (1/2) n_phi^2 + v(phi) in a
    fixed window for two box lengths, v sampled on each box's axis. The
    mean of the N - 1 spacings telescopes to (last - first) / (N - 1), so
    the certified count and the two end levels suffice."""
    from . import spectra
    lo, hi = vmax + 1.0, vmax + 5.0
    entry: dict = {"window_EC": [lo, hi]}
    spacings = []
    for label, L in (("L", 10.0 * math.pi), ("2L", 20.0 * math.pi)):
        q, h = spectra._box_axis(L, int(round(2.0 * L / 0.02)) + 1)
        count, first, last = spectra._window_ends(v(q), h, 0.5, lo, hi)
        entry[label] = {"half_width": L, "error": "fewer than 2 levels"}
        if count >= 2:
            entry[label] = {"half_width": L, "levels_in_window": count,
                            "mean_spacing_EC": (last - first) / (count - 1)}
        spacings.append(entry[label].get("mean_spacing_EC"))
    if None not in spacings and spacings[0]:
        entry["spacing_ratio"] = spacings[1] / spacings[0]
    return entry


# A compare route quantizes one Hamiltonian at the circuit's point and
# returns (column, box): the column's lowest levels in E_C units, and for an
# extended route (v, vmax) for its box proxy, else None.


def _extended_pair(v, n: int, vmax_nodes: int):
    """The route of H/E_C = (1/2) n_phi^2 + v(phi): its three lowest levels
    on n box nodes over [-pi, pi], and for the box proxy v with vmax, the
    largest v on `vmax_nodes` box nodes there."""
    from . import spectra
    q, h = spectra._box_axis(math.pi, n)
    sampled = v(q)
    levels = spectra._solve_banded(sampled, h, 0.5, 3)[0]
    if vmax_nodes != n:
        sampled = v(spectra._box_axis(math.pi, vmax_nodes)[0])
    return _ladder_stats(levels), (v, float(np.max(sampled)))


def _classical_reduced(rc, p, args):
    """The classically reduced single branch, V(phi) sampled without
    effective_potential's minima, which compare never writes."""
    return _extended_pair(lambda q: _reduced_branch(p, rc, "CompactPhi", q)[2],
                          args.grid, args.grid)


def _bo_extended(rc, p, args):
    """The Born-Oppenheimer potential of the extended two-mode model,
    V(phi) = xi*U_BO(sqrt(xi)*phi), splined through the fast ground energy
    at 41 phi on [-pi, pi]."""
    from . import spectra
    phis = np.linspace(-math.pi, math.pi, 41)
    # bo-sweep's rung: one continuation chain from phi = 0
    u = spectra._bo_delta(rc.kappa, rc.xi, rc.lambdaJ, p,
                          math.sqrt(rc.xi) * phis) / rc.kappa**2
    periodic = _two_pi_periodic(p)
    if periodic:
        u[-1] = u[0]
    spline = CubicSpline(phis, u, "periodic" if periodic else "not-a-knot")
    # a periodic spline maps q into [-pi, pi] itself
    return _extended_pair(lambda q: rc.xi * spline(q), args.grid, 721)


def _compact_naive_adiabatic(rc, p, args):
    """The naive compact adiabatic ladder, converted E'_C -> E_C."""
    from . import spectra
    nas = spectra.naive_compact_adiabatic(
        rc.kappa, rc.xi, rc.ng, 3, charge_half_factor=args.charge_half_factor)
    column = _ladder_stats(nas.numerical / rc.kappa**4)
    column["formula_EC"] = [float(v) / rc.kappa**4 for v in nas.formula]
    return column, None


_COMPARE_ROUTES = (("classical_reduced", _classical_reduced),
                   ("bo_extended", _bo_extended),
                   ("compact_naive_adiabatic", _compact_naive_adiabatic))


def _failed(exc: CircadiaError) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def cmd_compare(args) -> int:
    _check_flags(args, at_least=(("grid", 128),))
    rc, p = read_circuit(args.circuit)
    manifest = _new_manifest("compare", args, {
        "grid": args.grid, "charge_half_factor": args.charge_half_factor,
        "kappa": rc.kappa, "xi": rc.xi, "lambdaJ": rc.lambdaJ,
        "beta": rc.beta, "ng": rc.ng}, p)
    # Continuum proxy: the extended pair densifies in a fixed window as the
    # box doubles; the compact ladder stays discrete by construction.
    periodic = _two_pi_periodic(p)
    columns: dict = {}
    proxy: dict = {}
    # compare.csv quotes every label, which write_csv does only when it must
    rows = ["# units: energies in E_C units\n",
            "column,level,energy_EC,spacing_EC\n"]
    series = []
    for name, route in _COMPARE_ROUTES:
        try:
            columns[name], box = route(rc, p, args)
        except CircadiaError as exc:
            columns[name] = _failed(exc)
            rows.append(f'"{name}",-1,nan,nan\n')
            continue
        if box is not None and periodic:
            try:
                proxy[name] = _box_proxy(*box)
            except CircadiaError as exc:
                proxy[name] = _failed(exc)
        lv = columns[name]["levels_EC"]
        sp = [float("nan")] + columns[name]["spacings_EC"]
        rows.extend(f'"{name}",{i},{e!r},{s!r}\n'
                    for i, (e, s) in enumerate(zip(lv, sp)))
        series.append((name, np.arange(len(lv)), np.asarray(lv) - lv[0]))

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

    def write_rows(path):
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(rows)
    _write_run(args.out, manifest, {
        "compare.json": lambda path: write_json(path, report),
        "compare.csv": write_rows,
        "compare.svg": lambda path: line_plot(
            path, series, xlabel="level index",
            ylabel="E - E0 (E_C units)", title="three quantization routes")})
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
    _check_flags(args, finite=("x0", "px0", "y0", "py0", "t_end", "dt"))
    rc, p = read_circuit(args.circuit)
    # the default horizon and the shadow report need a finite slow period:
    # refused at kappa = 0 and lambdaJ = 0 before any step
    if args.t_end is None or args.report == "shadow":
        period = _slow_period(rc)
    t_end = args.t_end if args.t_end is not None else 2.0 * period
    manifest = _new_manifest("dynamics", args, {
        "x0": args.x0, "px0": args.px0, "y0": args.y0, "py0": args.py0,
        "t_end": t_end, "dt": args.dt, "report": args.report,
        "kappa": rc.kappa, "xi": rc.xi, "lambdaJ": rc.lambdaJ}, p)
    # the residual probe's supercritical refusal comes before any step,
    # also when --y0 is given
    y0 = args.y0
    if y0 is None or args.report == "residual":
        y_manifold = _manifold_y0(rc, p, args.x0, "slow manifold")
        y0 = y_manifold if y0 is None else y0
    py0 = args.py0 if args.py0 is not None else 0.0

    report = {}
    # the residual probe's refusals (kappa = 0, t_end inside the transient)
    # come before any step; it measures its on-manifold trajectory over
    # --t-end, which is this one when px0, y0 and py0 are the defaults
    if args.report == "residual":
        _residual_span(rc, args.t_end)
    record = integrate(rc, p, (args.x0, args.px0, y0, py0), t_end,
                       dt=args.dt)
    if args.report == "residual":
        report["y_residual"], report["py_residual"] = slow_manifold_residual(
            rc, p, args.x0, t_end=args.t_end, dt=args.dt, full=record)
    report.update(energy_drift=record.energy_drift, dt=record.dt,
                  t_end=t_end, samples=int(record.times.size))
    if args.report == "shadow":
        # the shadow reuses this trajectory when it is the one it needs
        cmp_ = shadow_reduced_dynamics(rc, p, args.x0, args.px0,
                                       t_end=args.t_end, dt=args.dt,
                                       full=record)
        report["max_x_deviation"] = cmp_.max_deviation
        report["slow_period"] = cmp_.slow_period
    _write_run(args.out, manifest, {
        "trajectory.csv": record.to_csv,
        "trajectory.svg": lambda path: line_plot(
            path, [("x", record.times, record.states[:, 0]),
                   ("y", record.times, record.states[:, 2])],
            xlabel="t (1/omega_C)", ylabel="coordinate",
            title="regularized trajectory"),
        "dynamics_report.json": lambda path: write_json(path, report)})
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


def _masked_curve(model: FosterModel, omega: np.ndarray) -> np.ndarray:
    """Im Y with NaN at samples too close to a pole (plot-safe)."""
    vals = np.full(omega.size, np.nan)
    ok = clear_of_poles(model, omega, 1e-3)
    if np.any(ok):
        vals[ok] = eval_admittance(model, omega[ok]).imag
    return vals


def cmd_foster(args) -> int:
    _check_flags(args, finite=("omega_min", "omega_max"),
                 at_least=(("points", 1),))
    if args.model:
        model = read_model_json(args.model)
        manifest = _new_manifest("foster", args, {
            "mode": "eval", "omega_min": args.omega_min,
            "omega_max": args.omega_max, "points": args.points})
        omega = np.linspace(args.omega_min, args.omega_max, args.points)
        vals = _masked_curve(model, omega)
        _write_run(args.out, manifest, {
            "admittance.csv": lambda path: write_csv(
                path, ("omega", "ImY"), float_rows(omega, vals),
                "omega and Im Y in the model's input units; NaN rows sit "
                "inside a pole margin"),
            "admittance.svg": lambda path: line_plot(
                path, [("Im Y", omega, vals)], xlabel="omega",
                ylabel="Im Y", title="Foster admittance")})
        print(f"evaluated {args.points} samples on "
              f"[{args.omega_min:g}, {args.omega_max:g}]")
        return 0

    if not args.input:
        raise ValidationError("foster needs --input samples.csv or --model")
    samples = read_admittance_csv(args.input)
    manifest = _new_manifest("foster", args, {
        "mode": "fit", "resonances": args.resonances})
    model, report = fit_foster(samples, args.resonances)
    omega = samples[:, 0]
    dense = np.linspace(float(omega.min()), float(omega.max()), 600)
    curve = _masked_curve(model, dense)
    probe = np.linspace(float(omega.min()), float(omega.max()), 10_000)
    mask = clear_of_poles(model, probe, 1e-6)
    slope_ok = bool(np.all(reactance_slope(model, probe[mask]) > 0.0))

    summary = {
        "rms_residual": report.rms_residual,
        "c_inf": model.c_inf,
        "l_zero": model.l_zero,
        "resonances": [[L, om] for L, om in model.resonances],
        "reactance_slope_positive": slope_ok,
    }
    _write_run(args.out, manifest, {
        "foster_model.json": lambda path: write_model_json(path, model,
                                                           report),
        "foster_fit.svg": lambda path: line_plot(
            path, [("data", omega, samples[:, 1]), ("fit", dense, curve)],
            xlabel="omega", ylabel="Im Y", title="Foster fit"),
        "foster_report.json": lambda path: write_json(path, summary)})
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

    sp = sub.add_parser("reduce", help="effective potential of one circuit")
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
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes; they work over the kappa "
                         "rungs, and the outputs never change with it")
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
                    help="default: on the slow manifold, refused (exit 2) "
                    "past the fold")
    sp.add_argument("--py0", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=None,
                    help="default: two slow periods; it and --report shadow "
                    "are refused (exit 1) at kappa = 0 and lambdaJ = 0 (the "
                    "residual report: five fast periods, half a slow one)")
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
    except (ValidationError, StructureMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
