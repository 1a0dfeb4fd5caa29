"""Symplectic integration of the regularized two-mode classical system.

Equations of motion of the separable dimensionless Hamiltonian

    h = 1/2 kappa^2 p_x^2 + 1/2 p_y^2 + 1/2 (y - kappa*x)^2
        + kappa^2 (lambda_J/xi) u(y/(kappa*sqrt(xi)))

    x' = kappa^2 p_x          p_x' = kappa (y - kappa x)
    y' = p_y                  p_y' = kappa x - y
                                     - kappa (lambda_J/xi^(3/2)) u'(y/(kappa sqrt(xi)))

integrated with leapfrog (kick-drift-kick) at one force evaluation per
step: the half-kick that closes a step is the one that opens the next
(first same as last). The fast mode has period
close to 2*pi in this time unit; the slow mode moves at O(kappa^2). Time is
in 1/omega_C units and energies in kappa^2*H/(hbar*omega_C) units,
matching the extended-basis 2D quantum operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PhysicalRegimeError, ValidationError
from .params import ReducedCircuit
from .potentials import CubicSpline, PotentialModel, _piecewise_cubic
from .reduction import (_du_reach, _reduced_branch, invertibility_threshold,
                        solve_branch_extended)
from .sweeps import float_rows, write_csv

TWO_PI = 2.0 * math.pi
_RECORD_CAP = 16384


@dataclass
class TrajectoryRecord:
    """Strided samples of one trajectory with its energy series."""

    times: np.ndarray
    states: np.ndarray          # shape (n, 4): x, p_x, y, p_y
    energy: np.ndarray
    kappa: float
    xi: float
    lambdaJ: float
    dt: float

    @property
    def energy_drift(self) -> float:
        e0 = float(self.energy[0])
        scale = max(abs(e0), 1e-12)
        return float(np.max(np.abs(self.energy - e0))) / scale

    def to_csv(self, path: str) -> None:
        write_csv(path, ("t", "x", "p_x", "y", "p_y", "E"),
                  float_rows(self.times, *self.states.T, self.energy),
                  "t in 1/omega_C; x,p_x,y,p_y dimensionless (regularized "
                  "coordinates); E in kappa^2*H/(hbar*omega_C) units")


def _leapfrog(x, px, y, py, dt, nsteps, stride, rec, kappa, cgrad,
              inv_scale, du):
    """nsteps kick-drift-kick steps of dt from (x, px, y, py), writing the
    state after every stride-th step to rec[1], rec[2], ... and, when
    stride does not divide nsteps, the final state to the row after them.
    du is u' as a float -> float callable (PotentialModel._scalar).

    Each half-kick increment is computed once: the kick that closes a step
    acts at the (x, y) where the next step opens, so it opens that step
    too (first same as last), and a run takes nsteps + 1 force calls. The
    step constants are grouped as the inline products 0.5*dt*kappa*(...),
    0.5*dt*(...) and dt*kappa*kappa*px are, left to right, so trajectories
    equal those of evaluating the force at both half-kicks bit for bit.
    """
    hk = 0.5 * dt * kappa
    h = 0.5 * dt
    dkk = dt * kappa * kappa
    kx = hk * (y - kappa * x)
    ky = h * (kappa * x - y - cgrad * du(y * inv_scale))
    full, rem = divmod(nsteps, stride)
    for idx, n in enumerate([stride] * full + ([rem] if rem else []), 1):
        for _ in range(n):
            px += kx
            py += ky
            x += dkk * px
            y += dt * py
            kx = hk * (y - kappa * x)
            ky = h * (kappa * x - y - cgrad * du(y * inv_scale))
            px += kx
            py += ky
        rec[idx] = (x, px, y, py)


def _energy(states: np.ndarray, rc: ReducedCircuit,
            p: PotentialModel) -> np.ndarray:
    x, px, y, py = states.T
    e = 0.5 * rc.kappa**2 * px**2 + 0.5 * py**2 + 0.5 * (y - rc.kappa * x)**2
    if rc.lambdaJ != 0.0 and rc.kappa > 0:
        u = np.asarray(p.u(y / (rc.kappa * math.sqrt(rc.xi))), dtype=float)
        e = e + rc.kappa**2 * (rc.lambdaJ / rc.xi) * u
    return e


def _steps(t_end: float, dt: float) -> tuple[int, float]:
    """Step count and the step <= dt that lands exactly on t_end."""
    if dt <= 0 or dt > 0.05:
        raise ValidationError("dt must lie in (0, 0.05]")
    nsteps = max(1, int(math.ceil(t_end / dt - 1e-9)))
    return nsteps, t_end / nsteps


def integrate(rc: ReducedCircuit, p: PotentialModel, initial_state,
              t_end: float, dt: float = 2e-4,
              drift_tol: float = 1e-8) -> TrajectoryRecord:
    """Leapfrog trajectory of the regularized system.

    One force evaluation per step: the kick-drift-kick kernel reuses the
    half-kick that closes a step as the one that opens the next (first
    same as last), with trajectories equal bit for bit to evaluating it
    twice. dt must resolve the O(1)-period fast oscillation (dt <= 0.05
    enforced); the default 2e-4 keeps the leapfrog energy oscillation below
    the 1e-8 relative drift bound checked after the run. A drift above
    drift_tol, or one that is not a number, raises with a suggested step
    where one can be given. A non-finite t_end, dt or initial state, and a
    drift_tol that is not > 0, are refused before any step.
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)):
        raise ValidationError("t_end and dt must be finite")
    x0, px0, y0, py0 = (float(v) for v in initial_state)
    if not all(map(math.isfinite, (x0, px0, y0, py0))):
        raise ValidationError("initial state must be finite")
    if not drift_tol > 0:
        raise ValidationError("drift_tol must be > 0")
    nsteps, dt_eff = _steps(t_end, dt)
    if t_end <= 0:
        raise ValidationError("t_end must be > 0")
    if rc.kappa <= 0 and rc.lambdaJ != 0.0:
        raise ValidationError("kappa=0 with lambdaJ>0 is singular")
    stride = max(1, nsteps // _RECORD_CAP)
    full, rem = divmod(nsteps, stride)
    states = np.empty((full + (2 if rem else 1), 4))
    states[0] = (x0, px0, y0, py0)

    # kappa=0 only gets here with lambdaJ=0, where the junction force
    # vanishes and the argument scale is unused.
    inv_scale = 1.0 / (rc.kappa * math.sqrt(rc.xi)) if rc.kappa > 0 else 0.0
    cgrad = rc.kappa * rc.lambdaJ / rc.xi**1.5
    # at lambdaJ=0 the force is zero: never consult u', which a table would
    # refuse outside its support
    du = math.sin if rc.lambdaJ == 0.0 else p._scalar(1)
    _leapfrog(x0, px0, y0, py0, dt_eff, nsteps, stride, states, rc.kappa,
              cgrad, inv_scale, du)

    times = dt_eff * stride * np.arange(full + 1)
    if rem:
        times = np.append(times, t_end)
    energy = _energy(states, rc, p)
    record = TrajectoryRecord(times=times, states=states, energy=energy,
                              kappa=rc.kappa, xi=rc.xi, lambdaJ=rc.lambdaJ,
                              dt=dt_eff)
    drift = record.energy_drift
    if not drift <= drift_tol:
        hint = ""
        if math.isfinite(drift):
            hint = (f"; try dt <= "
                    f"{dt_eff * math.sqrt(drift_tol / drift) * 0.7:.2e}")
        raise ConvergenceError(
            f"energy drift {drift:.3e} exceeds {drift_tol:.1e}{hint}",
            detail=drift)
    return record


def _slow_period(rc: ReducedCircuit) -> float:
    """Harmonic slow period 2*pi/(kappa^2*sqrt(beta/(1+beta))) near a
    cosine-family minimum; default horizon. Refused at kappa = 0, where the
    slow mode does not move, and at beta = 0, where it moves freely: the
    period grows without bound as beta -> 0+."""
    if rc.kappa <= 0:
        raise ValidationError("kappa must be > 0 for a slow period")
    if rc.beta <= 0:
        raise ValidationError("beta must be > 0 for a slow period (the "
                              "slow mode is free at lambdaJ = 0)")
    return TWO_PI / (rc.kappa**2 * math.sqrt(rc.beta / (1.0 + rc.beta)))


def manifold_eta(rc: ReducedCircuit, p: PotentialModel,
                 x: np.ndarray) -> np.ndarray:
    """Slow-manifold leading order: eta1 solving the extended consistency
    equation at drive x; the manifold itself sits at y = kappa*eta1(x)."""
    return solve_branch_extended(p, rc, np.atleast_1d(np.asarray(x, float)))


def _manifold_y0(rc: ReducedCircuit, p: PotentialModel, x0: float,
                 what: str, px0: float = 0.0) -> float:
    """y = kappa*eta1(x0) on the slow manifold (y = 0 at kappa = 0),
    refused where undefined; a non-finite slow start (x0, px0) is refused
    before any solve."""
    if not (math.isfinite(x0) and math.isfinite(px0)):
        raise ValidationError("initial state must be finite")
    threshold = invertibility_threshold(p)
    if rc.beta >= threshold:
        raise PhysicalRegimeError(f"{what} undefined at supercritical beta",
                                  beta_crit=threshold)
    return rc.kappa * float(manifold_eta(rc, p, np.array([x0]))[0])


def _same_run(full, rc: ReducedCircuit, start: tuple, t_end: float,
              dt: float) -> bool:
    """Whether the record full (or None) is the trajectory that
    integrate(rc, p, start, t_end, dt) makes: same circuit ratios, start,
    step and end time (full must come from the same potential)."""
    return full is not None and tuple(full.states[0]) == start \
        and (full.kappa, full.xi, full.lambdaJ) \
        == (rc.kappa, rc.xi, rc.lambdaJ) \
        and full.dt == _steps(t_end, dt)[1] \
        and math.isclose(full.times[-1], t_end, rel_tol=1e-12)


def _residual_span(rc: ReducedCircuit, t_end: float | None) -> float:
    """The residual probe's horizon, by default 5 fast periods and half a
    slow period; refused at kappa <= 0 and when it does not pass the
    5-fast-period transient."""
    if rc.kappa <= 0:
        raise ValidationError("kappa must be > 0")
    if t_end is None:
        t_end = 5.0 * TWO_PI + 0.5 * _slow_period(rc)
    if not t_end >= 5.0 * TWO_PI:
        raise ValidationError("t_end must exceed the 5-fast-period transient")
    return t_end


def slow_manifold_residual(rc: ReducedCircuit, p: PotentialModel, x0: float,
                           t_end: float | None = None, dt: float = 2e-4,
                           drift_tol: float = 1e-8,
                           full: TrajectoryRecord | None = None,
                           ) -> tuple[float, float]:
    """(max |y - kappa*eta1(x)|, max |p_y|) after on-manifold initialization.

    The first 5 fast periods are excluded: p_y(0)=0 is only accurate to the
    manifold's own order, and that initialization ringing is not the slaved
    signal being measured.

    full, when given, is a full-system trajectory already integrated in
    the same potential; it stands in for the probe's own integration when
    it is that trajectory (as in shadow_reduced_dynamics: same circuit
    ratios, start (x0, 0, kappa*eta1(x0), 0), t_end and step) and its
    energy drift is within drift_tol. Every refusal comes before any
    step.
    """
    y0 = _manifold_y0(rc, p, x0, "slow manifold")
    t_end = _residual_span(rc, t_end)
    start = (x0, 0.0, y0, 0.0)
    if not (_same_run(full, rc, start, t_end, dt)
            and full.energy_drift <= drift_tol):
        full = integrate(rc, p, start, t_end, dt, drift_tol=drift_tol)
    keep = full.times >= 5.0 * TWO_PI
    x = full.states[keep, 0]
    y = full.states[keep, 2]
    py = full.states[keep, 3]
    eta = manifold_eta(rc, p, x)
    y_resid = float(np.max(np.abs(y - rc.kappa * eta)))
    py_resid = float(np.max(np.abs(py)))
    return y_resid, py_resid


@dataclass
class ShadowComparison:
    """Full x(t) against the reduced one-degree-of-freedom integration."""

    times: np.ndarray
    x_full: np.ndarray
    x_reduced: np.ndarray
    max_deviation: float
    slow_period: float


def shadow_reduced_dynamics(rc: ReducedCircuit, p: PotentialModel, x0: float,
                            px0: float, t_end: float | None = None,
                            dt: float = 2e-4,
                            full: TrajectoryRecord | None = None,
                            ) -> ShadowComparison:
    """Integrates the reduced Hamiltonian 1/2 kappa^2 p_x^2
    + (kappa^2/xi) V(x) alongside the full system from the same slow initial
    data and reports the worst x deviation on matched sample times.

    full, when given, is a full-system trajectory already integrated in
    the same potential; it stands in for the comparison's own integration
    when it is that trajectory: same circuit ratios, start
    (x0, px0, kappa*eta1(x0), 0), t_end and step. Any other record is
    ignored and the trajectory integrated here.

    The reduced flow is its own one-degree-of-freedom kick-drift-kick, not
    _leapfrog, since the reduced system has no y mode. It takes substeps
    of at most 0.01 between the record's sample times. Its force V'(x) is
    a cubic spline of V' on 8192 points over a span the energy bound keeps
    the trajectory inside, read one point at a time by the scalar
    evaluator of the potentials module (equal to the spline's own call bit
    for bit), once per substep: the force that closes a substep opens the
    next one."""
    y0 = _manifold_y0(rc, p, x0, "reduced dynamics", px0)
    slow_period = _slow_period(rc)
    if t_end is None:
        t_end = 2.0 * slow_period
    start = (x0, px0, y0, 0.0)
    if not _same_run(full, rc, start, t_end, dt):
        full = integrate(rc, p, start, t_end, dt)

    # Force table for the reduced flow: V'(x) sampled once on a span the
    # trajectory cannot leave (energy bound), then interpolated.
    sqxi = math.sqrt(rc.xi)
    e_red = 0.5 * rc.kappa**2 * px0**2
    probe = np.linspace(x0 - TWO_PI * sqxi, x0 + TWO_PI * sqxi, 512)
    v_probe = _reduced_branch(p, rc, "ExtendedX", probe)[2]
    vmin = float(np.min(v_probe)) * rc.kappa**2 / rc.xi
    e_red += rc.kappa**2 / rc.xi * float(np.interp(x0, probe, v_probe))
    vmax_speed = rc.kappa * math.sqrt(max(2.0 * (e_red - vmin), 0.0) + 1e-12)
    span = vmax_speed * t_end + 2.0 * TWO_PI * sqxi
    lo, hi = x0 - span, x0 + span
    if hasattr(p, "support"):
        # a table: keep the drives whose branch bracket (half-width as in
        # solve_branch_extended) stays on the support
        reach = max(rc.lambdaJ / rc.xi**1.5 * _du_reach(p) + 1.0, 1.0)
        lo = max(lo, p.support[0] * sqxi + reach)
        hi = min(hi, p.support[1] * sqxi - reach)
    xs = np.linspace(lo, hi, 8192)
    vp = _piecewise_cubic(
        CubicSpline(xs, _reduced_branch(p, rc, "ExtendedX", xs)[3]), 0)

    times = full.times
    n = times.size
    x_red = np.empty(n)
    x_red[0] = x0
    kappa2 = rc.kappa**2
    coef_force = kappa2 / rc.xi
    x, px = x0, px0
    force = vp(x)
    for i in range(1, n):
        seg = float(times[i] - times[i - 1])
        m = max(1, int(math.ceil(seg / 0.01)))
        h = seg / m
        # grouped as the inline products 0.5*h*coef_force*force and
        # h*kappa**2*px, left to right
        kick = 0.5 * h * coef_force
        drift = h * kappa2
        for _ in range(m):
            px -= kick * force
            x += drift * px
            force = vp(x)  # closes this substep and opens the next
            px -= kick * force
        x_red[i] = x
    if not xs[0] <= np.min(x_red) <= np.max(x_red) <= xs[-1]:
        raise ValidationError("the reduced trajectory leaves its force "
                              f"table [{xs[0]}, {xs[-1]}]")
    dev = float(np.max(np.abs(full.states[:, 0] - x_red)))
    return ShadowComparison(times=times, x_full=full.states[:, 0].copy(),
                            x_reduced=x_red, max_deviation=dev,
                            slow_period=slow_period)
