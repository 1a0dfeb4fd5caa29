import json
import math

import numpy as np
import pytest
from scipy import interpolate  # the oracle for CubicSpline

from circadia import (
    BiasedCosine,
    ConvergenceError,
    Cosine,
    Custom,
    PhysicalRegimeError,
    PolynomialEven,
    ReducedCircuit,
    ValidationError,
    integrate,
    manifold_eta,
    shadow_reduced_dynamics,
    slow_manifold_residual,
)
from circadia.dynamics import _slow_period, _steps
from circadia.potentials import CubicSpline, _piecewise_cubic
from circadia.reduction import _reduced_branch, _reduced_values

RC = ReducedCircuit.from_ratios(0.5, 1.0, 0.5)


def test_removed_parasitic_branch_freezes_the_slow_pair():
    rc = ReducedCircuit.from_ratios(0.0, 1.0, 0.0)
    rec = integrate(rc, Cosine(), (0.3, -0.2, 1.0, 0.0), 2.0 * math.pi)
    final = rec.states[-1]
    # x, p_x carry no force at kappa=0; y is a unit oscillator over one period
    assert final[0] == 0.3
    assert final[1] == -0.2
    assert abs(final[2] - 1.0) < 1e-8
    assert abs(final[3]) < 1e-6
    assert rec.energy_drift < 1e-8


def _cosine_table(lo: float, hi: float) -> Custom:
    phis = np.linspace(lo, hi, 401)
    return Custom(phis, -np.cos(phis))


@pytest.mark.parametrize("p", [
    Cosine(),
    BiasedCosine(0.3),
    PolynomialEven([0.0, 0.5, 0.01]),
    _cosine_table(-8.0, 8.0),
], ids=lambda p: p.kind)
def test_leapfrog_is_time_reversible(p):
    fwd = integrate(RC, p, (0.7, 0.3, 0.4, -0.1), 5.0, dt=1e-3,
                    drift_tol=1e-6)
    x, px, y, py = fwd.states[-1]
    back = integrate(RC, p, (x, -px, y, -py), 5.0, dt=1e-3, drift_tol=1e-6)
    recovered = back.states[-1]
    assert np.max(np.abs(recovered - [0.7, -0.3, 0.4, 0.1])) < 1e-12


def _two_force_trajectory(rc, p, state, t_end, dt):
    """Oracle: the kick-drift-kick loop that evaluates the force at both
    half-kicks of every step, strided as integrate records it."""
    if rc.lambdaJ == 0.0 or isinstance(p, Cosine):
        du = math.sin
    elif isinstance(p, BiasedCosine):
        du = lambda q, s=p.phi_ext: math.sin(q - s)  # noqa: E731
    else:
        du = p.du
    nsteps, dt = _steps(t_end, dt)
    stride = max(1, nsteps // 16384)
    kappa = rc.kappa
    inv_scale = 1.0 / (kappa * math.sqrt(rc.xi))
    cgrad = kappa * rc.lambdaJ / rc.xi**1.5
    x, px, y, py = state
    rec = [state]
    for s in range(nsteps):
        px += 0.5 * dt * kappa * (y - kappa * x)
        py += 0.5 * dt * (kappa * x - y - cgrad * float(du(y * inv_scale)))
        x += dt * kappa * kappa * px
        y += dt * py
        px += 0.5 * dt * kappa * (y - kappa * x)
        py += 0.5 * dt * (kappa * x - y - cgrad * float(du(y * inv_scale)))
        if (s + 1) % stride == 0:
            rec.append((x, px, y, py))
    return nsteps, stride, np.array(rec), np.array([x, px, y, py])


# t_end 5 takes 5000 steps at stride 1; t_end 32.771 takes 32771 steps at
# stride 2, so the last step ends a partial record
@pytest.mark.parametrize("t_end", [5.0, 32.771])
@pytest.mark.parametrize("p, lambdaJ", [
    (Cosine(), 0.5),
    (BiasedCosine(0.3), 0.5),
    (PolynomialEven([0.0, 0.5, 0.01]), 0.5),
    (_cosine_table(-8.0, 8.0), 0.5),
    (Cosine(), 0.0),
], ids=["cosine", "biased", "polynomial", "custom", "uncoupled"])
def test_leapfrog_matches_the_two_force_kernel(p, lambdaJ, t_end):
    rc = ReducedCircuit.from_ratios(0.2, 1.0, lambdaJ)
    state = (0.7, 0.3, 0.4, -0.1)
    nsteps, stride, records, final = _two_force_trajectory(
        rc, p, state, t_end, 1e-3)
    assert (nsteps % stride != 0) == (t_end != 5.0)
    rec = integrate(rc, p, state, t_end, dt=1e-3, drift_tol=1e-4)
    assert np.array_equal(rec.states[:records.shape[0]], records)
    assert np.array_equal(rec.states[-1], final)
    assert rec.states.shape[0] == records.shape[0] + (nsteps % stride != 0)
    assert rec.times[-1] == t_end


@pytest.mark.parametrize("p", [Cosine(), _cosine_table(-8.0, 8.0)],
                         ids=lambda p: p.kind)
def test_leapfrog_evaluates_the_force_once_per_step(monkeypatch, p):
    calls = []
    scalar = type(p)._scalar

    def tracing(self, order):
        force = scalar(self, order)

        def counted(q):
            calls.append(q)
            return force(q)
        return counted

    monkeypatch.setattr(type(p), "_scalar", tracing)
    nsteps, _ = _steps(32.771, 1e-3)
    integrate(RC, p, (0.7, 0.3, 0.4, -0.1), 32.771, dt=1e-3, drift_tol=1e-4)
    assert len(calls) == nsteps + 1
    assert all(type(v) is float for v in map(scalar(p, 1), calls[:3]))


def test_zero_coupling_never_evaluates_the_potential():
    # lambdaJ=0: the junction force is zero, so a table the trajectory
    # leaves must not be consulted (it refuses to extrapolate).
    rc = ReducedCircuit.from_ratios(0.5, 1.0, 0.0)
    narrow = _cosine_table(-0.5, 0.5)
    state = (0.7, 0.3, 0.4, -0.1)
    rec = integrate(rc, narrow, state, 5.0, dt=1e-3, drift_tol=1e-6)
    phi = rec.states[:, 2] / (rc.kappa * math.sqrt(rc.xi))
    assert np.max(np.abs(phi)) > narrow.support[1]
    ref = integrate(rc, Cosine(), state, 5.0, dt=1e-3, drift_tol=1e-6)
    assert np.array_equal(rec.states, ref.states)


def test_global_error_scales_at_second_order():
    eta0 = float(manifold_eta(RC, Cosine(), np.array([1.0]))[0])
    state = (1.0, 0.0, 0.5 * eta0, 0.0)
    ref = integrate(RC, Cosine(), state, 3.0, dt=5e-4,
                    drift_tol=1e-3).states[-1]
    coarse = integrate(RC, Cosine(), state, 3.0, dt=4e-3,
                       drift_tol=1e-3).states[-1]
    halved = integrate(RC, Cosine(), state, 3.0, dt=2e-3,
                       drift_tol=1e-3).states[-1]
    ratio = np.max(np.abs(coarse - ref)) / np.max(np.abs(halved - ref))
    # reference at dt/8 leaves (1-1/64)/(1/4-1/64) = 4.2 for an O(dt^2) method
    assert 3.9 < ratio < 4.5


def test_default_step_meets_the_drift_contract():
    rec = integrate(RC, Cosine(), (1.0, 0.0, 0.2, 0.0), 20.0)
    assert rec.energy_drift <= 1e-8


def test_coarse_steps_fail_loudly_with_a_suggestion():
    with pytest.raises(ConvergenceError, match="try dt"):
        integrate(RC, Cosine(), (1.0, 0.0, 0.2, 0.0), 5.0, dt=2e-2)


def test_integrate_validates_inputs():
    with pytest.raises(ValidationError, match="dt"):
        integrate(RC, Cosine(), (0, 0, 0, 0), 1.0, dt=0.06)
    with pytest.raises(ValidationError, match="dt"):
        integrate(RC, Cosine(), (0, 0, 0, 0), 1.0, dt=0.0)
    with pytest.raises(ValidationError, match="t_end"):
        integrate(RC, Cosine(), (0, 0, 0, 0), 0.0)
    rc_bad = ReducedCircuit.from_ratios(0.0, 1.0, 0.5)
    with pytest.raises(ValidationError, match="singular"):
        integrate(rc_bad, Cosine(), (0, 0, 0, 0), 1.0)
    for tol in (0.0, -1e-8, math.nan):
        with pytest.raises(ValidationError, match="drift_tol"):
            integrate(RC, Cosine(), (0, 0, 0, 0), 1.0, drift_tol=tol)


@pytest.mark.parametrize("t_end, dt, state", [
    (math.nan, 2e-4, (0, 0, 0, 0)),
    (math.inf, 2e-4, (0, 0, 0, 0)),
    (-math.inf, 2e-4, (0, 0, 0, 0)),
    (1.0, math.nan, (0, 0, 0, 0)),
    (1.0, 2e-4, (math.nan, 0, 0, 0)),
    (1.0, 2e-4, (0, math.inf, 0, 0)),
    (1.0, 2e-4, (0, 0, -math.inf, 0)),
    (1.0, 2e-4, (0, 0, 0, math.nan)),
])
def test_integrate_refuses_non_finite_inputs(t_end, dt, state):
    with pytest.raises(ValidationError, match="finite"):
        integrate(RC, Cosine(), state, t_end, dt=dt)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x0, px0", [
    (math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan),
    (1.0, math.inf),
])
def test_manifold_probes_refuse_a_non_finite_start_before_solving(x0, px0):
    # refused before the slow-manifold solve, so no numpy warning escapes
    rc = ReducedCircuit.from_ratios(0.2, 1.0, 0.5)
    with pytest.raises(ValidationError, match="finite"):
        shadow_reduced_dynamics(rc, Cosine(), x0, px0, t_end=1.0)
    if px0 == 0.0:
        with pytest.raises(ValidationError, match="finite"):
            slow_manifold_residual(rc, Cosine(), x0)


def test_a_drift_that_is_not_a_number_does_not_pass():
    # u(y0/(kappa sqrt(xi))) overflows at the start, so E(0) is inf and the
    # drift inf - inf is NaN; NaN > drift_tol is False, NaN <= it too
    steep = PolynomialEven([0.0, 0.0, 1e300])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ConvergenceError, match="nan") as info:
        integrate(RC, steep, (0.0, 0.0, 2.0, 0.0), 0.01, dt=1e-3)
    assert math.isnan(info.value.detail)
    assert "try dt" not in str(info.value)


def test_trajectory_csv_schema(tmp_path):
    rec = integrate(RC, Cosine(), (1.0, 0.0, 0.2, 0.0), 0.5)
    path = tmp_path / "traj.csv"
    rec.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# units:")
    assert lines[1] == "t,x,p_x,y,p_y,E"
    assert len(lines) == 2 + rec.times.size
    # repr round-trips: the file holds every value exactly
    table = np.loadtxt(path, delimiter=",", skiprows=2)
    assert np.array_equal(table, np.column_stack([rec.times, rec.states,
                                                  rec.energy]))


def test_zero_coupling_manifold_is_the_identity():
    rc = ReducedCircuit.from_ratios(0.3, 1.0, 0.0)
    xs = np.linspace(-2.0, 2.0, 11)
    assert np.max(np.abs(manifold_eta(rc, Cosine(), xs) - xs)) < 1e-12


def test_on_manifold_initialization_keeps_residuals_at_their_order():
    rc = ReducedCircuit.from_ratios(0.2, 1.0, 0.5)
    y_resid, py_resid = slow_manifold_residual(rc, Cosine(), 1.0)
    assert y_resid < 5e-4
    assert py_resid < 1e-2


def test_residual_probe_refuses_bad_regimes():
    with pytest.raises(PhysicalRegimeError):
        slow_manifold_residual(ReducedCircuit.from_ratios(0.2, 1.0, 2.0),
                               Cosine(), 1.0)
    with pytest.raises(ValidationError):
        slow_manifold_residual(ReducedCircuit.from_ratios(0.0, 1.0, 0.0),
                               Cosine(), 1.0)


@pytest.mark.parametrize("t_end", [10.0, 5.0 * 2.0 * math.pi - 1e-9,
                                   math.nan, -math.inf])
def test_residual_probe_refuses_a_short_span_before_integrating(
        monkeypatch, t_end):
    import circadia.dynamics

    runs = []

    def counted(*args, **kwargs):
        runs.append(args[3])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(circadia.dynamics, "integrate", counted)
    rc = ReducedCircuit.from_ratios(0.5, 1.0, 0.5)
    with pytest.raises(ValidationError, match="5-fast-period transient"):
        slow_manifold_residual(rc, Cosine(), 0.3, t_end=t_end)
    assert runs == []


def test_reduced_flow_shadows_the_full_system():
    rc = ReducedCircuit.from_ratios(0.2, 1.0, 0.5)
    period = _slow_period(rc)
    cmp = shadow_reduced_dynamics(rc, Cosine(), 1.0, 0.0, t_end=period)
    assert cmp.slow_period == pytest.approx(period, rel=1e-12)
    assert cmp.max_deviation < 0.05
    assert cmp.x_full.shape == cmp.x_reduced.shape
    expected = 2.0 * math.pi / (rc.kappa**2 * math.sqrt(rc.beta / (1.0 + rc.beta)))
    assert period == pytest.approx(expected, rel=1e-12)


def test_shadow_refuses_supercritical_screening():
    with pytest.raises(PhysicalRegimeError):
        shadow_reduced_dynamics(ReducedCircuit.from_ratios(0.2, 1.0, 1.5),
                                Cosine(), 1.0, 0.0, t_end=1.0)


def test_shadow_reuses_only_the_matching_trajectory(monkeypatch):
    import circadia.dynamics

    rc = ReducedCircuit.from_ratios(0.2, 1.0, 0.5)
    y0 = rc.kappa * float(manifold_eta(rc, Cosine(), np.array([1.0]))[0])
    full = integrate(rc, Cosine(), (1.0, 0.0, y0, 0.0), 20.0, 1e-3)
    others = [integrate(rc, Cosine(), (1.0, 0.1, y0, 0.0), 20.0, 1e-3),
              integrate(rc, Cosine(), (1.0, 0.0, y0, 0.0), 10.0, 1e-3),
              integrate(rc, Cosine(), (1.0, 0.0, y0, 0.0), 20.0, 2e-3)]
    fresh = shadow_reduced_dynamics(rc, Cosine(), 1.0, 0.0, t_end=20.0,
                                    dt=1e-3)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(circadia.dynamics, "integrate", counted)
    for record in [full] + others:
        cmp_ = shadow_reduced_dynamics(rc, Cosine(), 1.0, 0.0, t_end=20.0,
                                       dt=1e-3, full=record)
        assert np.array_equal(cmp_.x_full, fresh.x_full)
        assert np.array_equal(cmp_.x_reduced, fresh.x_reduced)
        assert cmp_.max_deviation == fresh.max_deviation
    # the matching record is used, every other one integrated again
    assert len(calls) == len(others)


def test_shadow_report_integrates_the_trajectory_once(monkeypatch,
                                                      write_circuit,
                                                      tmp_path):
    import circadia.cli
    import circadia.dynamics

    def second_integration(*args, **kwargs):
        raise AssertionError("shadow integrated the trajectory again")

    # the command's own integration goes through circadia.cli.integrate
    monkeypatch.setattr(circadia.dynamics, "integrate", second_integration)
    circuit = write_circuit("dyn.json", 0.2, 1.0, 0.5)
    argv = ["dynamics", "--circuit", circuit, "--report", "shadow",
            "--dt", "0.01", "--out", str(tmp_path / "default")]
    assert circadia.cli.main(argv) == 0
    report = json.loads((tmp_path / "default" / "dynamics_report.json")
                        .read_text())
    assert report["max_x_deviation"] < 0.05
    # another start is another trajectory: the shadow integrates its own
    with pytest.raises(AssertionError, match="again"):
        circadia.cli.main(argv[:-1] + [str(tmp_path / "kicked"),
                                       "--py0", "1e-4"])


@pytest.mark.parametrize("report, runs", [("shadow", 1), ("residual", 2)])
def test_dynamics_reports_follow_t_end(monkeypatch, write_circuit, tmp_path,
                                       report, runs):
    import circadia.cli
    import circadia.dynamics

    ends = []

    def counted(*args, **kwargs):
        ends.append(args[3])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(circadia.cli, "integrate", counted)
    monkeypatch.setattr(circadia.dynamics, "integrate", counted)
    circuit = write_circuit("dyn.json", 0.2, 1.0, 0.5)
    out = tmp_path / report
    assert circadia.cli.main(["dynamics", "--circuit", circuit, "--report",
                              report, "--dt", "0.01", "--t-end", "40",
                              "--out", str(out)]) == 0
    # the shadow compares the command's own trajectory; the residual starts
    # from rest on the manifold, so it integrates its own over the same span
    assert ends == [40.0] * runs


def _traced_reduced_flow(monkeypatch, p):
    """A shadow run whose force spline is kept, beside scipy's spline on
    the same data, and whose force calls are counted; dt=0.008 over t=400
    records every third step, so segments take three substeps and the last
    one two."""
    import circadia.dynamics

    splines, data, calls = [], [], []

    def recording(x, y, *args):
        data.append((x, y))
        return CubicSpline(x, y, *args)

    def tracing(spline, nu):
        evaluate = _piecewise_cubic(spline, nu)
        splines.append(spline)

        def counted(q):
            calls.append(q)
            return evaluate(q)
        return counted

    monkeypatch.setattr(circadia.dynamics, "CubicSpline", recording)
    monkeypatch.setattr(circadia.dynamics, "_piecewise_cubic", tracing)
    rc = ReducedCircuit.from_ratios(0.2, 1.0, 0.5)
    cmp_ = shadow_reduced_dynamics(rc, p, 1.0, 0.0, t_end=400.0, dt=0.008)
    (spline,) = splines
    ((x, y),) = data
    return rc, cmp_, spline, calls, interpolate.CubicSpline(x, y)


def _substeps(times):
    return [max(1, int(math.ceil(float(seg) / 0.01)))
            for seg in np.diff(times)]


@pytest.mark.parametrize("p", [Cosine(), BiasedCosine(0.4)],
                         ids=lambda p: p.kind)
def test_reduced_flow_matches_the_spline_called_per_half_kick(monkeypatch,
                                                              p):
    rc, cmp_, spline, _, oracle = _traced_reduced_flow(monkeypatch, p)
    # the force table is scipy's not-a-knot spline on the same data
    assert spline.x.tobytes() == oracle.x.tobytes()
    assert spline.c.tobytes() == oracle.c.tobytes()
    # oracle: the spline's own call, twice per kick-drift-kick substep
    coef_force = rc.kappa**2 / rc.xi
    x, px = 1.0, 0.0
    oracle = [x]
    for seg, m in zip(np.diff(cmp_.times), _substeps(cmp_.times)):
        h = float(seg) / m
        for _ in range(m):
            px -= 0.5 * h * coef_force * float(spline(x))
            x += h * rc.kappa**2 * px
            px -= 0.5 * h * coef_force * float(spline(x))
        oracle.append(x)
    assert np.array_equal(cmp_.x_reduced, np.array(oracle))
    assert cmp_.max_deviation < 0.05


def test_the_force_table_is_the_reduced_branch(monkeypatch):
    import circadia.dynamics

    calls = []

    def counted(p, rc, basis, coords):
        calls.append((basis, coords.size))
        return _reduced_branch(p, rc, basis, coords)

    monkeypatch.setattr(circadia.dynamics, "_reduced_branch", counted)
    rc, _, spline, _, _ = _traced_reduced_flow(monkeypatch, BiasedCosine(0.4))
    # the energy probe and the force table, nothing else
    assert calls == [("ExtendedX", 512), ("ExtendedX", 8192)]
    # V' on the slow manifold, bit for bit as manifold_eta gives it
    sqxi = math.sqrt(rc.xi)
    eta = manifold_eta(rc, BiasedCosine(0.4), spline.x)
    vp = _reduced_values(BiasedCosine(0.4), rc, eta / sqxi, 1.0 / sqxi)[1]
    assert CubicSpline(spline.x, vp).c.tobytes() == spline.c.tobytes()


def test_the_reduced_flow_refuses_to_leave_its_force_table():
    # a tabulated harmonic u on |phi| <= 16: the table keeps the drives
    # whose branch bracket (half-width 9 here) stays on the support, so it
    # ends near |x| = 7, while this start swings out to |x| = 10
    phi = np.linspace(-16.0, 16.0, 321)
    p = Custom(phi, 0.5 * phi**2)
    rc = ReducedCircuit.from_ratios(0.6, 1.0, 0.5)
    inside = shadow_reduced_dynamics(rc, p, 0.0, 3.0, t_end=8.0)
    assert 5.0 < np.max(np.abs(inside.x_reduced)) < 7.0
    with pytest.raises(ValidationError,
                       match=r"leaves its force table \[-7\.0\d*, 7\.0"):
        shadow_reduced_dynamics(rc, p, 0.0, 5.8, t_end=8.0)


def test_reduced_flow_evaluates_the_force_once_per_substep(monkeypatch):
    _, cmp_, _, calls, _ = _traced_reduced_flow(monkeypatch, Cosine())
    substeps = _substeps(cmp_.times)
    assert set(substeps) == {2, 3}
    assert len(calls) == sum(substeps) + 1


def test_slow_period_without_coupling_is_refused():
    # at beta = 0 the slow mode is free: the period is infinite, as the
    # harmonic formula's limit beta -> 0+ says, and is refused as at kappa = 0
    with pytest.raises(ValidationError, match="beta must be > 0"):
        _slow_period(ReducedCircuit.from_ratios(0.5, 2.0, 0.0))
    rc = ReducedCircuit.from_ratios(0.5, 1.0, 1e-6)
    assert rc.beta == 1e-6
    assert _slow_period(rc) == 2.0 * math.pi / (
        0.25 * math.sqrt(1e-6 / (1.0 + 1e-6)))
