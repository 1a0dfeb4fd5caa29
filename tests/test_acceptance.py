"""Acceptance gate: ten pinned criteria covering every major surface.

Each test states its tolerance inline. The tolerances are contractual
floors for this package; tighten them if the numerics improve, never
loosen them to make a regression pass.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from circadia import (
    Cosine,
    FosterModel,
    HamiltonianSpec,
    PhysicalRegimeError,
    PolynomialEven,
    ReducedCircuit,
    bo_effective_potential,
    crosscheck_bases,
    effective_potential,
    eigenvalues_in_window,
    eval_admittance,
    fit_foster,
    invertibility_threshold,
    lowest_eigenvalues,
    naive_compact_adiabatic,
    phase_grid_spectrum,
    reactance_slope,
    shadow_reduced_dynamics,
    slow_manifold_residual,
    solve_consistency,
    transmon_limit_check,
)
from circadia.dynamics import _slow_period
from circadia.foster import POLE_MARGIN

TWO_PI = 2.0 * math.pi


def test_consistency_root_counts_across_the_fold():
    p = Cosine()
    rng = np.random.default_rng(7)
    drives = rng.uniform(-10.0, 10.0, 100)
    for beta in (0.5, 0.9, 0.99):
        for phi in drives:
            sol = solve_consistency(p, beta, float(phi),
                                    (float(phi) - TWO_PI,
                                     float(phi) + TWO_PI))
            assert len(sol.roots) == 1
            assert sol.invertible
    # the fold first opens around drive pi, probe it directly
    for beta in (1.1, 2.0):
        sol = solve_consistency(p, beta, math.pi,
                                (math.pi - TWO_PI, math.pi + TWO_PI))
        assert len(sol.roots) >= 3
        assert not sol.invertible
    assert invertibility_threshold(p) == pytest.approx(1.0, abs=1e-10)


def test_effective_potential_derivative_identities():
    rc = ReducedCircuit.from_ratios(0.5, 10.0, 50.0)   # beta = 0.5
    phis = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    pot = effective_potential(Cosine(), rc, "CompactPhi", phis)
    h = phis[1] - phis[0]
    V = pot.V
    fd1 = (-np.roll(V, -2) + 8.0 * np.roll(V, -1)
           - 8.0 * np.roll(V, 1) + np.roll(V, 2)) / (12.0 * h)
    fd2 = (-np.roll(V, -2) + 16.0 * np.roll(V, -1) - 30.0 * V
           + 16.0 * np.roll(V, 1) - np.roll(V, 2)) / (12.0 * h**2)
    assert np.max(np.abs(pot.Vp - fd1)) / np.max(np.abs(pot.Vp)) < 1e-6
    assert np.max(np.abs(pot.Vpp - fd2)) / np.max(np.abs(pot.Vpp)) < 1e-5
    assert pot.Vpp[0] == pytest.approx(50.0 / 1.5, rel=1e-8)
    assert len(pot.minima) == 1


def test_compact_and_extended_reductions_agree():
    for beta in (0.1, 0.5, 0.9):
        for xi in (1.0, 10.0):
            rc = ReducedCircuit.from_ratios(0.5, xi, beta * xi * xi)
            assert crosscheck_bases(Cosine(), rc) < 1e-8


def test_bo_flattening_trend_and_quadratic_control():
    kappas = (0.6, 0.45, 0.3)
    xs = np.linspace(-3.0, 3.0, 21)
    table = bo_effective_potential(kappas, xs, Cosine(), 10.0, 5.0)
    assert table.verdict == "decreasing"
    sups = table.sup_abs
    assert np.all(sups[1:] < sups[:-1])

    control = bo_effective_potential(kappas, xs, PolynomialEven([0.0, 0.5]),
                                     10.0, 5.0)
    fits = control.quadratic_fit()
    for a, b in zip(fits, fits[1:]):
        assert abs(b - a) <= 0.1 * max(abs(a), abs(b))
    assert abs(fits[-1]) > 1e-9


def test_naive_adiabatic_ladder_and_sweet_spot_refusal():
    na = naive_compact_adiabatic(0.1, 10.0, 0.0, 4)
    assert np.max(np.abs(na.numerical - na.formula) / na.formula) < 0.01
    with pytest.raises(PhysicalRegimeError):
        naive_compact_adiabatic(0.1, 10.0, 0.505, 4)


def test_charge_basis_matches_phase_grid():
    for lam in (1.0, 10.0, 50.0):
        for ng in (0.0, 0.25):
            spec = HamiltonianSpec(variant="Compact1D", potential=Cosine(),
                                   lambdaJ=lam, ng=ng)
            a = lowest_eigenvalues(spec, 5).eigenvalues
            b = phase_grid_spectrum(Cosine(), lam, ng=ng, k=5)
            denom = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(a - b)) / denom <= 1e-6


def test_box_doubling_halves_mean_level_spacing():
    rc = ReducedCircuit.from_ratios(0.5, 1.0, 0.5)
    spacings, counts = [], []
    for half_width in (60.0 * math.pi, 120.0 * math.pi):
        n = round(2.0 * half_width / 0.06) + 1
        xs = np.linspace(-half_width, half_width, n)
        pot = effective_potential(Cosine(), rc, "ExtendedX", xs)
        spec = HamiltonianSpec(variant="Extended1D", effective=pot,
                               c_kin=1.0)
        window = eigenvalues_in_window(spec, 1.5, 3.0)
        spacings.append(float(np.mean(np.diff(window.eigenvalues))))
        counts.append(window.eigenvalues.size)
    ratio = spacings[1] / spacings[0]
    assert abs(ratio - 0.5) <= 0.05
    assert counts[1] >= 1.8 * counts[0]
    # regression pins for the measured configuration
    assert spacings[0] == pytest.approx(0.024605329, rel=1e-4)
    assert spacings[1] == pytest.approx(0.012324723, rel=1e-4)


def test_slow_manifold_residual_orders_and_shadowing():
    kappas = np.array([0.2, 0.1, 0.05])
    y_res, py_res = [], []
    for kap in kappas:
        rc = ReducedCircuit.from_ratios(float(kap), 1.0, 0.5)
        y, py = slow_manifold_residual(rc, Cosine(), 1.0)
        y_res.append(y)
        py_res.append(py)
    slope_py = np.polyfit(np.log(kappas), np.log(py_res), 1)[0]
    slope_y = np.polyfit(np.log(kappas), np.log(y_res), 1)[0]
    assert abs(slope_py - 3.0) <= 0.5
    assert slope_y >= 2.0

    rc = ReducedCircuit.from_ratios(0.1, 1.0, 0.5)
    cmp_ = shadow_reduced_dynamics(rc, Cosine(), 1.0, 0.0,
                                   t_end=_slow_period(rc))
    assert cmp_.max_deviation < 0.05


def test_foster_round_trip_and_reactance_slope():
    model = FosterModel(c_inf=1.0, resonances=((0.5, 3.0),))
    om = np.linspace(0.5, 6.0, 1000)
    om = om[np.abs(om - 3.0) > 0.02 * 3.0]
    om = om[np.linspace(0, om.size - 1, 200).astype(int)]
    assert om.size == 200
    samples = np.column_stack([om, eval_admittance(model, om).imag])
    fitted, report = fit_foster(samples, 1)
    assert fitted.c_inf == pytest.approx(1.0, rel=1e-12)
    (el, pole), = fitted.resonances
    assert el == pytest.approx(0.5, rel=1e-12)
    assert pole == pytest.approx(3.0, rel=1e-12)
    assert report.rms_residual < 1e-12

    # the probe grid holds 3.0 itself; the slope is undefined at the pole
    probe = np.linspace(0.5, 6.0, 10_000)
    probe = probe[np.abs(probe - pole) > POLE_MARGIN * pole]
    assert probe.size == 9_999
    assert np.all(reactance_slope(fitted, probe) > 0.0)


def test_capacitance_convention_gap_shift():
    tc = transmon_limit_check(50.0, ratios=(0.01,))
    shift = float(tc.relative_shifts[0])
    assert abs(shift / 0.01 - 0.5) <= 0.1
    assert shift / 0.01 == pytest.approx(0.4829075827526062, rel=1e-6)
