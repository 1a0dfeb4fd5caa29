import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, eig_banded
from scipy.sparse.linalg import ArpackNoConvergence

import circadia.spectra
from circadia import (
    ConvergenceError,
    Cosine,
    HamiltonianSpec,
    PhysicalRegimeError,
    PolynomialEven,
    ValidationError,
    bo_effective_potential,
    bo_fast_ground,
    box_level_spacings,
    eigenvalues_in_window,
    lowest_eigenvalues,
    naive_compact_adiabatic,
    spectrum_vs_kappa,
    transmon_limit_check,
)


def compact_spec(lambdaJ, ng=0.0, **kw):
    return HamiltonianSpec(variant="Compact1D", potential=Cosine(),
                           lambdaJ=lambdaJ, ng=ng, **kw)


def test_harmonic_ladder_on_the_extended_grid():
    spec = HamiltonianSpec(variant="Extended1D",
                           v_func=lambda q: 0.5 * q**2, c_kin=0.5,
                           grid={"half_width": 12.0, "n": 1024})
    r = lowest_eigenvalues(spec, 5)
    expect = np.arange(5) + 0.5
    assert np.max(np.abs(r.eigenvalues - expect) / expect) < 1e-4
    assert np.all(np.diff(r.eigenvalues) > 0)
    assert np.max(r.residual_norms) < 1e-8 * r.spectral_scale


def test_free_charge_ladder_in_the_compact_basis():
    r = lowest_eigenvalues(compact_spec(0.0), 5)
    assert np.max(np.abs(r.eigenvalues - [0.0, 1.0, 1.0, 4.0, 4.0])) < 1e-12


def test_free_charge_ladder_with_the_halved_coefficient():
    r = lowest_eigenvalues(compact_spec(0.0, charge_half_factor=True), 5)
    assert np.max(np.abs(r.eigenvalues - [0.0, 0.5, 0.5, 2.0, 2.0])) < 1e-12


def test_gate_charge_periodicity_and_reflection():
    for lam in (1.0, 10.0):
        base = lowest_eigenvalues(compact_spec(lam, ng=0.3), 5).eigenvalues
        shifted = lowest_eigenvalues(compact_spec(lam, ng=1.3), 5).eigenvalues
        mirrored = lowest_eigenvalues(compact_spec(lam, ng=-0.3), 5).eigenvalues
        assert np.max(np.abs(base - shifted)) < 1e-10
        assert np.max(np.abs(base - mirrored)) < 1e-10


def test_grid_refinement_is_stable_for_bound_states():
    def solve(n):
        spec = HamiltonianSpec(variant="Extended1D",
                               v_func=lambda q: 25.0 * (1.0 - np.cos(q)),
                               c_kin=1.0, grid={"half_width": 10.0, "n": n})
        return lowest_eigenvalues(spec, 4).eigenvalues

    coarse, fine = solve(1024), solve(2048)
    assert np.max(np.abs(coarse - fine) / np.abs(fine)) < 1e-6


def test_energy_window_solve_matches_the_harmonic_ladder():
    spec = HamiltonianSpec(variant="Extended1D", v_func=lambda q: 0.5 * q**2,
                           c_kin=0.5, grid={"half_width": 12.0, "n": 1024})
    r = eigenvalues_in_window(spec, 2.0, 6.0)
    assert r.k == 4
    assert np.max(np.abs(r.eigenvalues - [2.5, 3.5, 4.5, 5.5])) < 1e-5
    assert np.max(r.residual_norms) < 1e-8 * r.spectral_scale
    with pytest.raises(ValidationError):
        eigenvalues_in_window(compact_spec(1.0), 0.0, 1.0)


def test_window_edges_returned_by_a_solve_stay_inside():
    for amp in (3.0, 12.0, 36.0):
        for n in (256, 1001):
            spec = HamiltonianSpec(
                variant="Extended1D", c_kin=1.0,
                v_func=lambda q, a=amp: a * (1.0 - np.cos(q)) + 0.05 * q**2,
                grid={"half_width": 10.0, "n": n})
            first = eigenvalues_in_window(spec, 1.0, 30.0).eigenvalues
            again = eigenvalues_in_window(spec, float(first[0]),
                                          float(first[-1]))
            assert again.k == first.size
            assert np.max(np.abs(again.eigenvalues - first)) < 1e-12 * 30.0


def test_discretization_contracts_are_enforced():
    with pytest.raises(ValidationError, match="128"):
        lowest_eigenvalues(HamiltonianSpec(
            variant="Extended1D", v_func=lambda q: 0.5 * q**2,
            grid={"half_width": 5.0, "n": 64}), 2)
    with pytest.raises(ValidationError, match="dimension/4"):
        lowest_eigenvalues(compact_spec(0.0, n_max=12), 10)
    with pytest.raises(ValidationError, match="n_max"):
        lowest_eigenvalues(compact_spec(100.0, n_max=12), 2)
    with pytest.raises(ValidationError, match="periodic"):
        lowest_eigenvalues(HamiltonianSpec(
            variant="Compact1D", potential=PolynomialEven([0.0, 0.5]),
            lambdaJ=1.0), 2)
    with pytest.raises(ValidationError, match="unknown variant"):
        HamiltonianSpec(variant="Banded3D")


def test_fast_ground_energy_is_half_without_coupling():
    assert bo_fast_ground(0.4, 1.0, 0.0, Cosine(), 0.0) == pytest.approx(
        0.5, abs=1e-9)
    assert bo_fast_ground(0.4, 1.0, 0.0, Cosine(), 1.7) == pytest.approx(
        0.5, abs=1e-9)
    with pytest.raises(ValidationError):
        bo_fast_ground(0.0, 1.0, 0.0, Cosine(), 0.0)


def test_fast_ground_energy_survives_resolution_doubling():
    e_default = bo_fast_ground(0.5, 1.0, 0.5, Cosine(), 1.0)
    e_fine = bo_fast_ground(0.5, 1.0, 0.5, Cosine(), 1.0, n=4801)
    assert abs(e_default - e_fine) < 1e-8
    assert e_default == pytest.approx(0.4708461845802389, rel=1e-6)


def test_bo_table_validates_the_ladder_and_zero_coupling_vanishes():
    xs = np.linspace(-2.0, 2.0, 7)
    with pytest.raises(ValidationError, match=">= 3"):
        bo_effective_potential([0.5, 0.4], xs, Cosine(), 1.0, 0.5)
    with pytest.raises(ValidationError, match="decreasing"):
        bo_effective_potential([0.3, 0.4, 0.5], xs, Cosine(), 1.0, 0.5)
    table = bo_effective_potential([0.5, 0.4, 0.3], xs, Cosine(), 1.0, 0.0)
    assert np.max(np.abs(table.delta)) < 1e-9
    assert table.U.shape == (3, 7)


def test_naive_adiabatic_ladder_and_its_numerical_check():
    na = naive_compact_adiabatic(0.1, 10.0, 0.0, 4)
    assert na.formula[0] == pytest.approx(7.0711e-4, rel=1e-4)
    assert na.formula[1] / na.formula[0] == pytest.approx(3.0, rel=1e-12)
    assert np.max(np.abs(na.numerical - na.formula) / na.formula) < 0.01
    half = naive_compact_adiabatic(0.1, 10.0, 0.0, 4, charge_half_factor=True)
    assert half.formula[0] == pytest.approx(5.0e-4, rel=1e-12)
    assert np.max(np.abs(half.numerical - half.formula) / half.formula) < 0.01


def test_naive_adiabatic_refuses_the_degeneracy_window():
    with pytest.raises(PhysicalRegimeError):
        naive_compact_adiabatic(0.1, 10.0, 0.505, 3)
    # just outside the window is allowed
    na = naive_compact_adiabatic(0.1, 10.0, 0.52, 3)
    assert na.formula.size == 3


def test_two_mode_ladder_with_quadratic_coupling():
    # exact normal modes from omega^4 - (kappa^4+1+beta) omega^2 + kappa^4 beta = 0
    kap, xi, lam = 0.5, 1.0, 0.5
    beta = lam / xi**2
    k4 = kap**4
    disc = math.sqrt((k4 + 1.0 + beta) ** 2 - 4.0 * k4 * beta)
    wm = math.sqrt(0.5 * ((k4 + 1.0 + beta) - disc))
    wp = math.sqrt(0.5 * ((k4 + 1.0 + beta) + disc))
    spec = HamiltonianSpec(
        variant="Regularized2D", potential=PolynomialEven([0.0, 0.5]),
        kappa=kap, xi=xi, lambdaJ=lam, basis_y="extended",
        grid={"Lx": 9.0, "nx": 192, "Ly": 12.0, "ny": 240})
    r = lowest_eigenvalues(spec, 6)
    exact = 0.5 * (wp + wm) + np.arange(6) * wm
    assert np.max(np.abs(r.eigenvalues - exact) / exact) < 1e-4
    assert np.max(r.residual_norms) < 1e-8 * r.spectral_scale


def test_decoupled_extended_pair_is_a_box_ladder_on_a_tilted_mode():
    kap = 0.1
    spec = HamiltonianSpec(
        variant="Regularized2D", potential=Cosine(), kappa=kap,
        xi=1.0, lambdaJ=0.0, basis_y="extended",
        grid={"Lx": 15.0, "nx": 400, "Ly": 6.0, "ny": 120})
    r = lowest_eigenvalues(spec, 5)
    # mass-weighted zero mode: box of length 2*(Lx/kappa)*sqrt(1+kappa^4)
    # on top of the zero point of the stiff mode sqrt(1+kappa^4)
    length = 2.0 * (15.0 / kap) * math.sqrt(1.0 + kap**4)
    exact = np.array([
        0.5 * math.sqrt(1.0 + kap**4) + 0.5 * (math.pi * n / length) ** 2
        for n in range(1, 6)])
    assert np.max(np.abs(r.eigenvalues - exact) / exact) < 1e-4


def test_decoupled_compact_pair_stacks_charge_states_on_the_fast_mode():
    kap, xi = 0.5, 40.0
    l_phi = 0.45 * math.pi
    spec = HamiltonianSpec(
        variant="Regularized2D", potential=Cosine(), kappa=kap,
        xi=xi, lambdaJ=0.0, basis_y="compact",
        grid={"L_phi": l_phi, "n_phi": 256})
    r = lowest_eigenvalues(spec, 16)
    e = r.eigenvalues
    w_rel = kap**2 * xi * math.sqrt(2.0 + 2.0 * kap**4)
    box_a = (kap**4 / (1.0 + kap**4)) * (math.pi / (2.0 * l_phi)) ** 2
    e0 = 0.5 * w_rel + box_a
    assert abs(e[0] - e0) / e0 < 5e-4
    # center-of-mass box ladder sits between fast quanta: gaps (2m+1)*A
    gaps = np.diff(e[:5])
    expect = box_a * np.array([3.0, 5.0, 7.0, 9.0])
    assert np.max(np.abs(gaps - expect) / expect) < 0.02
    # one fast quantum up reappears at level 14 for this window
    assert abs((e[14] - e[0]) - w_rel) / w_rel < 5e-4


def test_compact_gap_approaches_the_reduced_curvature_prediction():
    xi, lam = 200.0, 2000.0
    table = spectrum_vs_kappa(Cosine(), xi, lam, [0.9, 0.75, 0.6], k=2,
                              bases=("compact",))
    gap_pred = math.sqrt(2.0 * lam / (1.0 + lam / xi**2))
    levels: dict[float, dict[int, float]] = {}
    for row in table.rows:
        assert row[6] == ""
        levels.setdefault(row[0], {})[row[2]] = row[4]
    ratios = [(levels[k][1] - levels[k][0]) / gap_pred
              for k in sorted(levels, reverse=True)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert 0.9 < ratios[-1] < 1.02


def test_sweep_records_per_point_failures_and_continues():
    table = spectrum_vs_kappa(Cosine(), 1.0, 0.5, [0.5, 0.4], k=2,
                              bases=("compact",),
                              grids={"compact": {"n_phi": 32}})
    assert len(table.rows) == 2
    for row in table.rows:
        assert row[2] == -1
        assert math.isnan(row[4])
        assert "ValidationError" in row[6]
    assert sorted({row[0] for row in table.rows}) == [0.4, 0.5]


def test_zero_parasitic_ratio_reproduces_the_bare_convention():
    tc = transmon_limit_check(50.0, ratios=(0.0,))
    assert tc.relative_shifts[0] == 0.0
    assert tc.gap_reference == pytest.approx(9.743298085907973, rel=1e-9)
    with pytest.raises(ValidationError):
        transmon_limit_check(5.0)
    with pytest.raises(ValidationError):
        transmon_limit_check(50.0, ratios=(-0.1,))


def test_free_extended_box_levels_collapse_with_box_size():
    spacings = box_level_spacings(0.5, [8.0, 16.0, 32.0], k=8)
    assert np.all(np.diff(spacings) < 0)
    assert spacings[0] / spacings[1] > 2.0


def _fd4_band_oracle(v, h, c):
    """Lower band of c*p^2 + diag(v), written out from the FD4 stencil."""
    band = np.zeros((3, v.size))
    band[0] = c * 2.5 / h**2 + v
    band[1, :-1] = -c * (4.0 / 3.0) / h**2
    band[2, :-2] = c / 12.0 / h**2
    return band


@settings(max_examples=40)
@given(
    n=st.integers(128, 512),
    half_width=st.floats(5.0, 12.0),
    c_kin=st.floats(0.25, 2.0),
    quad=st.floats(0.0, 2.0),
    quart=st.floats(0.0, 0.5),
    amp=st.floats(-20.0, 20.0),
    omega=st.floats(0.2, 3.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    k=st.integers(1, 8),
    first=st.integers(0, 12),
    count=st.integers(1, 8),
)
def test_select_solves_match_the_full_banded_spectrum(
        n, half_width, c_kin, quad, quart, amp, omega, phase, k, first,
        count):
    def v_func(q):
        return quad * q**2 + quart * q**4 / half_width**2 \
            + amp * np.cos(omega * q + phase)

    spec = HamiltonianSpec(variant="Extended1D", v_func=v_func, c_kin=c_kin,
                           grid={"half_width": half_width, "n": n})
    q = np.linspace(-half_width, half_width, n)
    full = eig_banded(_fd4_band_oracle(v_func(q), q[1] - q[0], c_kin),
                      lower=True, eigvals_only=True)

    def tol(w):
        return 1e-10 * np.maximum(1.0, np.abs(w))

    low = lowest_eigenvalues(spec, k)
    assert low.eigenvalues.size == k
    assert np.all(np.abs(low.eigenvalues - full[:k]) <= tol(full[:k]))
    assert np.max(low.residual_norms) < 1e-8 * low.spectral_scale

    # window edges halfway between neighbours, never on a level
    last = first + count - 1
    lo = full[0] - 1.0 if first == 0 else 0.5 * (full[first - 1] + full[first])
    hi = 0.5 * (full[last] + full[last + 1])
    win = eigenvalues_in_window(spec, float(lo), float(hi))
    expect = full[first:last + 1]
    assert win.k == count
    assert np.all(np.abs(win.eigenvalues - expect) <= tol(expect))
    assert np.max(win.residual_norms) < 1e-8 * win.spectral_scale


@settings(max_examples=25)
@given(
    kappa=st.floats(0.2, 0.9),
    xi=st.floats(0.5, 20.0),
    lambdaJ=st.floats(0.0, 20.0),
    x=st.floats(-3.0, 3.0),
)
def test_fast_at_x_ground_level_equals_bo_fast_ground(kappa, xi, lambdaJ, x):
    e0 = bo_fast_ground(kappa, xi, lambdaJ, Cosine(), x)
    spec = HamiltonianSpec(variant="FastAtX", potential=Cosine(),
                           kappa=kappa, xi=xi, lambdaJ=lambdaJ, frozen_x=x)
    r = lowest_eigenvalues(spec, 1)
    assert abs(r.eigenvalues[0] - e0) <= 1e-12 * max(1.0, abs(e0))
    assert r.residual_norms[0] < 1e-8 * r.spectral_scale


class _BrokenPotential(Cosine):
    def _eval(self, phi, order):
        raise TypeError("broken potential")


def test_programming_errors_propagate_out_of_the_sweep():
    with pytest.raises(TypeError, match="broken potential"):
        spectrum_vs_kappa(_BrokenPotential(), 1.0, 0.5, [0.5], k=2,
                          bases=("extended",))


@pytest.mark.parametrize("exc, reported", [
    (ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0))),
     True),
    (LinAlgError("singular"), True),
    (RuntimeError("Factor is exactly singular"), True),
    (RuntimeError("unexpected"), False),
    (TypeError("bad operand"), False),
])
def test_only_solver_failures_become_convergence_errors(monkeypatch, exc,
                                                        reported):
    def failing_eigsh(*args, **kwargs):
        raise exc

    monkeypatch.setattr(circadia.spectra, "eigsh", failing_eigsh)
    spec = HamiltonianSpec(variant="Regularized2D", potential=Cosine(),
                           kappa=0.5, xi=1.0, lambdaJ=0.5,
                           grid={"nx": 64, "ny": 64})
    expected = ConvergenceError if reported else type(exc)
    with pytest.raises(expected) as info:
        lowest_eigenvalues(spec, 2)
    if reported:
        assert info.value.__cause__ is exc
