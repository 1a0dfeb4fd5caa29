import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, eig_banded, eigh
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, splu

import circadia.spectra
from circadia import (
    BiasedCosine,
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
from circadia.spectra import _ground_along


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
    assert r.meta["slices"] == 1
    assert r.meta["edge_counts"] == [2, 6]
    assert 0.0 < r.meta["count_delta"] < 1e-10 * r.spectral_scale
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


def _fd4_dense(v, h, c):
    band = _fd4_band_oracle(v, h, c)
    H = np.diag(band[0])
    for off in (1, 2):
        H += np.diag(band[off, :-off], off) + np.diag(band[off, :-off], -off)
    return H


@settings(max_examples=30)
@given(
    n=st.integers(128, 400),
    half_width=st.floats(5.0, 12.0),
    c_kin=st.floats(0.25, 2.0),
    quad=st.floats(0.0, 2.0),
    amp=st.floats(-20.0, 20.0),
    omega=st.floats(0.2, 3.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    first=st.integers(0, 30),
    count=st.integers(1, 90),
)
@example(n=300, half_width=10.0, c_kin=1.0, quad=0.5, amp=5.0, omega=1.0,
         phase=0.0, first=3, count=90)
# a one-level window at the bottom of a box: its upper edge needs 4 counts
@example(n=128, half_width=6.125, c_kin=0.25, quad=0.625, amp=0.0,
         omega=1.0, phase=0.0, first=0, count=1)
def test_window_slices_match_the_dense_spectrum(
        n, half_width, c_kin, quad, amp, omega, phase, first, count):
    def v_func(q):
        return quad * q**2 + amp * np.cos(omega * q + phase)

    spec = HamiltonianSpec(variant="Extended1D", v_func=v_func, c_kin=c_kin,
                           grid={"half_width": half_width, "n": n})
    q = np.linspace(-half_width, half_width, n)
    full = np.linalg.eigvalsh(_fd4_dense(v_func(q), q[1] - q[0], c_kin))
    last = first + count - 1
    # window edges halfway between neighbours: counts up to 90 levels, so
    # up to three 32-level slices
    lo = full[0] - 1.0 if first == 0 else 0.5 * (full[first - 1] + full[first])
    hi = 0.5 * (full[last] + full[last + 1])
    win = eigenvalues_in_window(spec, float(lo), float(hi))
    expect = full[first:last + 1]
    assert win.k == count
    assert np.all(np.abs(win.eigenvalues - expect)
                  <= 1e-10 * np.maximum(1.0, np.abs(expect)))
    assert np.max(win.residual_norms) < 1e-8 * win.spectral_scale
    assert win.meta["slices"] >= math.ceil(count / 32)
    assert win.meta["edge_counts"] == [first, last + 1]
    # edges placed on returned levels keep them inside
    again = eigenvalues_in_window(spec, float(win.eigenvalues[0]),
                                  float(win.eigenvalues[-1]))
    assert again.k == count
    assert np.all(np.abs(again.eigenvalues - expect)
                  <= 1e-10 * np.maximum(1.0, np.abs(expect)))


def test_inertia_count_matches_the_dense_spectrum_and_a_superlu_factor():
    # the count against dense eigenvalues at shifts between levels; delta
    # against 4*eps*|| |L||U| ||_1 of SuperLU's unpivoted factor
    rng = np.random.default_rng(3)
    n = 80
    band = np.zeros((3, n))
    band[0] = rng.uniform(-5.0, 5.0, n)
    band[1, :-1] = rng.uniform(-2.0, 2.0, n - 1)
    band[2, :-2] = rng.uniform(-1.0, 1.0, n - 2)
    H = sp.diags([band[2, :-2], band[1, :-1], band[0], band[1, :-1],
                  band[2, :-2]], [-2, -1, 0, 1, 2], format="csc")
    full = np.linalg.eigvalsh(H.toarray())
    for j in (0, 7, 40, 78):
        s = 0.5 * (full[j] + full[j + 1])
        count, delta = circadia.spectra._count_below(band, s)
        lu = splu((H - s * sp.identity(n)).tocsc(), permc_spec="NATURAL",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        growth = np.asarray(abs(lu.L).sum(axis=0)).ravel() @ abs(lu.U)
        assert count == j + 1 == np.count_nonzero(lu.U.diagonal() < 0)
        assert math.isclose(delta, 4.0 * np.finfo(float).eps
                            * np.max(growth), rel_tol=1e-9)


def _list_count_below(band, s):
    """Reference: the inertia count with its pivots and multipliers kept in
    growing lists, read back by negative index."""
    a0, a1, a2 = (band[0] - s).tolist(), band[1].tolist(), band[2].tolist()
    d, l1, l2 = [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]
    try:
        for i in range(len(a0)):
            x2 = a2[i - 2] / d[-2]
            x1 = (a1[i - 1] - x2 * l1[-1] * d[-2]) / d[-1]
            d.append(a0[i] - x1 * x1 * d[-1] - x2 * x2 * d[-2])
            l1.append(x1)
            l2.append(x2)
    except ZeroDivisionError as exc:
        raise ConvergenceError(f"zero pivot in the count at s={s!r}") from exc
    d, l1, l2 = np.array(d[2:]), np.abs(l1[2:]), np.abs(l2[2:])
    cd = np.abs(d) * (1.0 + np.append(l1[1:], 0.0) + np.append(l2[2:], [0, 0]))
    growth = cd + np.append(0.0, cd[:-1] * l1[1:]) \
        + np.append([0.0, 0.0], cd[:-2] * l2[2:])
    return (int(np.count_nonzero(d < 0)),
            float(4.0 * np.finfo(float).eps * np.max(growth)))


@pytest.mark.parametrize("n", [2, 3, 17, 300])
def test_inertia_count_equals_the_list_based_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(8):
        band = np.zeros((3, n))
        band[0] = rng.uniform(-5.0, 5.0, n)
        band[1, :-1] = rng.uniform(-2.0, 2.0, n - 1)
        band[2, :-2] = rng.uniform(-1.0, 1.0, n - 2)
        for s in rng.uniform(-8.0, 8.0, 6):
            assert circadia.spectra._count_below(band, s) \
                == _list_count_below(band, s)
        # a shift equal to the first diagonal entry makes the first pivot
        # exactly zero
        for fn in (circadia.spectra._count_below, _list_count_below):
            with pytest.raises(ConvergenceError, match="zero pivot"):
                fn(band, band[0, 0])


def test_edge_levels_stay_inside_under_the_worst_count_delta_allows(
        monkeypatch):
    # a count may put a level within its delta of s on either side; this
    # one always errs against the window, yet edges placed on returned
    # levels must keep them
    spec = HamiltonianSpec(
        variant="Extended1D", c_kin=1.0, grid={"half_width": 10.0, "n": 600},
        v_func=lambda q: 12.0 * (1.0 - np.cos(q)) + 0.05 * q**2)
    first = eigenvalues_in_window(spec, 1.0, 60.0).eigenvalues
    lo, hi = float(first[0]), float(first[-1])
    count = circadia.spectra._count_below

    def against_the_window(H, s):
        c, delta = count(H, s)
        if s < lo:
            c += int(np.count_nonzero((first >= s) & (first < s + delta)))
        elif s > hi:
            c -= int(np.count_nonzero((first < s) & (first > s - delta)))
        return c, delta

    monkeypatch.setattr(circadia.spectra, "_count_below", against_the_window)
    again = eigenvalues_in_window(spec, lo, hi)
    assert again.k == first.size
    assert np.max(np.abs(again.eigenvalues - first)) < 1e-12 * 60.0


@pytest.mark.parametrize("where, offset", [
    ("upper edge", 1), ("lower edge", -1), ("interior", 1), ("interior", -1),
])
def test_a_count_the_slices_contradict_is_refused(monkeypatch, where, offset):
    # a count that puts a level into a slice where Lanczos finds none (or
    # takes one out of a slice that has it) leaves a Ritz value outside
    # its slice; the edge counts themselves carry the certificate
    spec = HamiltonianSpec(variant="Extended1D", v_func=lambda q: 0.5 * q**2,
                           c_kin=0.5, grid={"half_width": 12.0, "n": 1024})
    lo, hi = 2.0, 70.0
    count = circadia.spectra._count_below

    def miscount(H, s):
        c, delta = count(H, s)
        hit = {"upper edge": s > hi, "lower edge": s < lo,
               "interior": lo < s < hi}[where]
        return c + offset * hit, delta

    assert eigenvalues_in_window(spec, lo, hi).meta["slices"] >= 3
    monkeypatch.setattr(circadia.spectra, "_count_below", miscount)
    with pytest.raises(ConvergenceError, match="edge counts give"):
        eigenvalues_in_window(spec, lo, hi)


def test_later_edge_counts_start_clear_of_the_last_delta(monkeypatch):
    # a box-proxy-size window (6284 points, 64 levels): the first count at
    # lo - 8*eps*s is blind too near the edge and moves out, the upper edge
    # starts beyond the lower edge's delta and keeps its first count
    L, n = 20.0 * math.pi, 6284
    spec = HamiltonianSpec(variant="Extended1D", c_kin=0.5,
                           v_func=lambda q: 0.5 * (1.0 - np.cos(q)),
                           grid={"half_width": L, "n": n})
    lo, hi = 2.0, 6.0
    q = np.linspace(-L, L, n)
    full = eig_banded(_fd4_band_oracle(0.5 * (1.0 - np.cos(q)), q[1] - q[0],
                                       0.5), lower=True, eigvals_only=True)
    expect = full[(full >= lo) & (full <= hi)]
    count, shifts = circadia.spectra._count_below, []

    def recorded(band, s):
        shifts.append(s)
        return count(band, s)

    monkeypatch.setattr(circadia.spectra, "_count_below", recorded)
    win = eigenvalues_in_window(spec, lo, hi)
    below = [s for s in shifts if s < lo]
    above = [s for s in shifts if s > hi]
    assert len(below) == 2 and len(above) == 1
    assert len(shifts) == 3 + win.meta["slices"] - 1
    assert win.k == expect.size == 64
    assert win.meta["edge_counts"] == [int(np.count_nonzero(full < lo)),
                                       int(np.count_nonzero(full <= hi))]
    assert np.all(np.abs(win.eigenvalues - expect)
                  <= 1e-10 * np.maximum(1.0, np.abs(expect)))


@settings(max_examples=30)
@given(
    n=st.integers(128, 400),
    half_width=st.floats(5.0, 12.0),
    c_kin=st.floats(0.25, 2.0),
    quad=st.floats(0.0, 2.0),
    amp=st.floats(-20.0, 20.0),
    omega=st.floats(0.2, 3.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    first=st.integers(0, 30),
    count=st.integers(0, 90),
)
@example(n=300, half_width=10.0, c_kin=1.0, quad=0.5, amp=5.0, omega=1.0,
         phase=0.0, first=3, count=90)
@example(n=128, half_width=6.125, c_kin=0.25, quad=0.625, amp=0.0,
         omega=1.0, phase=0.0, first=0, count=0)
@example(n=128, half_width=6.125, c_kin=0.25, quad=0.625, amp=0.0,
         omega=1.0, phase=0.0, first=0, count=1)
@example(n=200, half_width=8.0, c_kin=1.0, quad=0.5, amp=-3.0, omega=2.0,
         phase=1.0, first=7, count=2)
@example(n=200, half_width=8.0, c_kin=1.0, quad=0.5, amp=-3.0, omega=2.0,
         phase=1.0, first=12, count=0)
# a free box whose window starts 1.0 below a dense ladder: the bottom
# slice doubles until it holds a level
@example(n=300, half_width=12.0, c_kin=0.25, quad=0.0, amp=0.0, omega=1.0,
         phase=0.0, first=0, count=40)
def test_window_ends_match_the_dense_spectrum(
        n, half_width, c_kin, quad, amp, omega, phase, first, count):
    def v_func(q):
        return quad * q**2 + amp * np.cos(omega * q + phase)

    q = np.linspace(-half_width, half_width, n)
    full = np.linalg.eigvalsh(_fd4_dense(v_func(q), q[1] - q[0], c_kin))
    last = first + count - 1
    # window edges halfway between neighbours; an empty window sits in the
    # lower half of the gap below level `first`
    lo = full[0] - 1.0 if first == 0 else 0.5 * (full[first - 1] + full[first])
    hi = 0.5 * (full[last] + full[last + 1]) if count \
        else 0.5 * (lo + full[first])
    got = circadia.spectra._window_ends(v_func(q), float(q[1] - q[0]), c_kin,
                                       float(lo), float(hi))
    if count == 0:
        assert got == (0, None, None)
        return
    assert got[0] == count
    ends = np.array(got[1:])
    expect = full[[first, last]]
    assert np.all(np.abs(ends - expect)
                  <= 1e-10 * np.maximum(1.0, np.abs(expect)))


@pytest.mark.parametrize("end, offset", [("bottom", 1), ("top", -1),
                                         ("bottom", -1), ("top", 1)])
def test_a_count_an_end_slice_contradicts_is_refused(monkeypatch, end,
                                                     offset):
    # the inner count point of an end slice miscounts by one: one level
    # too many in the slice leaves a Ritz value outside it, one too few
    # lets the slice's Lanczos return the second level as the end level,
    # which the count beside that end level refuses
    spec = HamiltonianSpec(variant="Extended1D", v_func=lambda q: 0.5 * q**2,
                           c_kin=0.5, grid={"half_width": 12.0, "n": 1024})
    lo, hi = 2.0, 70.0
    w = eigenvalues_in_window(spec, lo, hi).eigenvalues
    q, h = circadia.spectra._box_axis(12.0, 1024)
    got = circadia.spectra._window_ends(0.5 * q**2, h, 0.5, lo, hi)
    assert got[0] == w.size and np.allclose(got[1:], w[[0, -1]], rtol=1e-12)
    count, inner = circadia.spectra._count_below, []

    def miscount(H, s):
        # only the first count inside that half of the window errs
        c, delta = count(H, s)
        hit = not inner and {"bottom": lo < s < 0.5 * (lo + hi),
                             "top": 0.5 * (lo + hi) < s < hi}[end]
        if hit:
            inner.append(s)
        return c + offset * hit, delta

    monkeypatch.setattr(circadia.spectra, "_count_below", miscount)
    with pytest.raises(ConvergenceError, match="edge counts give"):
        circadia.spectra._window_ends(0.5 * q**2, h, 0.5, lo, hi)


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


@pytest.mark.parametrize("xi", [0.0, -1.0])
@pytest.mark.parametrize("variant", ["FastAtX", "Regularized2D"])
def test_frozen_fast_oscillator_refuses_a_non_positive_xi(variant, xi):
    spec = HamiltonianSpec(variant=variant, potential=Cosine(), kappa=0.5,
                           xi=xi, lambdaJ=0.5)
    with pytest.raises(ValidationError, match="xi must be > 0"):
        lowest_eigenvalues(spec, 1)


def test_extended_pair_at_kappa_zero_needs_zero_coupling():
    def spec(lam):
        return HamiltonianSpec(variant="Regularized2D", potential=Cosine(),
                               kappa=0.0, xi=1.0, lambdaJ=lam,
                               grid={"nx": 64, "ny": 64})

    # the slow axis decouples: every slow grid point holds the oscillator
    w = lowest_eigenvalues(spec(0.0), 2).eigenvalues
    assert w == pytest.approx([0.5, 0.5], abs=1e-3)
    with pytest.raises(ValidationError, match="singular"):
        lowest_eigenvalues(spec(0.5), 1)


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


@settings(max_examples=20)
@given(
    n=st.integers(3, 40),
    rows=st.integers(1, 6),
    cols=st.sampled_from([(), (3,), (2, 3)]),
    seed=st.integers(0, 2**16),
)
def test_band_apply_equals_the_dense_matrix(n, rows, cols, seed):
    # the FD4 band of every 1D residual, then a random complex Hermitian
    # band as wide as a contracted one; any trailing shape of x
    rng = np.random.default_rng(seed)
    fd4 = _fd4_band_oracle(rng.standard_normal(n), 0.1, 0.7)
    # the padding at the end of each band row must not be read
    wide = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    wide[0] = wide[0].real
    for ab in (fd4, wide):
        dense = np.diag(ab[0]).astype(ab.dtype)
        for d in range(1, min(ab.shape[0], n)):
            dense += np.diag(ab[d, :n - d], -d) \
                + np.diag(ab[d, :n - d].conj(), d)
        x = rng.standard_normal((n, *cols)) \
            + 1j * rng.standard_normal((n, *cols))
        got = circadia.spectra._band_apply(ab, x)
        want = np.tensordot(dense, x, axes=1)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(want)))


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
    (RuntimeError("Factor is exactly singular"), False),
    (RuntimeError("unexpected"), False),
    (TypeError("bad operand"), False),
])
def test_only_solver_failures_become_convergence_errors(monkeypatch, exc,
                                                        reported):
    def failing_eigsh(*args, **kwargs):
        raise exc

    monkeypatch.setattr(circadia.spectra, "eigsh", failing_eigsh)
    two_mode = HamiltonianSpec(variant="Regularized2D", potential=Cosine(),
                               kappa=0.5, xi=1.0, lambdaJ=0.5,
                               grid={"nx": 64, "ny": 64})
    expected = ConvergenceError if reported else type(exc)
    # every route through the shared shift-invert core: 2D, 1D lowest-k, BO
    for solve in (lambda: lowest_eigenvalues(two_mode, 2),
                  lambda: lowest_eigenvalues(_harmonic_1d(), 2),
                  lambda: bo_fast_ground(0.5, 1.0, 0.5, Cosine(), 1.0)):
        with pytest.raises(expected) as info:
            solve()
        if reported:
            assert info.value.__cause__ is exc


def _harmonic_1d(half_width=8.0, c_kin=1.0):
    return HamiltonianSpec(variant="Extended1D", v_func=lambda q: q**2,
                           c_kin=c_kin, grid={"half_width": half_width,
                                              "n": 256})


def test_a_1d_shift_above_the_ground_level_is_reported(monkeypatch):
    spec = _harmonic_1d()
    lam0 = lowest_eigenvalues(spec, 1).eigenvalues[0]
    sigma = float(lam0) + 1.0
    monkeypatch.setattr(circadia.spectra, "_weyl_shift",
                        lambda *args: sigma)
    with pytest.raises(ConvergenceError, match=f"sigma={sigma!r}") as info:
        lowest_eigenvalues(spec, 2)
    assert isinstance(info.value.__cause__, LinAlgError)


def test_a_refused_ground_certificate_returns_no_level(monkeypatch):
    spec = _harmonic_1d()
    factor = circadia.spectra.cholesky_banded
    calls = []

    def refuse_second(*args, **kwargs):
        # each solve factors twice: first the shift-invert OPinv, then the
        # ground certificate
        calls.append(1)
        if len(calls) % 2 == 0:
            raise LinAlgError("not positive definite")
        return factor(*args, **kwargs)

    monkeypatch.setattr(circadia.spectra, "cholesky_banded", refuse_second)
    with pytest.raises(ConvergenceError, match="ground Ritz value"):
        lowest_eigenvalues(spec, 1)
    with pytest.raises(ConvergenceError, match="ground Ritz value"):
        bo_fast_ground(0.5, 1.0, 0.5, Cosine(), 1.0, n=256)


def test_a_missed_ground_level_fails_the_certificate(monkeypatch):
    # Lanczos that skips the ground level: the Cholesky just below the
    # returned first level must refuse, since lambda_0 lies under it
    pairs = circadia.spectra._shift_invert_pairs

    def skip_ground(ab, sigma, npairs):
        w, c = pairs(ab, sigma, npairs + 1)
        return w[1:], c[:, 1:]

    monkeypatch.setattr(circadia.spectra, "_shift_invert_pairs", skip_ground)
    with pytest.raises(ConvergenceError, match="ground Ritz value") as info:
        lowest_eigenvalues(_harmonic_1d(), 2)
    assert isinstance(info.value.__cause__, LinAlgError)


def test_mirror_symmetric_double_well_returns_both_doublet_members():
    # exact parity: v(q) = v(-q) on the grid, so a parity-even start vector
    # would be orthogonal to every odd level
    def v_func(q):
        v = 2.0 * (q**2 - 4.0)**2
        return 0.5 * (v + v[::-1])

    spec = HamiltonianSpec(variant="Extended1D", v_func=v_func, c_kin=0.5,
                           grid={"half_width": 5.0, "n": 600})
    q = np.linspace(-5.0, 5.0, 600)
    full = eig_banded(_fd4_band_oracle(v_func(q), q[1] - q[0], 0.5),
                      lower=True, eigvals_only=True)[:4]
    # two tunnelling doublets, each split far below its distance to the next
    assert full[1] - full[0] < 1e-3 * (full[2] - full[1])
    assert full[3] - full[2] < 1e-3 * (full[2] - full[1])
    r = lowest_eigenvalues(spec, 4)
    assert np.all(np.abs(r.eigenvalues - full)
                  <= 1e-10 * np.maximum(1.0, np.abs(full)))
    assert np.max(r.residual_norms) < 1e-8 * r.spectral_scale


@pytest.mark.parametrize("kappa", [0.6, 0.45, 0.3])
def test_bo_ladder_ground_levels_match_the_full_banded_spectrum(kappa):
    # the bench's bo_ladder points at production grid size (2400-2800 fast
    # grid points), where the lowest-k solves of bo-sweep run
    xi, lambdaJ = 10.0, 5.0
    xs = np.linspace(-3.0, 3.0, 7)
    # bo-sweep's continuation chain over the same points, from x = 0
    along = _ground_along(kappa, xi, lambdaJ, Cosine(), xs, 3)
    for x, e_along in zip(xs, along):
        e0 = bo_fast_ground(kappa, xi, lambdaJ, Cosine(), float(x))
        r = lowest_eigenvalues(HamiltonianSpec(
            variant="FastAtX", potential=Cosine(), kappa=kappa, xi=xi,
            lambdaJ=lambdaJ, frozen_x=float(x)), 1)
        n, L = r.meta["n"], r.meta["half_width"]
        assert n >= 2400
        y = np.linspace(-L, L, n)
        v = 0.5 * (y - kappa * x)**2 \
            - kappa**2 * (lambdaJ / xi) * np.cos(y / (kappa * math.sqrt(xi)))
        lam0 = eig_banded(_fd4_band_oracle(v, y[1] - y[0], 0.5), lower=True,
                          eigvals_only=True)[0]
        assert abs(e0 - lam0) <= 1e-10 * max(1.0, abs(lam0))
        assert abs(e_along - lam0) <= 1e-10 * max(1.0, abs(lam0))
        assert r.meta["sigma"] <= lam0
        assert r.meta["shift_gap"] == r.eigenvalues[0] - r.meta["sigma"]


def _two_mode_spec(basis, kappa, xi, lambdaJ, n=64, n_fast=None,
                   potential=None, ng=0.0, L=None):
    """n slow points; n_fast fast states (odd for compact), by default n
    extended points or the compact basis's own cutoff; Cosine by default;
    L the slow half-width (Lx or L_phi), by default the spec's."""
    if basis == "extended":
        grid = {"nx": n, "ny": n_fast or n}
    else:
        grid = {"n_phi": n}
        if n_fast:
            grid["n_max_fast"] = n_fast // 2
    if L is not None:
        grid["Lx" if basis == "extended" else "L_phi"] = L
    return HamiltonianSpec(variant="Regularized2D",
                           potential=potential or Cosine(), kappa=kappa,
                           xi=xi, lambdaJ=lambdaJ, ng=ng, basis_y=basis,
                           grid=grid)


def _fd4_csr(n, h, c):
    """c*p^2 on n box points as a symmetric CSR matrix."""
    band = _fd4_band_oracle(np.zeros(n), h, c)
    return sp.diags([band[2, :-2], band[1, :-1], band[0], band[1, :-1],
                     band[2, :-2]], [-2, -1, 0, 1, 2], format="csr")


def _kron_oracle(spec, k):
    """The 2D grid operator as a sparse matrix, assembled by Kronecker
    products from the written-out stencil and the parts of either basis."""
    if spec.basis_y == "extended":
        x, y, V = circadia.spectra._extended_parts(spec, k)
        kx = _fd4_csr(x.size, x[1] - x[0], 0.5 * spec.kappa**2)
        ky = _fd4_csr(y.size, y[1] - y[0], 0.5)
        return sp.kron(kx, sp.identity(y.size)) \
            + sp.kron(sp.identity(x.size), ky) + sp.diags(V.ravel())
    phi, h_fast, phi1, c2 = circadia.spectra._compact_parts(spec, k)
    eye = sp.identity(h_fast.shape[0], dtype=complex)
    return sp.kron(_fd4_csr(phi.size, phi[1] - phi[0], spec.kappa**4), eye) \
        + sp.kron(sp.diags(0.5 * c2 * phi**2), eye) \
        + sp.kron(sp.identity(phi.size), sp.csr_matrix(h_fast)) \
        + sp.kron(sp.diags(-c2 * phi), sp.csr_matrix(phi1))


def _assembled(spec, k):
    """Oracle grid operator, and the Weyl shift, meta and units as the 2D
    solve makes them: the shift comes from the first rung's sweep of the
    fast blocks, its margin widened by the mirror gap."""
    _, sweep, _, norm, gap, meta, units = circadia.spectra._two_mode(spec, k)
    eps, chi = sweep(circadia.spectra._FIRST_RUNG + 1)
    sigma = circadia.spectra._weyl_shift(eps[:, 0], chi.shape[1], norm, gap)
    return _kron_oracle(spec, k), sigma, meta, units


@settings(max_examples=10)
@given(
    basis=st.sampled_from(["extended", "compact"]),
    kappa=st.floats(0.3, 0.9),
    xi=st.floats(1.0, 60.0),
    frac=st.floats(0.0, 1.0),
    cols=st.integers(1, 5),
)
def test_two_mode_product_equals_the_kron_oracle(basis, kappa, xi, frac,
                                                 cols):
    spec = _two_mode_spec(basis, kappa, xi, frac * xi**2)
    apply = circadia.spectra._two_mode(spec, 2)[0]
    H = _kron_oracle(spec, 2)
    rng = np.random.default_rng(cols)
    for shape in ((H.shape[0],), (H.shape[0], cols)):
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = H @ psi
        got = apply(psi)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _loose_shift(spec, H):
    """The shifts the 2D builders took before the Weyl bound: V.min() - 1
    (extended) and the Gershgorin row-sum bound of H less 1 (compact)."""
    if spec.basis_y == "extended":
        kap, xi, lam = spec.kappa, spec.xi, spec.lambdaJ
        x = np.linspace(-10.0, 10.0, spec.grid["nx"])
        y = np.linspace(-10.0, 10.0, spec.grid["ny"])
        u = Cosine().u(y / (kap * math.sqrt(xi)))
        V = 0.5 * (y[None, :] - kap * x[:, None])**2 \
            + kap**2 * (lam / xi) * u[None, :]
        return float(V.min()) - 1.0
    off = np.asarray(abs(H).sum(axis=1)).ravel() - abs(H.diagonal())
    return float(np.min(H.diagonal().real - off)) - 1.0


@settings(max_examples=20)
@given(
    basis=st.sampled_from(["extended", "compact"]),
    kappa=st.floats(0.3, 0.9),
    xi=st.floats(1.0, 60.0),
    frac=st.floats(0.0, 1.0),
)
def test_weyl_shift_bounds_the_spectrum_and_beats_the_loose_shifts(
        basis, kappa, xi, frac):
    spec = _two_mode_spec(basis, kappa, xi, frac * xi**2)
    r = lowest_eigenvalues(spec, 2)
    sigma = r.meta["sigma"]
    assert sigma <= r.eigenvalues[0]
    assert r.meta["shift_gap"] == r.eigenvalues[0] - sigma
    H, built_sigma, _, _ = _assembled(spec, 2)
    assert built_sigma == sigma
    assert sigma >= _loose_shift(spec, H)
    assert np.max(r.residual_norms) < 1e-8 * r.spectral_scale
    assert r.meta["dim"] == H.shape[0]
    n_slow = spec.grid["nx"] if basis == "extended" else spec.grid["n_phi"]
    m = r.meta["m"]
    assert 4 <= m <= H.shape[0] // n_slow
    assert r.meta["contracted_dim"] == n_slow * m
    assert len(r.meta["bracket"]) == 2
    assert r.meta["lifted_residuals"] == [float(v) for v in r.residual_norms]
    if m < H.shape[0] // n_slow:
        assert np.all(np.asarray(r.meta["bracket"])
                      <= 1e-10 * np.maximum(1.0, np.abs(r.eigenvalues)))


@pytest.mark.parametrize("basis, kappa, xi, lambdaJ", [
    ("extended", 0.5, 1.0, 0.5),
    ("compact", 0.6, 40.0, 400.0),
])
def test_weyl_shift_returns_the_levels_of_the_loose_shift(basis, kappa, xi,
                                                          lambdaJ):
    spec = _two_mode_spec(basis, kappa, xi, lambdaJ)
    k = 4
    r = lowest_eigenvalues(spec, k)
    H, _, _, _ = _assembled(spec, k)
    v0 = np.ones(H.shape[0]) / math.sqrt(H.shape[0])
    oracle = np.sort(eigsh(
        H, k=k, sigma=_loose_shift(spec, H), which="LM", v0=v0,
        return_eigenvectors=False))
    assert r.meta["sigma"] > _loose_shift(spec, H)
    assert np.all(np.abs(r.eigenvalues - oracle)
                  <= 1e-10 * np.maximum(1.0, np.abs(oracle)))


@pytest.mark.parametrize("basis, k", [("extended", 64 * 64 // 4 + 1),
                                      ("compact", 64 * 65 // 4 + 1)])
def test_oversized_k_is_refused_before_the_2d_assembly(monkeypatch, basis,
                                                       k):
    def no_assembly(*args, **kwargs):
        raise AssertionError("2D operator assembled for an invalid k")

    for name in ("_fd4_bands", "eigh", "eig_banded"):
        monkeypatch.setattr(circadia.spectra, name, no_assembly)
    spec = _two_mode_spec(basis, 0.6, 40.0, 400.0)
    with pytest.raises(ValidationError, match="dimension/4"):
        lowest_eigenvalues(spec, k)


def test_compact_solve_holds_no_full_grid_operator():
    # bench grid (6240 grid points): the blocks' eigenvectors take 6.5 MB; a
    # full-grid sparse operator beside them lifts the traced peak to 40 MB
    tracemalloc.start()
    try:
        table = spectrum_vs_kappa(Cosine(), 40.0, 400.0, [0.6], k=4,
                                  bases=("compact",),
                                  grids={"compact": {"n_phi": 96}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row[6] for row in table.rows] == [""] * 4
    assert peak <= 20e6


def _oracle_levels(spec, k):
    """The full-grid shift-invert solve the contracted basis replaced, its
    levels taken as the Rayleigh quotients of its eigenvectors, as the 2D
    solve reports its own."""
    H, sigma, _, _ = _assembled(spec, k)
    v0 = np.ones(H.shape[0]) / math.sqrt(H.shape[0])
    _, vec = eigsh(H, k=k, sigma=sigma, which="LM", v0=v0)
    rayleigh = np.sum(vec.conj() * (H @ vec), axis=0).real \
        / np.sum(vec.conj() * vec, axis=0).real
    return np.sort(rayleigh)


@settings(max_examples=20)
@given(
    basis=st.sampled_from(["extended", "compact"]),
    kappa=st.floats(0.3, 0.9),
    xi=st.floats(1.0, 60.0),
    frac=st.floats(0.0, 1.0),
    k=st.integers(1, 6),
)
@example(basis="compact", kappa=0.8999999999999999, xi=13.3125,
         frac=0.099609375, k=1)
@example(basis="compact", kappa=0.8367451765579743, xi=1.0, frac=0.0, k=1)
def test_contracted_levels_match_the_full_grid_oracle(basis, kappa, xi, frac,
                                                      k):
    spec = _two_mode_spec(basis, kappa, xi, frac * xi**2)
    r = lowest_eigenvalues(spec, k)
    w = r.eigenvalues
    oracle = _oracle_levels(spec, k)
    scale = np.maximum(1.0, np.abs(oracle))
    assert np.all(np.abs(w - oracle) <= 1e-10 * scale)

    # each level lies in its Kato-Temple bracket [w - delta, w]
    delta = np.asarray(r.meta["bracket"])
    res = np.asarray(r.meta["lifted_residuals"])
    assert np.all(oracle <= w + 1e-13 * scale)
    assert np.all(oracle >= w - delta - 1e-13 * scale)
    gap = w[1:] - res[1:] - w[:-1]
    ok = gap > 0
    assert np.allclose(delta[:-1][ok], res[:-1][ok]**2 / gap[ok],
                       rtol=1e-12, atol=0.0)

    # nested subspaces: no Ritz value rises as m doubles
    sigma = r.meta["sigma"]
    assert sigma <= oracle[0]
    _, sweep, slow, _, _, _, _ = circadia.spectra._two_mode(spec, k)
    previous = None
    m = 1
    while m <= r.meta["m"]:
        eps, chi = sweep(m)
        theta = circadia.spectra._contracted_pairs(eps, chi, slow, sigma,
                                                   k)[0]
        if previous is not None:
            assert np.all(theta <= previous + 1e-12 * scale)
        previous = theta
        m *= 2


def test_a_shift_above_the_contracted_spectrum_is_reported():
    spec = _two_mode_spec("compact", 0.6, 40.0, 400.0)
    _, sweep, slow, _, _, _, _ = circadia.spectra._two_mode(spec, 2)
    eps, chi = sweep(4)
    lowest = circadia.spectra._contracted_pairs(
        eps, chi, slow, _assembled(spec, 2)[1], 1)[0][0]
    sigma = float(lowest) + 1.0
    with pytest.raises(ConvergenceError, match=f"sigma={sigma!r}") as info:
        circadia.spectra._contracted_pairs(eps, chi, slow, sigma, 2)
    assert isinstance(info.value.__cause__, LinAlgError)


def test_a_fast_excited_level_stays_in_the_contracted_space(monkeypatch):
    # quadratic pair: exact levels (a+1/2)wp + (b+1/2)wm; the 31st is the
    # fourth fast excitation (a=4, b=0), built on a block level that the
    # first rung (m=4) discards
    kap, xi, lam = 0.9, 1.0, 1.0
    beta = lam / xi**2
    k4 = kap**4
    disc = math.sqrt((k4 + 1.0 + beta) ** 2 - 4.0 * k4 * beta)
    wm = math.sqrt(0.5 * ((k4 + 1.0 + beta) - disc))
    wp = math.sqrt(0.5 * ((k4 + 1.0 + beta) + disc))
    k = 31
    exact = sorted(((a + 0.5) * wp + (b + 0.5) * wm, a)
                   for a in range(6) for b in range(40))[:k]
    assert exact[-1][1] == 4 and all(a < 4 for _, a in exact[:-1])
    exact = np.array([e for e, _ in exact])
    spec = HamiltonianSpec(
        variant="Regularized2D", potential=PolynomialEven([0.0, 0.5]),
        kappa=kap, xi=xi, lambdaJ=lam, basis_y="extended",
        grid={"Lx": 8.0, "nx": 64, "Ly": 10.0, "ny": 64})
    oracle = _oracle_levels(spec, k)
    assert np.max(np.abs(oracle - exact) / exact) < 1e-2
    r = lowest_eigenvalues(spec, k)
    assert np.all(np.abs(r.eigenvalues - oracle) <= 1e-10 * oracle)
    # with the accuracy stops switched off only the guard decides: m=4
    # would return the next a<4 level in place of the a=4 one
    monkeypatch.setattr(circadia.spectra, "_LEVEL_RTOL", math.inf)
    monkeypatch.setattr(circadia.spectra, "_RESIDUAL_RTOL", math.inf)
    r = lowest_eigenvalues(spec, k)
    assert r.meta["m"] > 4
    assert np.all(np.abs(r.eigenvalues - oracle) <= 1e-3 * oracle)


def _ladder_sweeps(dim_fast):
    """The sweep arguments of the contracted ladder, m + 1 a rung."""
    m, args = circadia.spectra._FIRST_RUNG, []
    while True:
        args.append(min(m + 1, dim_fast))
        if m == dim_fast:
            return args
        m = dim_fast if 4 * m > dim_fast else 2 * m


def _block_oracle(spec, k):
    """All eigenpairs of every frozen fast block B_i, by
    eig_banded(select="i") of the written-out extended band or by eigh of
    the dense compact block."""
    if spec.basis_y == "extended":
        _, y, V = circadia.spectra._extended_parts(spec, k)
        return [eig_banded(_fd4_band_oracle(v, y[1] - y[0], 0.5), lower=True,
                           select="i", select_range=(0, y.size - 1))
                for v in V]
    phi, h_fast, phi1, c2 = circadia.spectra._compact_parts(spec, k)
    eye = np.eye(h_fast.shape[0])
    return [eigh(h_fast + 0.5 * c2 * p**2 * eye - c2 * p * phi1)
            for p in phi]


def _check_sweep_against_the_block_oracle(spec):
    """Every ladder sweep against the per-block oracle; returns the number
    of stores the sweeps made."""
    sweep = circadia.spectra._two_mode(spec, 2)[1]
    oracle = _block_oracle(spec, 2)
    n_slow, dim_fast = len(oracle), oracle[0][0].size
    store, stores = None, 0
    for m in _ladder_sweeps(dim_fast):
        eps, chi = sweep(m)
        assert eps.shape == (n_slow, m)
        assert chi.shape == (n_slow, dim_fast, m)
        # a store is made only for a rung that needs more columns than the
        # last one kept; it keeps the next two rungs' need, or the whole
        # compact axis
        if store is None or store.shape[2] < m:
            assert chi.base is not store
            assert chi.base.shape[2] == (dim_fast if spec.basis_y == "compact"
                                         else min(dim_fast, 4 * m - 3))
            stores += 1
        else:
            assert chi.base is store
        store = chi.base
        for i, (w, v) in enumerate(oracle):
            assert np.all(np.abs(eps[i] - w[:m])
                          <= 1e-12 * np.maximum(1.0, np.abs(w[:m])))
            if m < dim_fast and w[m] - w[m - 1] <= 1e-6:
                continue
            # the kept columns span the oracle's lowest-m subspace
            s = np.linalg.svd(chi[i].conj().T @ v[:, :m], compute_uv=False)
            assert np.all(np.abs(s - 1.0) <= 1e-10)
    return stores


@settings(max_examples=10)
@given(
    basis=st.sampled_from(["extended", "compact"]),
    kappa=st.floats(0.3, 0.9),
    xi=st.floats(1.0, 60.0),
    frac=st.floats(0.0, 1.0),
)
def test_the_frozen_block_sweep_matches_the_per_block_solver_at_every_rung(
        basis, kappa, xi, frac):
    _check_sweep_against_the_block_oracle(
        _two_mode_spec(basis, kappa, xi, frac * xi**2))


# blocks that are not mirrors of each other (an asymmetric u, n_g != 0),
# and an odd slow axis, whose middle block is its own mirror
_UNMIRRORED = [
    ("extended", dict(potential=BiasedCosine(0.7))),
    ("compact", dict(potential=BiasedCosine(0.7))),
    ("compact", dict(ng=0.25)),
]
_ODD = [("extended", dict(n=65)), ("compact", dict(n=65))]


@pytest.mark.parametrize("basis, kw", _UNMIRRORED + _ODD)
def test_the_block_sweep_matches_the_per_block_solver_unmirrored_or_odd(
        basis, kw):
    _check_sweep_against_the_block_oracle(
        _two_mode_spec(basis, 0.6, 20.0, 100.0, **kw))


# on 161 fast states the extended stores keep 17, 129 and 161 columns
# (sweeps of 5, 33 and 161 levels); the compact store keeps all 161
@pytest.mark.parametrize("basis, kappa, xi, lambdaJ, stores", [
    ("extended", 0.8, 5.0, 1.0, 3), ("compact", 0.6, 40.0, 400.0, 1)])
def test_a_long_fast_axis_is_swept_in_the_stores_its_rungs_need(
        basis, kappa, xi, lambdaJ, stores):
    assert _check_sweep_against_the_block_oracle(
        _two_mode_spec(basis, kappa, xi, lambdaJ, n_fast=161)) == stores


def _bench_spec(basis):
    grid = circadia.spectra._default_2d_grids(basis, 0.6, 40.0, 400.0)
    grid.update({"extended": {"nx": 96, "ny": 160},
                 "compact": {"n_phi": 96}}[basis])
    return HamiltonianSpec(variant="Regularized2D", potential=Cosine(),
                           kappa=0.6, xi=40.0, lambdaJ=400.0, basis_y=basis,
                           grid=grid)


def test_a_solve_diagonalizes_each_frozen_block_once_per_store(monkeypatch):
    calls = []

    def counted(solver):
        def wrapper(*args, **kwargs):
            calls.append(kwargs)
            return solver(*args, **kwargs)
        return wrapper

    for name in ("eig_banded", "eigh"):
        monkeypatch.setattr(circadia.spectra, name,
                            counted(getattr(circadia.spectra, name)))
    # bench grid: the ladder runs m = 4, 8, 16 on the first store, which
    # solves 48 of the 96 blocks and mirrors the rest
    assert lowest_eigenvalues(_bench_spec("extended"), 4).meta["m"] == 16
    assert len(calls) == 48
    assert not any("select" in kwargs for kwargs in calls)
    # compact ladders that reach the whole charge axis (65 and 83 states)
    # on the store of the first sweep, 32 of 64 blocks solved
    for kappa, xi, lambdaJ in ((0.8, 5.0, 1.0), (0.9, 200.0, 2000.0)):
        calls.clear()
        r = lowest_eigenvalues(_two_mode_spec("compact", kappa, xi, lambdaJ),
                               2)
        assert r.meta["m"] == 2 * r.meta["n_max_fast"] + 1
        assert len(calls) == 32


def _solved_blocks(monkeypatch, spec):
    """The number of frozen blocks the first sweep of spec diagonalizes,
    and the mirror gap of its assembly."""
    calls = []

    def counted(solver):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return solver(*args, **kwargs)
        return wrapper

    for name in ("eig_banded", "eigh"):
        monkeypatch.setattr(circadia.spectra, name,
                            counted(getattr(circadia.spectra, name)))
    parts = circadia.spectra._two_mode(spec, 2)
    parts[1](circadia.spectra._FIRST_RUNG + 1)
    return len(calls), parts[4]


@pytest.mark.parametrize(
    "basis, kw, solved",
    [("extended", {}, 32), ("compact", {}, 32)]
    + [(basis, kw, 33) for basis, kw in _ODD]
    + [(basis, kw, 64) for basis, kw in _UNMIRRORED])
def test_only_a_mirrored_sweep_solves_half_the_blocks(monkeypatch, basis, kw,
                                                      solved):
    spec = _two_mode_spec(basis, 0.6, 20.0, 100.0, **kw)
    count, gap = _solved_blocks(monkeypatch, spec)
    assert count == solved
    if solved == 64:
        assert gap == 0.0


@pytest.mark.parametrize("basis", ["extended", "compact"])
def test_a_mirrored_weyl_shift_lies_below_every_block_solved_directly(basis):
    # the bench grids are antisymmetric only to rounding: the mirrored
    # blocks are off their mirrors by a nonzero gap
    spec = _bench_spec(basis)
    parts = circadia.spectra._two_mode(spec, 4)
    norm, gap = parts[3], parts[4]
    assert gap > 0.0
    eps, chi = parts[1](circadia.spectra._FIRST_RUNG + 1)
    _, sigma, _, _ = _assembled(spec, 4)
    oracle = _block_oracle(spec, 4)
    lowest = np.array([w[0] for w, _ in oracle])
    assert sigma <= np.min(lowest)
    # each stored level, mirrored or solved, is within the gap and the
    # rounding of a block eigensolve of the block's own level
    rounding = chi.shape[1] * np.finfo(float).eps * norm
    for i, (w, _) in enumerate(oracle):
        assert np.all(np.abs(eps[i] - w[:eps.shape[1]]) <= gap + rounding)


@settings(max_examples=10)
@given(
    basis=st.sampled_from(["extended", "compact"]),
    kappa=st.floats(0.3, 0.9),
    xi=st.floats(1.0, 60.0),
    frac=st.floats(0.0, 1.0),
)
def test_a_mirrored_solve_equals_the_solve_of_every_block(basis, kappa, xi,
                                                          frac):
    spec = _two_mode_spec(basis, kappa, xi, frac * xi**2)
    r = lowest_eigenvalues(spec, 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circadia.spectra, "_mirrors", lambda *args: False)
        full = lowest_eigenvalues(spec, 3)
    tol = 1e-12 * np.maximum(1.0, np.abs(full.eigenvalues))
    assert r.meta["m"] == full.meta["m"]
    assert np.all(np.abs(r.eigenvalues - full.eigenvalues) <= tol)
    assert np.all(np.abs(np.subtract(r.meta["bracket"],
                                     full.meta["bracket"])) <= tol)


def _no_block(*args, **kwargs):
    raise AssertionError("a fast block was diagonalized over budget")


def _counted_rungs(monkeypatch):
    """The m of every contracted solve, as it is made."""
    real = circadia.spectra._contracted_pairs
    rungs = []

    def counted(eps, *args):
        rungs.append(eps.shape[1])
        return real(eps, *args)

    monkeypatch.setattr(circadia.spectra, "_contracted_pairs", counted)
    return rungs


@pytest.mark.parametrize("basis", ["extended", "compact"])
def test_an_over_budget_solve_is_refused_before_any_block_is_diagonalized(
        monkeypatch, basis):
    for name in ("eig_banded", "eigh"):
        monkeypatch.setattr(circadia.spectra, name, _no_block)
    monkeypatch.setattr(circadia.spectra, "_MEMORY_BUDGET", 2**20)
    with pytest.raises(ValidationError, match=r"store for m=5 levels needs "
                       r"about \d+\.\d MiB, over the 1\.0 MiB budget"):
        lowest_eigenvalues(_bench_spec(basis), 4)


def test_a_contracted_band_over_budget_is_refused_before_it_is_built(
        monkeypatch):
    # the bench extended store of 17 pairs (2.00 MiB) serves m = 4, 8 and
    # 16; beside it a rung counts a copy of its m eigenvector columns and
    # its lift, which outweighs its band solve: the Ritz coefficients and
    # four grid arrays of 5 vectors (psi, H psi and two temporaries, 2.34
    # MiB), 4.83, 5.32 and 6.28 MiB in all
    monkeypatch.setattr(circadia.spectra, "_MEMORY_BUDGET", 6 * 2**20)
    rungs = _counted_rungs(monkeypatch)
    with pytest.raises(ValidationError, match=r"rung m=16 needs about 6\.3 "
                       r"MiB, over the 6\.0 MiB budget"):
        lowest_eigenvalues(_bench_spec("extended"), 4)
    assert rungs == [4, 8]


def test_the_lifted_ritz_vectors_count_against_the_rung_budget(monkeypatch):
    # 64 x 64 extended, k = 60: the store of 17 pairs (0.54 MiB) and the
    # m = 4 band (0.05 MiB) fit in 1 MiB, but 61 lifted vectors, their
    # products by H and the two temporaries of the lift (7.63 MiB) do not
    monkeypatch.setattr(circadia.spectra, "_MEMORY_BUDGET", 2**20)
    rungs = _counted_rungs(monkeypatch)
    with pytest.raises(ValidationError, match=r"rung m=4 needs about 8\.4 "
                       r"MiB, over the 1\.0 MiB budget"):
        lowest_eigenvalues(_two_mode_spec("extended", 0.6, 40.0, 400.0), 60)
    assert rungs == []


@pytest.mark.parametrize("basis", ["extended", "compact"])
def test_a_solve_allocates_no_more_than_its_largest_counted_rung(
        monkeypatch, basis):
    # 64 x 64 grids at k = 60: the temporaries of the product by H and of
    # the Rayleigh quotients once took the traced peak to twice the largest
    # rung the guard counted (10.7 against 5.1 MiB extended)
    counted = []
    refuse = circadia.spectra._refuse_over_budget

    def recording(what, need):
        if "rung" in what:
            counted.append(need)
        return refuse(what, need)

    monkeypatch.setattr(circadia.spectra, "_refuse_over_budget", recording)
    tracemalloc.start()
    try:
        lowest_eigenvalues(_two_mode_spec(basis, 0.6, 40.0, 400.0), 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counted) == 3 and peak <= max(counted)


def test_a_store_over_budget_is_refused_before_it_is_diagonalized(
        monkeypatch):
    # 64 x 161 extended: the store of 17 pairs (1.34 MiB) serves m = 4, 8,
    # 16; the sweep of 33 makes one of 129 pairs (10.20 MiB) while the
    # caller still holds the first
    spec = _two_mode_spec("extended", 0.8, 5.0, 1.0, n_fast=161)
    monkeypatch.setattr(circadia.spectra, "_MEMORY_BUDGET", 4 * 2**20)
    rungs = _counted_rungs(monkeypatch)
    real = circadia.spectra.eig_banded
    blocks = []

    def counted(*args, **kwargs):
        blocks.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(circadia.spectra, "eig_banded", counted)
    with pytest.raises(ValidationError, match=r"store for m=33 levels needs "
                       r"about 11\.5 MiB, over the 4\.0 MiB budget"):
        lowest_eigenvalues(spec, 2)
    assert rungs == [4, 8, 16]
    # the first store solved 32 of the 64 blocks and mirrored the rest
    assert len(blocks) == 32


def test_bo_fast_ground_widens_a_narrow_grid_once_then_refuses():
    # boundary mass 1.5e-8 on the 3/600 grid: the solve widens to 6/1200
    args = (0.5, 1.0, 0.5, Cosine(), 0.0)
    assert bo_fast_ground(*args, half_width=3.0, n=600) == bo_fast_ground(
        *args, half_width=6.0, n=1200)
    with pytest.raises(ConvergenceError) as exc:
        bo_fast_ground(*args, half_width=1.0, n=200)
    assert exc.value.detail["half_width"] == 2.0


def _cold_and_floor(kappa, xi, lambdaJ, p, x, **grid):
    """bo_fast_ground's cold level at x and 8*eps*s on the grid it was
    solved on, s the Gershgorin bound on max|lambda| there."""
    r = lowest_eigenvalues(HamiltonianSpec(
        variant="FastAtX", potential=p, kappa=kappa, xi=xi, lambdaJ=lambdaJ,
        frozen_x=x, grid=grid), 1)
    L, n = r.meta["half_width"], r.meta["n"]
    v = circadia.spectra._fast_potential(kappa, xi, lambdaJ, p, x,
                                         np.linspace(-L, L, n))
    _, s = circadia.spectra._fd4_operator(v, r.meta["h"], 0.5)
    return r.eigenvalues[0], 8.0 * np.finfo(float).eps * s


@settings(max_examples=20)
@given(
    kappa=st.floats(0.2, 0.7),
    xi=st.floats(0.5, 20.0),
    lambdaJ=st.floats(0.0, 10.0),
    p=st.sampled_from([Cosine(), BiasedCosine(0.7),
                       PolynomialEven([0.0, 0.5, 0.01])]),
    xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
    with_zero=st.booleans(),
    data=st.data(),
)
def test_ground_along_stays_within_rounding_of_the_cold_solve(
        kappa, xi, lambdaJ, p, xs, with_zero, data):
    xs = [x for x in xs if x != 0.0] + ([0.0] if with_zero else [])
    if not xs:
        xs = [1.0]
    start = data.draw(st.integers(0, len(xs) - 1))
    along = _ground_along(kappa, xi, lambdaJ, p, xs, start)
    for x, e in zip(xs, along):
        cold, floor = _cold_and_floor(kappa, xi, lambdaJ, p, x)
        assert abs(e - cold) <= floor


def _counted_cold_solves(monkeypatch):
    calls = []
    cold = circadia.spectra._lowest_fast

    def counted(frozen, x, k):
        calls.append(x)
        return cold(frozen, x, k)

    monkeypatch.setattr(circadia.spectra, "_lowest_fast", counted)
    return calls


def test_a_step_too_large_to_continue_falls_back_to_the_cold_solve(
        monkeypatch):
    # from x = 0 to 40 the ground state moves by kappa*x = 24 along y, far
    # off the neighbour's grid: inverse iteration does not settle within
    # its 8 solves, and the point is solved cold
    calls = _counted_cold_solves(monkeypatch)
    along = _ground_along(0.6, 10.0, 5.0, Cosine(), [0.0, 40.0], 0)
    assert calls == [0.0, 40.0]
    assert along[1] == bo_fast_ground(0.6, 10.0, 5.0, Cosine(), 40.0)
    # a short step continues: only the start is cold
    calls.clear()
    along = _ground_along(0.6, 10.0, 5.0, Cosine(), [0.0, 0.5, 1.0], 0)
    assert calls == [0.0]
    for x, e in zip((0.5, 1.0), along[1:]):
        cold, floor = _cold_and_floor(0.6, 10.0, 5.0, Cosine(), x)
        assert abs(e - cold) <= floor


def test_a_refused_certificate_sends_a_continued_point_to_the_cold_solve(
        monkeypatch):
    calls = _counted_cold_solves(monkeypatch)
    certify = circadia.spectra._cholesky_below
    refusals = []

    def refuse_continued(ab, shift, claim):
        if "continued level" in claim:
            refusals.append(shift)
            raise ConvergenceError(claim)
        return certify(ab, shift, claim)

    monkeypatch.setattr(circadia.spectra, "_cholesky_below", refuse_continued)
    along = _ground_along(0.6, 10.0, 5.0, Cosine(), [-0.5, 0.0, 0.5], 1)
    assert calls == [0.0, 0.5, -0.5] and len(refusals) == 2
    assert along.tolist() == [bo_fast_ground(0.6, 10.0, 5.0, Cosine(), x)
                              for x in (-0.5, 0.0, 0.5)]


def test_ground_along_widens_or_refuses_per_point_like_bo_fast_ground(
        monkeypatch):
    # on the fixed 6/1200 grid the ground state, centred near kappa*x,
    # reaches the end nodes from x = 4 on: those points widen to 12/2400
    # like bo_fast_ground, x = 0 and 2 stay
    args = (0.5, 1.0, 0.5, Cosine())
    xs = np.linspace(0.0, 14.0, 8)
    calls = _counted_cold_solves(monkeypatch)
    along = _ground_along(*args, xs, 0, half_width=6.0, n=1200)
    assert 1 < len(calls) < xs.size
    for x, e in zip(xs, along):
        cold, floor = _cold_and_floor(*args, float(x), half_width=6.0,
                                      n=1200)
        assert abs(e - cold) <= floor
    # a grid too narrow even when widened is refused at the first point
    # that needs it, as bo_fast_ground refuses it there
    with pytest.raises(ConvergenceError, match="grid boundary") as exc:
        _ground_along(*args, [0.0, 0.5], 0, half_width=1.0, n=200)
    assert exc.value.detail["half_width"] == 2.0
    with pytest.raises(ConvergenceError, match="grid boundary"):
        bo_fast_ground(*args, 30.0, half_width=6.0, n=1200)
    with pytest.raises(ConvergenceError, match="grid boundary"):
        _ground_along(*args, [0.0, 10.0, 30.0], 0, half_width=6.0, n=1200)


def _fast_at_x(k, lambdaJ=0.5, **grid):
    return lowest_eigenvalues(HamiltonianSpec(
        variant="FastAtX", potential=Cosine(), kappa=0.5, xi=1.0,
        lambdaJ=lambdaJ, grid=grid), k)


def test_fast_at_x_widens_a_narrow_grid_once_then_refuses():
    # the boundary check bo_fast_ground relies on is FastAtX's own: the
    # 3/600 grid gives the level of 6/1200, the 1/200 grid fails
    narrow = _fast_at_x(1, half_width=3.0, n=600)
    assert narrow.eigenvalues[0] == _fast_at_x(
        1, half_width=6.0, n=1200).eigenvalues[0]
    assert (narrow.meta["half_width"], narrow.meta["n"]) == (6.0, 1200)
    assert narrow.eigenvalues[0] == bo_fast_ground(
        0.5, 1.0, 0.5, Cosine(), 0.0, half_width=3.0, n=600)
    with pytest.raises(ConvergenceError, match="grid boundary") as exc:
        _fast_at_x(1, half_width=1.0, n=200)
    assert exc.value.detail["half_width"] == 2.0
    # a given n below 128 is refused, not raised to 128
    for n in (1, 127):
        with pytest.raises(ValidationError, match=">= 128 points"):
            _fast_at_x(1, half_width=6.0, n=n)
        with pytest.raises(ValidationError, match=">= 128 points"):
            bo_fast_ground(0.5, 1.0, 0.5, Cosine(), 0.0, n=n)


def _effective(coords):
    return SimpleNamespace(coordinates=coords, V=0.5 * coords**2,
                           basis="ExtendedX")


_NAN = float("nan")
# (id, request, message); the half-width, NaN-sample, negative-c_kin, NaN
# window-edge, zero-step and sweep-parameter rows were each, before the
# box axis and the band builder checked their inputs, a ZeroDivisionError,
# a ConvergenceError, a bare ValueError or a silent solve
_MALFORMED = [
    ("k-0", lambda: lowest_eigenvalues(compact_spec(1.0), 0),
     "k must be >= 1"),
    ("extended-without-potential",
     lambda: lowest_eigenvalues(HamiltonianSpec(variant="Extended1D"), 1),
     "needs `effective` or `v_func`"),
    ("effective-non-uniform", lambda: lowest_eigenvalues(HamiltonianSpec(
        variant="Extended1D",
        effective=_effective(np.linspace(-2.0, 2.0, 256)**3)), 1),
     "must be uniform"),
    *[(f"effective-step-{name}", lambda c=c: lowest_eigenvalues(
        HamiltonianSpec(variant="Extended1D", effective=_effective(c)), 1),
       "must be uniform and increasing")
      for name, c in (("zero", np.zeros(256)),
                      ("negative", np.linspace(2.0, -2.0, 256)))],
    ("effective-asymmetric", lambda: lowest_eigenvalues(HamiltonianSpec(
        variant="Extended1D",
        effective=_effective(np.linspace(-4.0, 6.0, 256))), 1),
     "symmetric about 0"),
    ("basis-y-unknown",
     lambda: HamiltonianSpec(variant="Regularized2D", basis_y="torus"),
     "unknown basis_y"),
    ("compact-lambdaJ-negative",
     lambda: lowest_eigenvalues(compact_spec(-1.0), 1),
     "lambdaJ must be >= 0"),
    ("compact-2d-non-periodic", lambda: lowest_eigenvalues(HamiltonianSpec(
        variant="Regularized2D", basis_y="compact",
        potential=PolynomialEven([0.0, 0.5]), kappa=0.6, xi=40.0,
        lambdaJ=400.0, grid={"n_phi": 64}), 1),
     "compact fast axis needs a 2pi-periodic"),
    ("kappa-ladder-zero",
     lambda: spectrum_vs_kappa(Cosine(), 40.0, 400.0, [0.6, 0.0]),
     "kappas must be > 0"),
    ("extended-1d-unread-grid-key", lambda: HamiltonianSpec(
        variant="Extended1D", v_func=lambda q: 0.5 * q**2,
        grid={"N": 256, "halfwidth": 3.0}),
     r"grid key 'N' is not read by Extended1D; allowed: half_width, n$"),
    ("compact-2d-unread-grid-key", lambda: HamiltonianSpec(
        variant="Regularized2D", basis_y="compact", potential=Cosine(),
        kappa=0.6, xi=40.0, lambdaJ=400.0, grid={"nx": 64, "ny": 64}),
     r"grid key 'nx' is not read by Regularized2D \(compact basis_y\); "
     r"allowed: L_phi, n_phi, n_max_fast$"),
    *[(f"extended1d-half-width-{L}",
       lambda L=L: lowest_eigenvalues(_harmonic_1d(L), 1), "half-width")
      for L in (0.0, -1.0, _NAN)],
    *[(f"fast-at-x-half-width-{L}", lambda L=L: _fast_at_x(1, half_width=L),
       "half-width") for L in (0.0, -3.0, _NAN)],
    *[(f"bo-fast-ground-half-width-{L}", lambda L=L: bo_fast_ground(
        0.5, 1.0, 0.5, Cosine(), 0.0, half_width=L, n=600), "half-width")
      for L in (0.0, -3.0, _NAN)],
    *[(f"{basis}-2d-half-width-{L}", lambda basis=basis, L=L:
       lowest_eigenvalues(_two_mode_spec(basis, 0.6, 40.0, 400.0, L=L), 1),
       "half-width")
      for basis in ("extended", "compact") for L in (0.0, -10.0, _NAN)],
    *[(f"box-level-spacings-{L}", lambda L=L: box_level_spacings(0.5, [L]),
       "half-width") for L in (0.0, _NAN)],
    ("extended1d-nan-potential", lambda: lowest_eigenvalues(HamiltonianSpec(
        variant="Extended1D", v_func=lambda q: np.full_like(q, _NAN),
        grid={"half_width": 5.0, "n": 256}), 1),
     "potential samples must be finite"),
    ("naive-ladder-nan-kappa",
     lambda: naive_compact_adiabatic(_NAN, 2.0, 0.1, 3),
     "kappa and xi must be > 0"),
    ("extended1d-negative-c-kin",
     lambda: lowest_eigenvalues(_harmonic_1d(c_kin=-1.0), 1),
     "c_kin must be finite and >= 0"),
    ("window-nan-edge",
     lambda: eigenvalues_in_window(_harmonic_1d(), _NAN, 1.0),
     "window edges must be finite"),
    ("kappa-sweep-xi-zero",
     lambda: spectrum_vs_kappa(Cosine(), 0.0, 0.5, [0.5]), "xi must be > 0"),
    ("kappa-sweep-lambdaJ-minus-xi-squared",
     lambda: spectrum_vs_kappa(Cosine(), 1.0, -1.0, [0.5]), "lambdaJ >= 0"),
]


@pytest.mark.parametrize("request_, message", [r[1:] for r in _MALFORMED],
                         ids=[r[0] for r in _MALFORMED])
def test_malformed_spectral_requests_are_refused(request_, message):
    with pytest.raises(ValidationError, match=message):
        request_()


def test_fast_at_x_checks_every_returned_level_at_the_boundary():
    # harmonic fast mode on 6/1200: five levels stay clear of the end
    # nodes, the sixth reaches them and widens the grid to 12/2400
    five = _fast_at_x(5, lambdaJ=0.0, half_width=6.0, n=1200)
    six = _fast_at_x(6, lambdaJ=0.0, half_width=6.0, n=1200)
    assert five.meta["half_width"] == 6.0
    assert (six.meta["half_width"], six.meta["n"]) == (12.0, 2400)
    assert np.array_equal(six.eigenvalues, _fast_at_x(
        6, lambdaJ=0.0, half_width=12.0, n=2400).eigenvalues)
    assert six.eigenvalues == pytest.approx(np.arange(6) + 0.5, abs=1e-6)


@pytest.mark.parametrize("curvature, verdict", [
    # e0 = c(kappa)*x^2, so U = c/kappa^2 * x^2 and sup|delta| = 4c
    ({0.6: 1.0, 0.45: 3.0, 0.3: 2.0}, "inconclusive"),
    ({0.6: 3.0, 0.45: 2.0, 0.3: 0.1}, "decreasing"),
    ({0.6: 0.36, 0.45: 0.2025, 0.3: 0.09}, "converges-nonzero"),
])
def test_bo_verdict_from_crafted_ground_energies(monkeypatch, curvature,
                                                 verdict):
    def crafted(kappa, xi, lambdaJ, p, xs, half_width=None, n=None):
        # e0 = c*x^2 on the rung, so e0(x) - e0(0) = c*x^2
        return np.array([curvature[kappa] * x**2 for x in xs])

    monkeypatch.setattr(circadia.spectra, "_bo_delta", crafted)
    table = bo_effective_potential([0.6, 0.45, 0.3], [-2.0, 1.0, 2.0],
                                   Cosine(), 1.0, 0.5)
    assert table.sup_abs.tolist() == [4.0 * c for c in curvature.values()]
    assert table.verdict == verdict


def test_naive_ladder_refuses_the_grids_every_1d_solve_refuses():
    with pytest.raises(ValidationError, match="128"):
        naive_compact_adiabatic(0.3, 2.0, 0.1, 3, n=64)
    with pytest.raises(ValidationError, match="dimension/4"):
        naive_compact_adiabatic(0.3, 2.0, 0.1, 33, n=128)
