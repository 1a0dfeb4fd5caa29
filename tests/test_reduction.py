import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circadia import (
    BiasedCosine,
    ConvergenceError,
    Cosine,
    Custom,
    PhysicalRegimeError,
    PolynomialEven,
    ReducedCircuit,
    UnresolvedClusterError,
    ValidationError,
    branch_table,
    crosscheck_bases,
    effective_potential,
    invertibility_threshold,
    solve_branch_compact,
    solve_branch_extended,
    solve_consistency,
)
from circadia.reduction import (GRID_MIN, RESIDUAL_TOL, _consistency_roots,
                                _coordinates, _du_reach, _locate_minima,
                                _reduced_values, _root_window, _scan_window,
                                _solve_branch)

TWO_PI = 2.0 * math.pi
WINDOW = (0.0, TWO_PI)


def test_zero_drive_has_the_odd_root():
    sol = solve_consistency(Cosine(), 0.5, 0.0, WINDOW)
    assert sol.roots == (0.0,)
    assert sol.invertible
    assert sol.jacobian_min == pytest.approx(0.5, abs=1e-12)


def test_subcritical_root_matches_independent_bracketing():
    # scipy.optimize.brentq on c + 0.5*sin(c) - 1 over [0, 2]
    sol = solve_consistency(Cosine(), 0.5, 1.0, WINDOW)
    assert len(sol.roots) == 1
    r = sol.roots[0]
    assert r == pytest.approx(0.6840366566778294, abs=1e-10)
    assert abs(r + 0.5 * math.sin(r) - 1.0) < 1e-12


def test_supercritical_drive_splits_into_three_branches():
    sol = solve_consistency(Cosine(), 2.0, math.pi, WINDOW)
    assert len(sol.roots) == 3
    # the representative nearest the drive leads the tuple
    assert sol.roots[0] == pytest.approx(math.pi, abs=1e-12)
    assert not sol.invertible
    assert sol.jacobian_min < 0.0
    for r in sol.roots:
        assert abs(r + 2.0 * math.sin(r) - math.pi) < 1e-10


def test_solver_validates_window_and_beta():
    with pytest.raises(ValidationError):
        solve_consistency(Cosine(), 0.5, 0.0, (0.0, 3.0))
    with pytest.raises(ValidationError):
        solve_consistency(Cosine(), -0.1, 0.0, WINDOW)
    with pytest.raises(ValidationError):
        solve_consistency(Cosine(), 0.5, 0.0, (1.0, 1.0))


@given(beta=st.floats(0.0, 0.99), phi=st.floats(-10.0, 10.0))
def test_subcritical_solutions_are_unique_with_tiny_residual(beta, phi):
    sol = solve_consistency(Cosine(), beta, phi,
                            (phi - math.pi, phi + math.pi))
    assert len(sol.roots) == 1
    r = sol.roots[0]
    assert abs(r + beta * math.sin(r) - phi) < 1e-10
    assert sol.invertible


@given(beta=st.floats(1.05, 4.0), phi=st.floats(0.0, TWO_PI))
def test_supercritical_root_count_is_odd(beta, phi):
    sol = solve_consistency(Cosine(), beta, phi,
                            (phi - TWO_PI, phi + TWO_PI))
    assert len(sol.roots) % 2 == 1
    for r in sol.roots:
        assert abs(r + beta * math.sin(r) - phi) < 1e-10


def test_invertibility_thresholds():
    assert invertibility_threshold(Cosine()) == pytest.approx(1.0, abs=1e-10)
    assert invertibility_threshold(PolynomialEven([0.0, 0.5])) == math.inf
    assert invertibility_threshold(
        BiasedCosine(math.pi / 3.0)) == pytest.approx(1.0, abs=1e-10)


def _brent_threshold(p):
    """The scan plus scipy's bounded Brent refinement, as an oracle."""
    from scipy.optimize import minimize_scalar

    a, b = _scan_window(p, 4.0 * TWO_PI)
    grid = np.linspace(a, b, GRID_MIN + 1)
    neg_d2 = -np.asarray(p.d2u(grid), dtype=float)
    i = int(np.argmax(neg_d2))
    res = minimize_scalar(lambda c: float(p.d2u(c)),
                          bounds=(grid[max(i - 2, 0)],
                                  grid[min(i + 2, GRID_MIN)]),
                          method="bounded", options={"xatol": 1e-9})
    peak = max(float(neg_d2[i]), -float(res.fun))
    return 1.0 / peak if peak > 0.0 else math.inf


@pytest.mark.parametrize("p", [
    Cosine(), BiasedCosine(0.4), BiasedCosine(1.3), BiasedCosine(-2.1),
    PolynomialEven([0.0, -0.5, 0.01]), PolynomialEven([0.0, 0.5, -0.01]),
    PolynomialEven([1.0, -0.3, 0.02]), PolynomialEven([0.0, 0.5]),
], ids=lambda p: f"{p.kind}{getattr(p, 'phi_ext', getattr(p, 'coeffs', ''))}")
def test_golden_section_threshold_equals_the_brent_refinement(p):
    assert invertibility_threshold(p) == _brent_threshold(p)


def test_golden_section_threshold_on_a_quartic_peak_off_the_grid():
    # -u'' = -0.4 + 0.36 phi^2 - 0.021 phi^4 peaks at 8/7 off the scan grid;
    # both refinements land within rounding of 7/8
    p = PolynomialEven([0.0, 0.2, -0.03, 0.0007])
    assert invertibility_threshold(p) == pytest.approx(0.875, rel=1e-15)
    assert _brent_threshold(p) == pytest.approx(0.875, rel=1e-15)


@pytest.mark.parametrize("u, lo, hi, n", [
    (lambda x: -np.cos(x) + 0.05 * x**2, -6.0, 6.0, 61),
    (lambda x: -np.cos(x - 0.3) + 0.1 * x**2, -5.0, 5.0, 200),
    (lambda x: np.sin(x) * x, -7.0, 4.0, 97),
    (lambda x: -np.cos(x) + 0.05 * x**2, -6.0, 6.0, 60),
])
def test_table_threshold_finds_the_spline_peak_at_a_knot(u, lo, hi, n):
    # u'' of a cubic spline is piecewise linear, so sup(-u'') is taken at a
    # knot; the refinement never raises beta_crit above the scan's value
    phi = np.linspace(lo, hi, n)
    p = Custom(phi, u(phi))
    exact = 1.0 / float(np.max(-p.d2u(phi)))
    beta_crit = invertibility_threshold(p)
    assert beta_crit == pytest.approx(exact, rel=1e-12)
    grid = np.linspace(lo, hi, GRID_MIN + 1)
    assert beta_crit <= 1.0 / float(np.max(-p.d2u(grid)))


@pytest.mark.parametrize("window", [None, (-12.0, 0.0), (1.0, 5.0)])
def test_table_threshold_takes_the_largest_knot_peak(window):
    # -u'' of this -cos table peaks at several near-equal knots; before the
    # knots joined the scan, the refinement settled on a lower one and put
    # beta_crit 2.6e-6 above 1/max over knots, on the unsafe side
    phi = np.linspace(-12.0, 12.0, 3001)
    p = Custom(phi, -np.cos(phi))
    lo, hi = window or p.support
    inside = phi[(phi >= lo) & (phi <= hi)]
    exact = 1.0 / float(np.max(-p.d2u(inside)))
    beta_crit = invertibility_threshold(p, window)
    assert beta_crit <= exact
    assert beta_crit == pytest.approx(exact, rel=1e-12)


def test_curvature_at_the_minimum_matches_the_closed_form():
    rc = ReducedCircuit.from_ratios(0.3, 10.0, 50.0)  # beta = 0.5
    pot = effective_potential(Cosine(), rc, "CompactPhi", 1024)
    i0 = int(np.argmin(np.abs(pot.coordinates)))
    assert pot.coordinates[i0] == 0.0
    assert pot.Vpp[i0] == pytest.approx(50.0 / 1.5, rel=1e-12)
    assert len(pot.minima) == 1
    loc, curv = pot.minima[0]
    assert abs(loc) < 1e-10
    assert curv == pytest.approx(50.0 / 1.5, rel=1e-8)


def test_zero_coupling_collapses_the_branch_to_the_drive():
    coords = np.linspace(0.0, TWO_PI, 257)
    phi_c = solve_branch_compact(Cosine(), 0.0, coords)
    assert np.max(np.abs(phi_c - coords)) < 1e-12
    rc = ReducedCircuit.from_ratios(0.3, 10.0, 0.0)
    pot = effective_potential(Cosine(), rc, "CompactPhi", 256)
    assert np.max(np.abs(pot.V)) == 0.0


def test_compact_potential_is_periodic():
    rc = ReducedCircuit.from_ratios(0.3, 10.0, 50.0)
    phis = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    a = effective_potential(Cosine(), rc, "CompactPhi", phis)
    b = effective_potential(Cosine(), rc, "CompactPhi", phis + TWO_PI)
    assert np.max(np.abs(a.V - b.V)) < 1e-10


def test_near_critical_minima_count_matches_the_bare_potential():
    rc = ReducedCircuit.from_ratios(0.3, 10.0, 90.0)  # beta = 0.9
    pot = effective_potential(Cosine(), rc, "CompactPhi", 2048)
    assert len(pot.minima) == 1


def test_parametric_derivatives_match_finite_differences():
    rc = ReducedCircuit.from_ratios(0.3, 10.0, 50.0)
    n = 4096
    phis = np.linspace(0.0, TWO_PI, n, endpoint=False)
    pot = effective_potential(Cosine(), rc, "CompactPhi", phis)
    h = phis[1] - phis[0]
    V = pot.V
    fd1 = (-np.roll(V, -2) + 8.0 * np.roll(V, -1)
           - 8.0 * np.roll(V, 1) + np.roll(V, 2)) / (12.0 * h)
    fd2 = (-np.roll(V, -2) + 16.0 * np.roll(V, -1) - 30.0 * V
           + 16.0 * np.roll(V, 1) - np.roll(V, 2)) / (12.0 * h**2)
    scale = np.max(np.abs(pot.Vp))
    assert np.max(np.abs(pot.Vp - fd1)) / scale < 1e-6
    scale2 = np.max(np.abs(pot.Vpp))
    assert np.max(np.abs(pot.Vpp - fd2)) / scale2 < 1e-5


def test_supercritical_quantization_requests_are_refused():
    rc = ReducedCircuit.from_ratios(0.3, 1.0, 2.0)  # beta = 2
    with pytest.raises(PhysicalRegimeError) as err:
        effective_potential(Cosine(), rc, "CompactPhi", 256)
    assert err.value.context["beta_crit"] == pytest.approx(1.0, abs=1e-10)


def test_branch_table_enumerates_the_fold():
    rc = ReducedCircuit.from_ratios(0.3, 1.0, 2.0)  # beta = 2
    coords, rows = branch_table(Cosine(), rc, "CompactPhi", 257)
    assert len(rows) > len(coords)
    counts: dict[float, int] = {}
    for row in rows:
        counts[row[0]] = counts.get(row[0], 0) + 1
    assert max(counts.values()) == 3
    assert min(counts.values()) >= 1


def test_cross_basis_deviation_is_tiny_in_the_subcritical_regime():
    rc = ReducedCircuit.from_ratios(0.3, 10.0, 30.0)  # beta = 0.3
    assert crosscheck_bases(Cosine(), rc, n=512) < 1e-8


def test_cross_basis_check_samples_the_branch_without_minima(monkeypatch):
    import circadia.reduction

    rc = ReducedCircuit.from_ratios(0.3, 10.0, 5.0)
    phis = np.linspace(0.0, TWO_PI, 256, endpoint=False)
    compact = effective_potential(Cosine(), rc, "CompactPhi", phis).V
    extended = effective_potential(Cosine(), rc, "ExtendedX",
                                   math.sqrt(rc.xi) * phis).V

    def no_minima(*args):
        raise AssertionError("crosscheck_bases searched for minima")

    monkeypatch.setattr(circadia.reduction, "_locate_minima", no_minima)
    assert crosscheck_bases(Cosine(), rc, n=256) == float(
        np.max(np.abs(compact - extended)))
    with pytest.raises(PhysicalRegimeError, match="multivalued regime"):
        crosscheck_bases(Cosine(), ReducedCircuit.from_ratios(0.3, 1.0, 2.0))


def test_effective_potential_rejects_unknown_basis():
    rc = ReducedCircuit.from_ratios(0.3, 10.0, 5.0)
    with pytest.raises(ValidationError):
        effective_potential(Cosine(), rc, "Torus", 256)


def test_effective_potential_rejects_a_grid_below_16_points():
    rc = ReducedCircuit.from_ratios(0.3, 10.0, 5.0)
    with pytest.raises(ValidationError, match=">= 16"):
        effective_potential(Cosine(), rc, "CompactPhi", 8)


def test_potential_csv_schema(tmp_path):
    rc = ReducedCircuit.from_ratios(0.3, 10.0, 5.0)
    pot = effective_potential(Cosine(), rc, "CompactPhi", 256)
    path = tmp_path / "pot.csv"
    pot.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# units:")
    assert lines[1] == "coordinate,V,Vp,Vpp,branch_count"
    assert len(lines) == 2 + 256


# A drive just below the fold value 2pi/3 + sqrt(3) of beta = 2: the root pair
# at 2pi/3 -/+ 1.1e-4 sits inside one cell of the 4096-point grid.
FOLD = 2.0 * math.pi / 3.0 + math.sqrt(3.0)


def test_refinement_finds_a_root_pair_inside_one_grid_cell():
    sol = solve_consistency(Cosine(), 2.0, FOLD - 1e-8, WINDOW)
    assert len(sol.roots) == 3
    h = TWO_PI / 4096
    pair = sorted(r for r in sol.roots if abs(r - 2.0 * math.pi / 3.0) < 2e-4)
    assert len(pair) == 2
    assert int(pair[0] // h) == int(pair[1] // h)
    assert pair[1] - pair[0] > 1e-4
    for r in sol.roots:
        assert abs(r + 2.0 * math.sin(r) - (FOLD - 1e-8)) < 1e-10


def test_refinement_gives_up_on_a_tangency_it_cannot_resolve():
    # max f = -3e-12 at 2pi/3: |f| stays under the Lipschitz reach of the
    # cells around the tangency at every refinement level
    with pytest.raises(UnresolvedClusterError) as err:
        solve_consistency(Cosine(), 2.0, FOLD + 3e-12, WINDOW)
    lo, hi = err.value.bracket
    h = TWO_PI / 4096
    assert hi - lo == pytest.approx(h / 128**3, rel=1e-6)
    cell = math.floor(2.0 * math.pi / 3.0 / h)
    assert cell * h <= lo < hi <= (cell + 1) * h
    assert "without a sign change" in str(err.value)


def _closed_form_rows(rc, phi, scale):
    """(V, V', V'', count) at each root for u = -cos, in solver order."""
    roots = solve_consistency(Cosine(), rc.beta, phi, WINDOW).roots
    out = []
    for r in roots:
        u, du, d2u = -math.cos(r), math.sin(r), math.cos(r)
        out.append((rc.lambdaJ * (u + 0.5 * rc.beta * du**2),
                    rc.lambdaJ * du * scale,
                    rc.lambdaJ * d2u / (1.0 + rc.beta * d2u) * scale**2,
                    len(roots)))
    return out


def test_branch_table_rows_match_the_closed_form_in_both_bases():
    rc = ReducedCircuit.from_ratios(0.3, 4.0, 32.0)  # beta = 2
    sqxi = math.sqrt(rc.xi)
    phis = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    _, compact = branch_table(Cosine(), rc, "CompactPhi", phis)
    _, extended = branch_table(Cosine(), rc, "ExtendedX", sqxi * phis)
    assert len(compact) == len(extended) > phis.size
    expected = [(float(phi),) + row for phi in phis
                for row in _closed_form_rows(rc, float(phi), 1.0)]
    assert len(compact) == len(expected)
    for got, want in zip(compact, expected):
        assert got[0] == want[0] and got[4] == want[4]
        assert got[1:4] == pytest.approx(want[1:4], rel=1e-12, abs=1e-12)
    _assert_same_branches(compact, extended, rc.xi)


def _assert_same_branches(compact, extended, xi):
    """Rows of the two bases' tables of one circuit on the same phases:
    equal roots give V alike, V' scaled by 1/sqrt(xi), V'' by 1/xi."""
    sqxi = math.sqrt(xi)
    assert len(compact) == len(extended)
    for (phi, V, Vp, Vpp, n), (x, Vx, Vpx, Vppx, nx) in zip(compact,
                                                            extended):
        assert x == pytest.approx(sqxi * phi, rel=1e-15)
        assert nx == n
        assert Vx == pytest.approx(V, rel=1e-12, abs=1e-12)
        assert Vpx == pytest.approx(Vp / sqxi, rel=1e-12, abs=1e-12)
        assert Vppx == pytest.approx(Vpp / xi, rel=1e-12, abs=1e-12)


def _bisect_scalar(fun, lo: float, hi: float, flo: float, fhi: float,
                   residual: bool = True) -> float:
    """Reference: bisection on one bracket, with _bisect_lanes' stop rule
    (the residual stop only when residual)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if (residual and abs(fm) < RESIDUAL_TOL) or fm == 0.0 \
                or mid in (lo, hi) or (hi - lo) < 1e-16 * max(1.0, abs(mid)):
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    raise ConvergenceError("bisection stalled", detail=(lo, hi))


def _minima_per_cell(p, rc, coords, phi_c, Vp, Vpp, scale):
    """Reference: one _bisect_scalar of u' per sign-change cell of V',
    between the cell's two branch phases, down to the bracket width."""

    def slope(c):
        return float(p.du(np.array([c]))[0])

    minima = []
    for i in range(coords.size):
        if Vp[i] == 0.0:
            if Vpp[i] > 0.0:
                minima.append((float(coords[i]), float(Vpp[i])))
        elif i + 1 < coords.size and Vp[i] < 0.0 < Vp[i + 1]:
            phi = _bisect_scalar(slope, float(phi_c[i]), float(phi_c[i + 1]),
                                 float(Vp[i]), float(Vp[i + 1]),
                                 residual=False)
            minima.append((phi / scale, float(_reduced_values(
                p, rc, np.array([phi]), scale)[2][0])))
    return minima


def _minima_in_coordinates(p, rc, basis, coords, Vp, scale):
    """Reference: the minima as a bisection of V' in the coordinate, one
    branch solve per step, with the curvature at the branch phase of the
    minimum; (location, curvature) per sign-change cell of V'."""

    def phase(c):
        if basis == "CompactPhi":
            return solve_branch_compact(p, rc.beta, np.array([c]))
        return solve_branch_extended(p, rc, np.array([c])) / math.sqrt(rc.xi)

    def slope(c):
        return rc.lambdaJ * float(p.du(phase(c))[0]) * scale

    minima = []
    for i in np.flatnonzero((Vp[:-1] < 0.0) & (Vp[1:] > 0.0)).tolist():
        loc = _bisect_scalar(slope, float(coords[i]), float(coords[i + 1]),
                             float(Vp[i]), float(Vp[i + 1]))
        minima.append((loc, float(_reduced_values(p, rc, phase(loc),
                                                  scale)[2][0])))
    return minima


@pytest.mark.parametrize("basis", ["CompactPhi", "ExtendedX"])
def test_batched_minima_match_the_per_cell_bisection(basis, monkeypatch):
    import circadia.reduction

    rc = ReducedCircuit.from_ratios(0.3, 4.0, 9.6)  # beta = 0.6
    p = BiasedCosine(0.7)
    phis = np.linspace(-7.0 * math.pi, 7.0 * math.pi, 2049)
    coords, scale = _coordinates(
        rc, basis, phis if basis == "CompactPhi" else math.sqrt(rc.xi) * phis)
    # one branch solve serves the samples; the minima make none
    calls = []

    def counted(*args):
        calls.append(args[-1].size)
        return _solve_branch(*args)

    monkeypatch.setattr(circadia.reduction, "_solve_branch", counted)
    pot = effective_potential(p, rc, basis, coords)
    assert calls == [coords.size]
    monkeypatch.undo()
    assert len(pot.minima) == 7
    assert pot.minima == _minima_per_cell(p, rc, coords, pot.phi_c, pot.Vp,
                                          pot.Vpp, scale)
    # the stationary points of u, where a bisection of V' in the
    # coordinate (a branch solve per step) puts them
    for (loc, curv), (ref, ref_curv) in zip(pot.minima, _minima_in_coordinates(
            p, rc, basis, coords, pot.Vp, scale), strict=True):
        assert abs(loc - ref) <= 1e-12
        assert curv == pytest.approx(ref_curv, rel=1e-14, abs=0.0)
    # an exact zero of V' at the left end of the third well's cell
    cell = np.flatnonzero((pot.Vp[:-1] < 0.0) & (pot.Vp[1:] > 0.0))[2]
    Vp = pot.Vp.copy()
    Vp[cell] = 0.0
    got = _locate_minima(p, rc, coords, pot.phi_c, Vp, pot.Vpp, scale)
    assert got == _minima_per_cell(p, rc, coords, pot.phi_c, Vp, pot.Vpp,
                                   scale)
    assert got[2] == (float(coords[cell]), float(pot.Vpp[cell]))
    assert got[:2] + got[3:] == pot.minima[:2] + pot.minima[3:]


_TABLE_PHI = np.linspace(-12.0, 12.0, 2401)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["cosine", "biased", "polynomial", "custom"]),
       basis=st.sampled_from(["CompactPhi", "ExtendedX"]),
       shape=st.floats(0.1, 3.0), xi=st.floats(1.0, 20.0),
       beta_frac=st.floats(0.05, 0.95))
def test_minima_sit_at_the_stationary_points_of_u(kind, basis, shape, xi,
                                                  beta_frac):
    # a biased cosine's bias, a double well's depth, or a tabulated
    # tilted cosine's tilt; beta below the invertibility threshold
    p = {"cosine": lambda: Cosine(),
         "biased": lambda: BiasedCosine(shape),
         "polynomial": lambda: PolynomialEven([0.0, -shape, 0.25]),
         "custom": lambda: Custom(_TABLE_PHI, -np.cos(_TABLE_PHI)
                                  + 0.01 * shape * _TABLE_PHI**2)}[kind]()
    beta = beta_frac * min(invertibility_threshold(p), 10.0)
    rc = ReducedCircuit.from_ratios(0.3, xi, beta * xi**2)
    coords, scale = _coordinates(rc, basis, np.linspace(
        -8.0, 8.0, 513) * (1.0 if basis == "CompactPhi" else math.sqrt(xi)))
    pot = effective_potential(p, rc, basis, coords)
    assert pot.minima
    for c, curv in pot.minima:
        assert abs(float(p.du(np.array([scale * c]))[0])) <= 1e-12
        assert float(p.d2u(np.array([scale * c]))[0]) > 0.0
        assert curv > 0.0


@pytest.mark.parametrize("basis", ["CompactPhi", "ExtendedX"])
def test_a_degenerate_minimum_is_located_at_the_root(basis):
    # u = phi^4: u' = 4 phi^3 falls below 1e-13 within 3e-5 of the
    # minimum at 0, where u'' = 0, so a residual stop ends far from it
    # (1.7e-6, curvature 1.8e-11); the bracket stop ends at the root
    rc = ReducedCircuit.from_ratios(0.3, 1.0, 0.5)
    grid = np.linspace(-1.0, 1.1, 201)
    pot = effective_potential(PolynomialEven([0.0, 0.0, 1.0]), rc, basis,
                              grid)
    [(loc, curv)] = pot.minima
    assert abs(loc) <= 1e-15
    assert 0.0 <= curv <= 1e-28


def _fixed_step_branch(du, coef, du_reach, drives):
    """Reference: the branch solve bisecting every lane for all 110 steps."""
    drives = np.asarray(drives, dtype=float)

    def residual(c):
        return c + coef * np.asarray(du(c), dtype=float) - drives

    w = np.full_like(drives, max(coef * du_reach + 1.0, 1.0))
    lo = drives - w
    hi = drives + w
    for _ in range(80):
        bad_lo = residual(lo) > 0.0
        bad_hi = residual(hi) < 0.0
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        w = np.where(bad_lo | bad_hi, 2.0 * w, w)
        lo = np.where(bad_lo, drives - w, lo)
        hi = np.where(bad_hi, drives + w, hi)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        neg = residual(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("form", ["compact", "extended", "custom"])
def test_branch_lanes_stopped_at_their_fixed_point_keep_every_bit(form):
    # lanes near a root of 0.0 never stall, the others stop at different
    # steps; one-lane calls stop the whole solve early
    rc = ReducedCircuit.from_ratios(0.3, 2.5, 1.5)
    if form == "custom":
        phi = np.linspace(-1010.0, 1010.0, 20201)
        p = Custom(phi, -np.cos(phi) + 1e-3 * phi**2)
    else:
        p = Cosine()
    du, coef = p.du, rc.beta
    if form == "extended":
        sqxi = math.sqrt(rc.xi)
        du, coef = (lambda c: p.du(c / sqxi)), rc.lambdaJ / rc.xi**1.5
    reach = _du_reach(p)
    special = [0.0, 1e-300, -1e-300, 1e3, -1e3]
    spread = np.random.default_rng(5).uniform(-40.0, 40.0, 512)
    for drives in [np.array(special), spread, np.concatenate([special, spread])]:
        got = _solve_branch(du, coef, reach, drives)
        assert np.array_equal(got, _fixed_step_branch(du, coef, reach, drives))
    for d in special + spread[:8].tolist():
        assert np.array_equal(_solve_branch(du, coef, reach, np.array([d])),
                              _fixed_step_branch(du, coef, reach, [d]))


def test_fold_sweeps_give_the_branch_count_or_refuse():
    # f(c) = c + beta*sin(c) - drive has a maximum at c* = acos(-1/beta)
    # and a minimum at 2pi - c*; the drive that puts either on zero is a
    # fold, with 3 roots on one side of it and 1 on the other.
    beta = 2.0
    c_star = math.acos(-1.0 / beta)
    lift = beta * math.sin(c_star)
    folds = [(c_star + lift, c_star, -1.0),
             (TWO_PI - c_star - lift, TWO_PI - c_star, 1.0)]
    offsets = [0.0, 5e-13, -5e-13] + [
        sign * 10.0**-e for e in range(6, 14) for sign in (1.0, -1.0)]
    rc = ReducedCircuit.from_ratios(0.3, 1.0, beta)
    for fold, tangency, three_side in folds:
        resolved = {}
        for offset in offsets:
            try:
                sol = solve_consistency(Cosine(), beta, fold + offset, WINDOW)
            except UnresolvedClusterError as err:
                lo, hi = err.bracket
                assert abs(0.5 * (lo + hi) - tangency) < 1e-5
                continue
            assert offset != 0.0
            assert len(sol.roots) == (3 if offset * three_side > 0 else 1)
            resolved[fold + offset] = len(sol.roots)
        assert {3, 1} <= set(resolved.values())
        drives = np.array(sorted(resolved))
        coords, rows = branch_table(Cosine(), rc, "CompactPhi", drives)
        per_drive = Counter(row[0] for row in rows)
        assert [per_drive[c] for c in coords.tolist()] == [
            resolved[c] for c in drives.tolist()]
        assert all(row[4] == per_drive[row[0]] for row in rows)
        with pytest.raises(UnresolvedClusterError):
            branch_table(Cosine(), rc, "CompactPhi",
                         np.array([fold - 1e-3, fold]))


def test_branch_table_leads_with_the_nearest_root_of_a_double_well():
    # u = -phi^2 + phi^4/4 is not periodic; at beta = 1 the branch solves
    # c^3 - c = drive: three roots for |drive| < 2/(3 sqrt 3), one beyond;
    # each drive's rows start at the root nearest the drive
    p = PolynomialEven([0.0, -1.0, 0.25])
    rc = ReducedCircuit.from_ratios(0.3, 1.0, 1.0)  # beta = 1 > 1/2
    drives = [-1.0, -0.3, 0.1, 0.35, 1.0]
    _, rows = branch_table(p, rc, "CompactPhi", np.array(drives))
    expected = []
    for d in drives:
        real = sorted(r.real for r in np.roots([1.0, 0.0, -1.0, -d])
                      if abs(r.imag) < 1e-9)
        lead = min(real, key=lambda r: abs(r - d))
        for c in [lead] + [r for r in real if r != lead]:
            u, du = -c**2 + 0.25 * c**4, -2.0 * c + c**3
            expected.append((d, rc.lambdaJ * (u + 0.5 * rc.beta * du**2),
                             len(real)))
    assert [c for *_, c in expected] == [1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 1]
    assert [(r[0], r[4]) for r in rows] == [(d, c) for d, _, c in expected]
    assert [r[1] for r in rows] == pytest.approx(
        [v for _, v, _ in expected], rel=1e-10, abs=1e-12)


def _per_drive_rows(p, rc, basis, grid):
    """Reference: branch_table's rows from one solve_consistency per drive
    on the table's window."""
    coords, scale = _coordinates(rc, basis, grid)
    window = _root_window(p, rc.beta, coords * scale)
    rows = []
    for c in coords.tolist():
        roots = solve_consistency(p, rc.beta, c * scale, window).roots
        values = _reduced_values(p, rc, np.array(roots), scale)
        rows += [(c, *v, len(roots)) for v in zip(*map(list, values))]
    return rows


def _near_fold_drives(beta):
    """Drives 1e-6 ... 1e-10 either side of both folds of u = -cos; every
    one resolves (closer ones need a tangency the scan refuses)."""
    c_star = math.acos(-1.0 / beta)
    lift = beta * math.sin(c_star)
    return np.array(sorted(fold + sign * 10.0**-e
                           for fold in (c_star + lift, TWO_PI - c_star - lift)
                           for e in range(6, 11) for sign in (1.0, -1.0)))


@pytest.mark.parametrize("p, ratios, basis, grid", [
    (Cosine(), (0.3, 1.0, 2.0), "CompactPhi", 257),
    (Cosine(), (0.3, 4.0, 32.0), "ExtendedX", 257),
    (Cosine(), (0.3, 1.0, 2.0), "CompactPhi", _near_fold_drives(2.0)),
    (PolynomialEven([0.0, -1.0, 0.25]), (0.3, 1.0, 1.0), "CompactPhi",
     np.array([-1.0, -0.3, 0.1, 0.35, 1.0])),
    (PolynomialEven([0.0, -1.0, 0.25]), (0.3, 1.0, 1.0), "ExtendedX", 64),
], ids=["cosine-fold", "cosine-fold-extended", "near-fold", "double-well",
        "double-well-extended"])
def test_batched_branch_table_equals_per_drive_solves(p, ratios, basis,
                                                      grid):
    rc = ReducedCircuit.from_ratios(*ratios)
    _, rows = branch_table(p, rc, basis, grid)
    assert max(row[4] for row in rows) == 3
    assert rows == _per_drive_rows(p, rc, basis, grid)


def _wide_rows(p, rc, phi, scale):
    """(V, V', V'', count) per root of one drive, found on (-20, 20)."""
    roots = solve_consistency(p, rc.beta, phi, (-20.0, 20.0)).roots
    values = _reduced_values(p, rc, np.array(roots), scale)
    return [(*v, len(roots)) for v in zip(*map(list, values))]


def test_branch_table_window_holds_every_root_of_a_polynomial():
    # u = -phi^2/2 + phi^4/50 at beta = 2: 0.16 c^3 - c = phi has the roots
    # 0 and +-2.5 at phi = 0, and one beyond 3 for phi near 2pi: roots can
    # lie outside the span of the coordinates
    p = PolynomialEven([0.0, -0.5, 0.02])
    rc = ReducedCircuit.from_ratios(0.3, 1.0, 2.0)
    _, rows = branch_table(p, rc, "CompactPhi", 64)
    at_zero = [v for row in rows if row[0] == 0.0 for v in row[1:]]
    assert at_zero == pytest.approx(sum(_wide_rows(p, rc, 0.0, 1.0), ()),
                                    rel=1e-12, abs=1e-12)
    assert sorted(solve_consistency(p, 2.0, 0.0, (-20.0, 20.0)).roots) == \
        pytest.approx([-2.5, 0.0, 2.5], abs=1e-12)
    rc = ReducedCircuit.from_ratios(0.3, 0.1, 0.02)  # beta = 2 again
    coords, rows = branch_table(p, rc, "ExtendedX", 64)
    scale = 1.0 / math.sqrt(rc.xi)
    expected = [(c, *row) for c in coords.tolist()
                for row in _wide_rows(p, rc, c * scale, scale)]
    assert Counter(row[0] for row in rows) == Counter(
        row[0] for row in expected)
    assert len(Counter(row[0] for row in rows)) == 64
    assert sum(rows, ()) == pytest.approx(sum(expected, ()), rel=1e-12,
                                          abs=1e-12)


def _wide_counts(p, beta, drives):
    """Reference: root counts per drive on (-4pi, 6pi), which holds every
    root of a drive in [0, 2pi) while beta*max|u'| <= 2pi."""
    roots, _ = _consistency_roots(p, beta, drives, (-2.0 * TWO_PI,
                                                    3.0 * TWO_PI))
    return [len(rs) for rs in roots]


@pytest.mark.parametrize("basis", ["CompactPhi", "ExtendedX"])
@pytest.mark.parametrize("p, ratios, rows_", [
    (BiasedCosine(0.7), (0.3, 2.0, 1.0), 256),   # beta = 0.25
    (Cosine(), (0.3, 1.0, 5.0), 830),            # beta = 5
], ids=["biased", "cosine-beta-5"])
def test_periodic_branch_tables_keep_the_roots_outside_the_period(
        p, ratios, rows_, basis):
    # the table scans one period, [0, 2pi]; the roots of drives near its
    # ends lie outside it, and were dropped (250 and 768 rows) before the
    # shifted drives were scanned
    rc = ReducedCircuit.from_ratios(*ratios)
    coords, rows = branch_table(p, rc, basis, 256)
    assert len(rows) == rows_
    scale = _coordinates(rc, basis, 256)[1]
    per_drive = Counter(row[0] for row in rows)
    assert [per_drive[c] for c in coords.tolist()] == _wide_counts(
        p, rc.beta, coords * scale)
    # the last drive has roots past 2pi (its only one, or 2 of its 5),
    # found through shifted drives, with the wide window's values
    c = float(coords[-1])
    assert sum((r[1:] for r in rows if r[0] == c), ()) == pytest.approx(
        sum(_wide_rows(p, rc, c * scale, scale), ()), rel=1e-12, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(phi_ext=st.floats(-math.pi, math.pi), beta=st.floats(0.01, 5.0),
       basis=st.sampled_from(["CompactPhi", "ExtendedX"]))
def test_periodic_branch_tables_count_the_roots_of_a_wide_window(
        phi_ext, beta, basis):
    p = BiasedCosine(phi_ext)
    rc = ReducedCircuit.from_ratios(0.3, 2.0, 4.0 * beta)
    coords, rows = branch_table(p, rc, basis, 64)
    per_drive = Counter(row[0] for row in rows)
    scale = _coordinates(rc, basis, 64)[1]
    assert [per_drive[c] for c in coords.tolist()] == _wide_counts(
        p, rc.beta, coords * scale)


def test_both_bases_list_the_same_roots_of_a_polynomial():
    p = PolynomialEven([0.0, -0.5, 0.02])
    rc = ReducedCircuit.from_ratios(0.3, 0.1, 0.02)  # beta = 2
    sqxi = math.sqrt(rc.xi)
    phis = np.linspace(-TWO_PI, TWO_PI, 97)
    _, compact = branch_table(p, rc, "CompactPhi", phis)
    _, extended = branch_table(p, rc, "ExtendedX", sqxi * phis)
    assert max(row[4] for row in compact) == 3
    _assert_same_branches(compact, extended, rc.xi)


def test_branch_bracket_too_narrow_for_the_force_is_widened():
    # a reach of 0 understates |u'| = 10|c|: the first bracket drive -/+ 1
    # misses the root of 11c = drive until it is doubled enough times
    drives = np.array([-50.0, -5.0, 0.0, 0.5, 5.0, 50.0])
    got = _solve_branch(lambda c: 10.0 * c, 1.0, 0.0, drives)
    assert got == pytest.approx(drives / 11.0, rel=1e-13, abs=1e-15)
