"""Routes checked against exact levels.

u = -cos(phi) turns the compact operator coef*(n + n_g)^2 - lambdaJ*cos(phi)
into Mathieu's equation (phi = 2z, q = -2*lambdaJ/coef, E = coef*a/4), so
its levels are Mathieu characteristic values: at n_g = 0 the pi-periodic
ones coef*{a_0, b_2, a_2, b_4, a_4, ...}(q)/4, at n_g = 1/2 the
pi-antiperiodic ones coef*{a_1, b_1, a_3, b_3, ...}(q)/4, sorted.

u = c*phi^2 makes the Born-Oppenheimer fast mode a displaced oscillator:
with beta = lambdaJ/xi^2, e0(x) = 1/2 sqrt(1 + 2c*beta)
+ kappa^2 x^2 c*beta/(1 + 2c*beta).
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import mathieu_a, mathieu_b

import circadia.spectra
from circadia import (
    Cosine,
    HamiltonianSpec,
    PolynomialEven,
    lowest_eigenvalues,
    transmon_limit_check,
)
from circadia.spectra import phase_grid_spectrum


def mathieu_levels(lambdaJ, coef, ng, k):
    """The k lowest exact levels at n_g = 0 or 1/2, and whether scipy's
    characteristic values are usable: for some q, mathieu_a and mathieu_b
    lose their root and return the value of another order of the same kind
    (b_3 = b_5 at q = -15.5, a_4 = a_6 at q = -865), while true values of
    one kind two orders apart differ by 4(m + 1) at q = 0 and by about
    8 sqrt|q| at large |q|, so a difference below 1 marks such a value."""
    q = -2.0 * lambdaJ / coef
    orders = range(int(2 * ng), int(2 * ng) + 2 * k + 2, 2)  # one past
    a = [mathieu_a(m, q) for m in orders]
    b = [mathieu_b(m, q) for m in orders if m]
    usable = bool(np.all(np.diff(a) > 1.0) and np.all(np.diff(b) > 1.0))
    return coef * np.sort(a + b)[:k] / 4.0, usable


def _off(levels, exact):
    return float(np.max(np.abs(levels - exact)
                        / np.maximum(1.0, np.abs(exact))))


@settings(max_examples=60)
@given(lambdaJ=st.floats(0.1, 500.0), coef=st.sampled_from([0.5, 1.0]),
       ng=st.sampled_from([0.0, 0.5]))
def test_compact_levels_are_mathieu_characteristic_values(lambdaJ, coef, ng):
    exact, usable = mathieu_levels(lambdaJ, coef, ng, 5)
    assume(usable)
    w = lowest_eigenvalues(HamiltonianSpec(
        variant="Compact1D", potential=Cosine(), lambdaJ=lambdaJ, ng=ng,
        charge_half_factor=coef == 0.5), 5).eigenvalues
    # scipy's own values carry up to ~1.5e-12 relative at |q| ~ 600
    assert _off(w, exact) <= 5e-12


@settings(max_examples=15)
@given(lambdaJ=st.floats(0.1, 500.0), coef=st.sampled_from([0.5, 1.0]),
       ng=st.sampled_from([0.0, 0.5]))
def test_phase_grid_levels_are_mathieu_characteristic_values(lambdaJ, coef,
                                                             ng):
    exact, usable = mathieu_levels(lambdaJ, coef, ng, 5)
    assume(usable)
    w = phase_grid_spectrum(Cosine(), lambdaJ, ng,
                            charge_half_factor=coef == 0.5)
    assert _off(w, exact) <= 5e-11


@settings(max_examples=20)
@given(lambdaJ=st.floats(10.0, 500.0), coef=st.sampled_from([0.5, 1.0]),
       ng=st.sampled_from([0.0, 0.5]))
def test_transmon_check_gives_the_exact_gap_ratio(lambdaJ, coef, ng):
    ratios = (0.0, 0.01, 0.3)

    def gap(lam):
        (e0, e1), usable = mathieu_levels(lam, coef, ng, 2)
        assume(usable)
        return e1 - e0

    ref = gap(lambdaJ)
    gaps = np.array([gap(lambdaJ * (1.0 + r)) / (1.0 + r) for r in ratios])
    t = transmon_limit_check(lambdaJ, ng, ratios=ratios,
                             charge_half_factor=coef == 0.5)
    assert abs(t.gap_reference - ref) <= 1e-10 * ref
    assert np.all(np.abs(t.gaps_with_cj - gaps) <= 1e-10 * gaps)
    assert t.relative_shifts[0] == 0.0
    assert np.all(np.abs(t.relative_shifts - (ref - gaps) / ref) <= 1e-10)


def quadratic_ground(kappa, xi, lambdaJ, c, x):
    cb = c * lambdaJ / xi**2
    return 0.5 * math.sqrt(1.0 + 2.0 * cb) \
        + kappa**2 * x**2 * cb / (1.0 + 2.0 * cb)


@settings(max_examples=40)
@given(kappa=st.floats(0.05, 1.0), xi=st.floats(0.5, 20.0),
       c=st.sampled_from([0.5, 1.0, 2.0]), cb=st.floats(0.0, 1.5),
       xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_the_bo_rung_of_a_quadratic_potential_is_exact(kappa, xi, c, cb, xs):
    # c*beta <= 1.5 keeps the fast frequency within sqrt(4) of the DVR's
    lambdaJ = cb / c * xi**2
    p = PolynomialEven([0.0, c])
    e0 = [quadratic_ground(kappa, xi, lambdaJ, c, x) for x in xs]
    for x, e in zip(xs, e0):
        level = circadia.spectra._rung_ground(kappa, xi, lambdaJ, p, x)
        assert abs(level - e) <= 2e-13 * e
    delta = circadia.spectra._bo_delta(kappa, xi, lambdaJ, p, xs)
    zero = quadratic_ground(kappa, xi, lambdaJ, c, 0.0)
    for d, e in zip(delta, e0):
        assert abs(d - (e - zero)) <= 2e-13 * e
