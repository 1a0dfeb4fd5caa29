import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import interpolate  # the oracle for CubicSpline
from scipy.linalg import LinAlgError, solve_banded  # the oracle for _gtsv

from circadia import (
    BiasedCosine,
    Cosine,
    Custom,
    PolynomialEven,
    ValidationError,
    classify_asymptotics,
)
from circadia.potentials import CubicSpline, _gtsv, _piecewise_cubic

TWO_PI = 2.0 * math.pi


def all_kinds():
    phi = np.linspace(0.0, TWO_PI, 4001)
    return [
        Cosine(),
        BiasedCosine(math.pi / 3.0),
        PolynomialEven([0.0, 0.5]),
        PolynomialEven([0.1, -0.25, 0.03]),
        Custom(phi, -np.cos(phi)),
    ]


def test_cosine_values_and_periodicity():
    p = Cosine()
    assert p.u(0.0) == pytest.approx(-1.0, abs=1e-15)
    assert p.du(0.0) == pytest.approx(0.0, abs=1e-15)
    assert p.du(math.pi / 2.0) == pytest.approx(1.0, rel=1e-15)
    assert p.d2u(0.0) == pytest.approx(1.0, rel=1e-15)
    phi = np.linspace(-7.0, 7.0, 101)
    assert np.max(np.abs(p.u(phi + TWO_PI) - p.u(phi))) < 1e-12
    assert p.is_periodic
    assert p.symmetric


def test_biased_cosine_shifts_the_minimum():
    ext = 1.1
    p = BiasedCosine(ext)
    assert p.u(ext) == pytest.approx(-1.0, rel=1e-15)
    assert p.du(ext) == pytest.approx(0.0, abs=1e-15)
    assert p.is_periodic
    assert not BiasedCosine(math.pi / 3.0).symmetric
    assert BiasedCosine(0.0).symmetric


def test_polynomial_even_matches_direct_evaluation():
    p = PolynomialEven([0.25, -0.5, 0.125])
    phi = np.linspace(-3.0, 3.0, 41)
    expect = 0.25 - 0.5 * phi**2 + 0.125 * phi**4
    assert np.max(np.abs(p.u(phi) - expect)) < 1e-12
    d1 = -1.0 * phi + 0.5 * phi**3
    assert np.max(np.abs(p.du(phi) - d1)) < 1e-12
    d2 = -1.0 + 1.5 * phi**2
    assert np.max(np.abs(p.d2u(phi) - d2)) < 1e-12
    assert p.symmetric
    assert not p.is_periodic


def test_custom_tabulation_of_cosine_tracks_the_exact_kind():
    phi = np.linspace(-8.0, 8.0, 6001)
    p = Custom(phi, -np.cos(phi))
    dense = np.linspace(-7.5, 7.5, 2000)
    assert np.max(np.abs(p.u(dense) + np.cos(dense))) < 1e-8
    assert np.max(np.abs(p.du(dense) - np.sin(dense))) < 1e-6


def test_custom_refuses_extrapolation_and_unsorted_grids(tmp_path):
    phi = np.linspace(0.0, TWO_PI, 512)
    p = Custom(phi, -np.cos(phi))
    with pytest.raises(ValidationError):
        p.u(-1.0)
    with pytest.raises(ValidationError):
        p.u(TWO_PI + 0.5)
    bad = phi.copy()
    bad[10] = bad[12]
    with pytest.raises(ValidationError):
        Custom(bad, -np.cos(bad))
    csv = tmp_path / "pot.csv"
    lines = ["# phi,u"] + [f"{float(a)!r},{float(b)!r}"
                           for a, b in zip(phi, -np.cos(phi))]
    csv.write_text("\n".join(lines))
    q = Custom.from_csv(str(csv))
    probe = np.linspace(0.5, 5.5, 200)
    assert np.max(np.abs(q.u(probe) - p.u(probe))) < 1e-12


BC_TYPES = ("natural", "not-a-knot", "periodic")


def _spline_data(gaps, seed, bc_type):
    """Knots from -1 with the given gaps (times a random scale), random
    values of a random magnitude; periodic data close on y[0]."""
    rng = np.random.default_rng(seed)
    knots = -1.0 + np.concatenate([[0.0], np.cumsum(gaps)]) \
        * 10.0**rng.uniform(-2.0, 2.0)
    values = rng.normal(size=knots.size) * 10.0**rng.uniform(-3.0, 3.0)
    if bc_type == "periodic":
        values[-1] = values[0]
    return knots, values, rng


def _probes(knots, rng):
    lo, hi = float(knots[0]), float(knots[-1])
    width = hi - lo
    return np.concatenate([
        knots,                                   # every knot, both ends
        0.5 * (knots[:-1] + knots[1:]),
        np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        rng.uniform(lo, hi, 32),
        [lo - 2.5 * width, lo - 1e-3 * width,    # outside the table
         hi + 1e-3 * width, hi + 2.5 * width],
    ])


@given(gaps=st.lists(st.floats(0.01, 2.0), min_size=3, max_size=40),
       seed=st.integers(0, 2**32 - 1), bc_type=st.sampled_from(BC_TYPES))
def test_cubic_spline_equals_scipy_bit_for_bit(gaps, seed, bc_type):
    knots, values, rng = _spline_data(gaps, seed, bc_type)
    ours = CubicSpline(knots, values, bc_type)
    oracle = interpolate.CubicSpline(knots, values, bc_type=bc_type)
    assert ours.x.tobytes() == oracle.x.tobytes()
    assert ours.c.shape == oracle.c.shape
    assert ours.c.tobytes() == oracle.c.tobytes()
    probes = np.append(_probes(knots, rng), np.nan)
    for nu in (0, 1, 2):
        got = ours(probes, nu)
        assert got.shape == probes.shape
        assert got.tobytes() == oracle(probes, nu).tobytes(), nu
        assert float(ours(float(probes[3]), nu)) == float(
            oracle(float(probes[3]), nu))


def test_periodic_spline_gives_nan_where_the_period_map_overshoots():
    # (q - x0) % P rounds up to P for the float just below x0, and
    # x0 + P lands past x[-1], where scipy's PPoly answers NaN
    x = np.array([-1.0, 0.0, 1.0, 2.0, 1023.2616121342493])
    y = np.array([1.0, 2.0, -1.0, 0.5, 1.0])
    q = np.array([np.nextafter(-1.0, -np.inf), 0.5])
    oracle = interpolate.CubicSpline(x, y, bc_type="periodic")
    for nu in (0, 1, 2):
        got = CubicSpline(x, y, "periodic")(q, nu)
        assert math.isnan(got[0]) and math.isfinite(got[1])
        assert got.tobytes() == oracle(q, nu).tobytes()


@given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
       pivoting=st.booleans())
def test_gtsv_equals_lapack_bit_for_bit(n, seed, pivoting):
    # magnitudes over 1e-5..1e5; when pivoting, about half the rows get a
    # diagonal below their subdiagonal, so rows are interchanged anywhere
    # in the elimination, else the diagonal dominates
    rng = np.random.default_rng(seed)
    ab, b = rng.standard_normal((3, n)), rng.standard_normal(n)
    ab *= 10.0 ** rng.uniform(-5.0, 5.0, ab.shape)
    b *= 10.0 ** rng.uniform(-5.0, 5.0, n)
    ab[0, 0] = ab[2, -1] = 0.0
    if pivoting:
        rows = np.flatnonzero(rng.random(n - 1) < 0.5)
        ab[1, rows] = ab[2, rows] * rng.uniform(-0.9, 0.9, rows.size)
    else:
        ab[1] = np.abs(ab).sum(axis=0) + 1.0
    want = solve_banded((1, 1), ab, b.reshape(n, 1))[:, 0]
    assert _gtsv(ab, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("du, d, dl", [
    ([2.0, 0.0], [1.0, 4.0, 3.0], [2.0, 0.0]),   # zero pivot mid-loop
    ([0.0], [1.0, 0.0], [0.0]),                  # zero last pivot
])
def test_gtsv_refuses_a_singular_system(du, d, dl):
    ab = np.array([[0.0, *du], d, [*dl, 0.0]])
    b = np.ones(len(d))
    with pytest.raises(LinAlgError):
        solve_banded((1, 1), ab, b)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _gtsv(ab, b)


def test_cubic_spline_refuses_what_it_cannot_build():
    x = np.linspace(0.0, 1.0, 6)
    y = np.sin(x)
    for args in ((x[:3], y[:3]), (x, y[:-1]), (x[::-1], y),
                 (x, np.where(x > 0.5, np.nan, y)), (x, y, "clamped"),
                 (x, y, "periodic")):
        with pytest.raises(ValidationError):
            CubicSpline(*args)


@given(gaps=st.lists(st.floats(0.01, 2.0), min_size=3, max_size=40),
       seed=st.integers(0, 2**32 - 1), bc_type=st.sampled_from(BC_TYPES))
def test_scalar_spline_evaluator_matches_scipy_bit_for_bit(gaps, seed,
                                                          bc_type):
    knots, values, rng = _spline_data(gaps, seed, bc_type)
    spline = interpolate.CubicSpline(knots, values, bc_type=bc_type)
    probes = _probes(knots, rng).tolist()
    for nu in (0, 1, 2):
        evaluate = _piecewise_cubic(spline, nu)
        got = np.array([evaluate(q) for q in probes])
        # the end pieces continue outside the table, also for a periodic
        # spline, whose own call would map q into the period
        want = np.array([float(spline(q, nu, extrapolate=True))
                         for q in probes])
        assert got.tobytes() == want.tobytes(), nu


def test_custom_scalar_path_matches_the_array_path():
    phi = np.linspace(-2.0, 2.0, 41)**3   # non-uniform knots
    p = Custom(phi, np.cos(phi) + 0.1 * phi)
    lo, hi = p.support
    rng = np.random.default_rng(3)
    pts = np.concatenate([phi, rng.uniform(lo, hi, 64)])
    for order in (0, 1, 2):
        whole = p.eval(pts, order)
        one = [p.eval(q, order) for q in pts.tolist()]
        assert all(type(v) is float for v in one)
        assert np.array(one).tobytes() == whole.tobytes()
        assert p.eval(np.float64(pts[5]), order) == whole[5]
        assert p.eval(np.float32(0.5), order) == p.eval(np.array(
            np.float32(0.5)), order)
    for bad in (lo - 1e-12, hi + 1e-12, np.float64(hi + 1.0)):
        with pytest.raises(ValidationError) as scalar:
            p.du(bad)
        with pytest.raises(ValidationError) as array:
            p.du(np.array([bad]))
        assert str(scalar.value) == str(array.value)
    # a NaN is evaluated, not refused, on both paths
    assert math.isnan(p.du(float("nan")))
    assert math.isnan(p.du(np.float64("nan")))
    assert np.isnan(p.du(np.array([float("nan")]))[0])
    # the spline pickles and the scalar evaluators are rebuilt after
    # unpickling (bo-sweep --jobs); both paths evaluate bit for bit
    restored = pickle.loads(pickle.dumps(p))
    for order in (0, 1, 2):
        assert restored.eval(pts, order).tobytes() == p.eval(
            pts, order).tobytes()
        assert [restored.eval(q, order) for q in pts.tolist()] == [
            p.eval(q, order) for q in pts.tolist()]
    with pytest.raises(ValidationError, match="extrapolation"):
        restored.u(hi + 1e-12)


def test_eval_rejects_unknown_order():
    with pytest.raises(ValidationError):
        Cosine().eval(0.0, order=3)


@pytest.mark.parametrize("p", all_kinds(), ids=lambda p: type(p).__name__)
def test_first_derivative_matches_centered_differences(p):
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.5, 5.5, size=24)
    h = 1e-5
    fd = (np.asarray(p.u(pts + h)) - np.asarray(p.u(pts - h))) / (2.0 * h)
    du = np.asarray(p.du(pts))
    scale = np.maximum(np.abs(du), 1.0)
    assert np.max(np.abs(du - fd) / scale) < 1e-6


@pytest.mark.parametrize("p", all_kinds(), ids=lambda p: type(p).__name__)
def test_second_derivative_matches_centered_differences(p):
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.5, 5.5, size=24)
    h = 1e-4
    fd = (np.asarray(p.u(pts + h)) - 2.0 * np.asarray(p.u(pts))
          + np.asarray(p.u(pts - h))) / h**2
    d2 = np.asarray(p.d2u(pts))
    scale = np.maximum(np.abs(d2), 1.0)
    assert np.max(np.abs(d2 - fd) / scale) < 1e-5


@given(phi=st.floats(-50.0, 50.0))
def test_cosine_derivatives_are_exact_trig(phi):
    p = Cosine()
    assert p.u(phi) == pytest.approx(-math.cos(phi), abs=1e-12)
    assert p.du(phi) == pytest.approx(math.sin(phi), abs=1e-12)
    assert p.d2u(phi) == pytest.approx(math.cos(phi), abs=1e-12)


def test_classification_bounded_kind_is_sublinear():
    report = classify_asymptotics(Cosine(), gamma_probe=1.0, phi_max=1e4)
    assert report.tag == "Sublinear1a"
    assert report.measured_tag == "Sublinear1a"


def test_classification_biased_kind_is_asymmetric_sublinear():
    report = classify_asymptotics(BiasedCosine(math.pi / 3.0),
                                  gamma_probe=0.5, phi_max=1e4)
    assert report.tag == "Sublinear1b"
    assert report.measured_tag == "Sublinear1b"


def test_classification_quartic_growth_is_superlinear():
    p = PolynomialEven([0.0, 0.0, 1.0])
    report = classify_asymptotics(p, gamma_probe=1.9, phi_max=1e4)
    assert report.tag == "Superlinear2"


def test_classification_quadratic_is_quasilinear():
    p = PolynomialEven([0.0, 0.5])
    report = classify_asymptotics(p, gamma_probe=1.0, phi_max=1e4)
    assert report.tag == "QuasilinearL"


def test_classification_finite_support_is_inapplicable():
    phi = np.linspace(0.0, TWO_PI, 512)
    report = classify_asymptotics(Custom(phi, -np.cos(phi)),
                                  gamma_probe=1.0, phi_max=1e4)
    assert report.tag == "Unclassified"
    assert "compact-domain" in report.diagnostic


def test_classification_user_tag_wins_over_measurement():
    p = Cosine(class_tag="Superlinear2")
    with pytest.warns(UserWarning, match="keeping the user tag"):
        report = classify_asymptotics(p, gamma_probe=1.0, phi_max=1e4)
    assert report.tag == "Superlinear2"
    assert report.measured_tag == "Sublinear1a"


def test_classification_validates_probe_arguments():
    with pytest.raises(ValidationError):
        classify_asymptotics(Cosine(), gamma_probe=1.0, phi_max=100.0)
    with pytest.raises(ValidationError):
        classify_asymptotics(Cosine(), gamma_probe=2.5, phi_max=1e4)


def test_unknown_class_tag_is_rejected():
    with pytest.raises(ValidationError):
        Cosine(class_tag="Type9")
