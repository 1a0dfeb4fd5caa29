import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circadia import (
    FosterModel,
    StructureMismatchError,
    ValidationError,
    eval_admittance,
    fit_foster,
    reactance_slope,
    read_admittance_csv,
)
from circadia.foster import POLE_MARGIN, _linear_residual


def sample_grid(model: FosterModel, lo: float, hi: float, n: int,
                margin: float = 0.02) -> np.ndarray:
    om = np.linspace(lo, hi, n)
    for _, pole in model.resonances:
        om = om[np.abs(om - pole) > margin * pole]
    return om


def fit_of(model: FosterModel, lo: float, hi: float, n: int):
    om = sample_grid(model, lo, hi, n)
    imy = eval_admittance(model, om).imag
    return fit_foster(np.stack([om, imy], axis=1), len(model.resonances))


def test_evaluator_matches_a_direct_transcription():
    m = FosterModel(c_inf=2.2, l_zero=0.8, resonances=((0.5, 2.0), (0.2, 5.0)))
    om = np.linspace(0.3, 8.0, 50)
    om = om[(np.abs(om - 2.0) > 0.05) & (np.abs(om - 5.0) > 0.05)]
    got = eval_admittance(m, om)
    direct = 1j * (2.2 * om
                   - 1.0 / (0.8 * om)
                   + om / (0.5 * (4.0 - om**2))
                   + om / (0.2 * (25.0 - om**2)))
    assert np.max(np.abs(got - direct)) < 1e-12
    assert np.max(np.abs(got.real)) == 0.0


def test_evaluator_guards_poles_and_domain():
    m = FosterModel(c_inf=1.0, resonances=((0.5, 3.0),))
    with pytest.raises(ValidationError, match="margin"):
        eval_admittance(m, [3.0 * (1.0 + 1e-12)])
    # the slope is refused inside the same margin, at the pole itself too
    for omega in (3.0, 3.0 * (1.0 - 1e-12), 3.0 * (1.0 + 0.9 * POLE_MARGIN)):
        with pytest.raises(ValidationError, match="margin"):
            reactance_slope(m, [1.0, omega])
    assert reactance_slope(m, [3.0 * (1.0 + 2.0 * POLE_MARGIN)])[0] > 0.0
    with pytest.raises(ValidationError):
        eval_admittance(m, [0.0])
    with pytest.raises(ValidationError):
        eval_admittance(m, [-1.0])


def test_model_validation():
    with pytest.raises(ValidationError):
        FosterModel(c_inf=-1.0)
    with pytest.raises(ValidationError):
        FosterModel(c_inf=1.0, l_zero=0.0)
    with pytest.raises(ValidationError):
        FosterModel(c_inf=1.0, resonances=((0.0, 2.0),))
    with pytest.raises(ValidationError):
        FosterModel(c_inf=1.0, resonances=((0.5, 5.0), (0.5, 2.0)))


def test_capacitor_only_fit_is_exact():
    true = FosterModel(c_inf=0.37)
    om = np.linspace(1.0, 5.0, 40)
    imy = eval_admittance(true, om).imag
    model, report = fit_foster(np.stack([om, imy], axis=1), 0)
    assert model.c_inf == pytest.approx(0.37, rel=1e-12)
    assert model.resonances == ()
    assert model.l_zero is None
    assert report.rms_residual < 1e-12


def test_single_resonance_round_trip():
    true = FosterModel(c_inf=1.0, resonances=((0.5, 3.0),))
    model, report = fit_of(true, 0.5, 6.0, 214)
    assert model.c_inf == pytest.approx(1.0, rel=1e-12)
    assert model.resonances[0][0] == pytest.approx(0.5, rel=1e-12)
    assert model.resonances[0][1] == pytest.approx(3.0, rel=1e-12)
    assert report.rms_residual < 1e-12
    assert model.l_zero is None


def test_inductive_branch_round_trip():
    true = FosterModel(c_inf=2.0, l_zero=0.7, resonances=((0.3, 4.0),))
    model, report = fit_of(true, 0.4, 8.0, 220)
    assert model.l_zero is not None
    assert model.c_inf == pytest.approx(2.0, rel=1e-12)
    assert model.l_zero == pytest.approx(0.7, rel=1e-12)
    assert model.resonances[0][0] == pytest.approx(0.3, rel=1e-12)
    assert model.resonances[0][1] == pytest.approx(4.0, rel=1e-12)
    assert report.rms_residual < 1e-12


def test_two_resonance_round_trip():
    true = FosterModel(c_inf=1.5, resonances=((0.5, 2.0), (0.2, 5.0)))
    model, report = fit_of(true, 0.3, 9.0, 260)
    assert model.c_inf == pytest.approx(1.5, rel=1e-12)
    for (el, om), (el_t, om_t) in zip(model.resonances, true.resonances):
        assert el == pytest.approx(el_t, rel=1e-12)
        assert om == pytest.approx(om_t, rel=1e-12)
    assert report.rms_residual < 1e-12
    # Gauss-Newton converges quadratically on data the model fits exactly
    assert 1 <= report.sweeps <= 5


def test_pole_count_mismatch_reports_what_was_found():
    true = FosterModel(c_inf=1.5, resonances=((0.5, 2.0), (0.2, 5.0)))
    om = sample_grid(true, 0.3, 9.0, 260)
    imy = eval_admittance(true, om).imag
    with pytest.raises(StructureMismatchError) as err:
        fit_foster(np.stack([om, imy], axis=1), 1)
    assert len(err.value.detected) == 2
    assert err.value.detected[0] == pytest.approx(2.0, rel=0.05)
    assert err.value.detected[1] == pytest.approx(5.0, rel=0.05)


def test_fit_rejects_malformed_samples():
    om = np.linspace(1.0, 5.0, 40)
    imy = om.copy()
    with pytest.raises(ValidationError):
        fit_foster(np.stack([om, imy], axis=1), -1)
    with pytest.raises(ValidationError, match="samples"):
        fit_foster(np.stack([om[:5], imy[:5]], axis=1), 1)
    dup = om.copy()
    dup[3] = dup[2]
    with pytest.raises(ValidationError):
        fit_foster(np.stack([dup, imy], axis=1), 0)
    with pytest.raises(ValidationError, match="dissipative"):
        fit_foster(np.stack([om.astype(complex), imy + 0.1j], axis=1), 0)
    lossless = np.stack([om.astype(complex), 1j * imy], axis=1)
    model, _ = fit_foster(lossless, 0)
    assert model.c_inf == pytest.approx(1.0, rel=1e-12)


def test_reactance_slope_is_positive_between_poles():
    m = FosterModel(c_inf=1.0, l_zero=0.5, resonances=((0.5, 3.0),))
    om = np.linspace(0.05, 9.0, 4001)
    om = om[np.abs(om - 3.0) > 1e-3]
    assert np.min(reactance_slope(m, om)) > 0.0
    # slope agrees with a centered difference of Im Y
    h = 1e-6
    probe = np.array([0.7, 2.0, 4.1, 7.3])
    fd = (eval_admittance(m, probe + h).imag
          - eval_admittance(m, probe - h).imag) / (2.0 * h)
    assert np.max(np.abs(fd - reactance_slope(m, probe))
                  / reactance_slope(m, probe)) < 1e-6


@given(
    c_inf=st.floats(0.1, 5.0),
    el=st.floats(0.05, 2.0),
    pole=st.floats(0.5, 5.0),
)
def test_single_resonance_recovery_over_random_models(c_inf, el, pole):
    # ranges keep the pole's near-field above the c_inf ramp between
    # adjacent samples, so one decrease always brackets it
    true = FosterModel(c_inf=c_inf, resonances=((el, pole),))
    om = sample_grid(true, 0.3 * pole, 2.2 * pole, 140, margin=0.02)
    imy = eval_admittance(true, om).imag
    model, _ = fit_foster(np.stack([om, imy], axis=1), 1)
    assert model.resonances[0][1] == pytest.approx(pole, rel=1e-13)
    assert model.resonances[0][0] == pytest.approx(el, rel=1e-12)
    assert model.c_inf == pytest.approx(c_inf, rel=1e-11)


@given(
    c_inf=st.floats(0.0, 5.0),
    el=st.floats(0.05, 5.0),
    pole=st.floats(0.5, 20.0),
    with_l=st.booleans(),
)
def test_slope_positivity_is_structural(c_inf, el, pole, with_l):
    m = FosterModel(c_inf=c_inf, l_zero=0.4 if with_l else None,
                    resonances=((el, pole),))
    om = np.geomspace(0.01, 100.0, 301)
    om = om[np.abs(om - pole) > 1e-4 * pole]
    assert np.min(reactance_slope(m, om)) > 0.0


def test_csv_reader_skips_comments_and_rejects_junk(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("# comment\nomega,imy\n1.0,2.0\n2.0,3.0\n")
    arr = read_admittance_csv(str(path))
    assert arr.shape == (2, 2)
    assert arr[1, 1] == 3.0
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ValidationError, match="no admittance samples"):
        read_admittance_csv(str(empty))
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\noops,3.0\n")
    with pytest.raises(ValidationError, match="malformed"):
        read_admittance_csv(str(bad))


def test_fit_is_the_least_squares_optimum_on_data_it_cannot_match():
    # Im Y = tan(omega) has poles at pi/2 and 3pi/2 but is no finite Foster
    # form; the fit must still sit at the minimum of the rms over the poles
    om = np.linspace(0.1, 6.0, 300)
    samples = np.stack([om, np.tan(om)], axis=1)
    model, report = fit_foster(samples, 2)
    # the rms that one-pole-at-a-time coordinate descent reaches here
    assert report.rms_residual <= 0.053476121556544964 * (1.0 + 1e-12)
    assert report.sweeps <= 8
    poles = model.omegas
    for k in range(poles.size):
        for sign in (1.0, -1.0):
            nudged = poles.copy()
            nudged[k] *= 1.0 + sign * 1e-7
            rms = _linear_residual(om, np.tan(om), nudged, False)[0]
            assert rms >= report.rms_residual


@pytest.mark.parametrize("seed", range(5))
def test_noisy_samples_keep_the_poles_to_the_noise_level(seed):
    true = FosterModel(c_inf=1.0,
                       resonances=((0.5, 1.5), (0.8, 3.0), (1.2, 4.5)))
    om = sample_grid(true, 0.5, 6.0, 300)
    imy = eval_admittance(true, om).imag
    rng = np.random.default_rng(seed)
    noisy = imy * (1.0 + 1e-8 * rng.standard_normal(imy.size))
    model, report = fit_foster(np.stack([om, noisy], axis=1), 3)
    assert np.max(np.abs(model.omegas / true.omegas - 1.0)) < 1e-9
    assert report.rms_residual < 1e-6


def test_sparse_samples_keep_each_pole_in_its_bracket():
    # 16 samples: full Gauss-Newton steps overshoot the brackets here and
    # are halved back inside them
    true = FosterModel(c_inf=1.0, resonances=((0.05, 1.7), (1.0, 2.7)))
    om = sample_grid(true, 0.3, 6.0, 16, margin=0.01)
    imy = eval_admittance(true, om).imag
    model, report = fit_foster(np.stack([om, imy], axis=1), 2)
    assert np.max(np.abs(model.omegas / true.omegas - 1.0)) < 1e-12
    assert report.rms_residual < 1e-12
    # each pole between the same two samples as the true one
    assert np.array_equal(np.searchsorted(om, model.omegas),
                          np.searchsorted(om, true.omegas))
