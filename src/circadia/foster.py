"""Lossless one-port Foster admittance: evaluation and fitting.

The model is the partial-fraction form

    Y(i omega) = i [ c_inf*omega - 1/(l_zero*omega)
                     + sum_k omega / (L_k (Omega_k^2 - omega^2)) ]

a pole at infinity (shunt capacitance), an optional pole at zero (shunt
inductance), and simple poles at the resonances. Losslessness makes Im Y
strictly increasing between poles (reactance theorem), which is what the
fitter exploits: a decrease between adjacent samples brackets a pole, never
a zero. The parameters other than the poles enter linearly, so the fit
refines the poles alone by variable projection on the least-squares rms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StructureMismatchError, ValidationError
from .sweeps import write_json

POLE_MARGIN = 1e-9


@dataclass(frozen=True)
class FosterModel:
    """Positive-real lossless admittance parameters (SI units)."""

    c_inf: float
    resonances: tuple[tuple[float, float], ...] = ()   # (L_k, Omega_k)
    l_zero: float | None = None

    def __post_init__(self) -> None:
        if not (self.c_inf >= 0.0) or not math.isfinite(self.c_inf):
            raise ValidationError("c_inf must be finite and >= 0")
        if self.l_zero is not None and not (self.l_zero > 0.0):
            raise ValidationError("l_zero must be > 0 when present")
        omegas = []
        for L, om in self.resonances:
            if not (L > 0.0):
                raise ValidationError("resonance inductances must be > 0")
            if not (om > 0.0):
                raise ValidationError("resonance frequencies must be > 0")
            omegas.append(om)
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValidationError("Omega_k must be strictly increasing")

    @property
    def omegas(self) -> np.ndarray:
        return np.array([om for _, om in self.resonances])

    def to_dict(self) -> dict:
        return {
            "c_inf": float(self.c_inf),
            "l_zero": None if self.l_zero is None else float(self.l_zero),
            "resonances": [[float(L), float(om)]
                           for L, om in self.resonances],
        }


def clear_of_poles(m: FosterModel, omega: np.ndarray,
                   margin: float = POLE_MARGIN) -> np.ndarray:
    """Mask of the samples farther than margin*Omega_k from every pole."""
    ok = np.ones(omega.shape, dtype=bool)
    for _, om in m.resonances:
        ok &= np.abs(omega - om) > margin * om
    return ok


def _check_clear_of_poles(m: FosterModel, omega: np.ndarray) -> None:
    ok = clear_of_poles(m, omega)
    if not np.all(ok):
        om = m.omegas[np.argmin(np.abs(m.omegas - omega[~ok][0]))]
        raise ValidationError(f"evaluation within relative margin "
                              f"{POLE_MARGIN} of the pole at {float(om)!r}")


def eval_admittance(m: FosterModel, omega_list) -> np.ndarray:
    """Purely imaginary Y(i*omega) samples.

    Frequencies must stay clear of the resonance poles by a relative margin
    of 1e-9 (and of omega=0 when the inductive branch is present).
    """
    omega = np.atleast_1d(np.asarray(omega_list, dtype=float))
    if np.any(omega <= 0.0):
        raise ValidationError("omega samples must be > 0")
    _check_clear_of_poles(m, omega)
    im = m.c_inf * omega
    if m.l_zero is not None:
        im = im - 1.0 / (m.l_zero * omega)
    for L, om in m.resonances:
        im = im + omega / (L * (om**2 - omega**2))
    return 1j * im


def reactance_slope(m: FosterModel, omega) -> np.ndarray:
    """d(Im Y)/d omega, positive everywhere it is defined (Foster theorem).

    The same pole margin as eval_admittance applies.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    _check_clear_of_poles(m, omega)
    s = np.full_like(omega, m.c_inf)
    if m.l_zero is not None:
        s = s + 1.0 / (m.l_zero * omega**2)
    for L, om in m.resonances:
        s = s + (om**2 + omega**2) / (L * (om**2 - omega**2)**2)
    return s


@dataclass
class FitReport:
    """Residual quality and pole bookkeeping for one Foster fit."""

    rms_residual: float
    detected_poles: list[float]
    sweeps: int
    covariance_proxy: list[float] = field(default_factory=list)


def _design_matrix(omega: np.ndarray, poles: np.ndarray,
                   with_l_zero: bool) -> np.ndarray:
    cols = [omega]
    for om in poles:
        cols.append(omega / (om**2 - omega**2))
    if with_l_zero:
        cols.append(-1.0 / omega)
    return np.stack(cols, axis=1)


def _linear_residual(omega, imy, poles, with_l_zero):
    A = _design_matrix(omega, poles, with_l_zero)
    coef, _, _, _ = np.linalg.lstsq(A, imy, rcond=None)
    r = A @ coef - imy
    return float(np.sqrt(np.mean(r**2))), coef, A


def fit_foster(samples, n_resonances: int):
    """Least-squares Foster fit of (omega, Im Y) samples.

    Pole brackets come from decreases of Im Y between adjacent samples (the
    reactance theorem makes Im Y strictly increasing away from poles, so a
    decrease pins exactly one asymptote). Residues, c_inf and the optional
    inductive branch enter linearly and are projected out by a linear
    least-squares solve; the poles are then refined together by variable
    projection (Golub & Pereyra 1973, with Kaufman's 1975 Jacobian), a
    Gauss-Newton iteration on the projected residual. A step is halved until
    every pole stays inside its bracket and the rms falls; the iteration
    stops when the step is below 1e-15 relative or no halving lowers the
    rms. FitReport.sweeps counts the accepted Gauss-Newton steps.

    Returns (FosterModel, FitReport). A detected pole count different from
    n_resonances raises StructureMismatchError listing the detected
    asymptote locations.
    """
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError("samples must be rows of (omega, Im Y)")
    omega = arr[:, 0]
    if np.any(np.abs(omega.imag) > 0):
        raise ValidationError("omega samples must be real")
    omega = omega.real
    yval = arr[:, 1]
    if np.any(yval.imag != 0):
        # Full complex admittance samples: require losslessness.
        scale = np.maximum(np.abs(yval), 1e-300)
        if np.any(np.abs(yval.real) > 1e-9 * scale):
            raise ValidationError(
                "nonzero Re Y beyond 1e-9 relative: lossless fit rejects "
                "dissipative data")
        imy = yval.imag.astype(float)
    else:
        # Plain real values are Im Y directly (the CSV convention).
        imy = yval.real.astype(float)
    if n_resonances < 0:
        raise ValidationError("n_resonances must be >= 0")
    order = np.argsort(omega)
    omega = omega[order].astype(float)
    imy = np.asarray(imy, dtype=float)[order]
    if omega.size < 3 * (1 + 2 * n_resonances):
        raise ValidationError(
            f"need >= {3 * (1 + 2 * n_resonances)} samples for "
            f"{n_resonances} resonances")
    if np.any(omega <= 0):
        raise ValidationError("omega samples must be > 0")
    if np.any(np.diff(omega) <= 0):
        raise ValidationError("omega samples must be distinct")

    # Im Y is strictly increasing between poles (reactance theorem), so any
    # decrease between adjacent samples brackets exactly one +inf -> -inf
    # asymptote, even when both samples land on the same sign.
    drop_tol = 1e-12 * float(np.max(np.abs(imy))) if imy.size else 0.0
    drops = np.flatnonzero(imy[1:] < imy[:-1] - drop_tol)
    a, b = omega[drops], omega[drops + 1]   # the bracket of each pole
    if drops.size != n_resonances:
        raise StructureMismatchError(
            f"detected {drops.size} asymptotes, expected {n_resonances}",
            detected=(0.5 * (a + b)).tolist())

    # Below every pole the only negative contribution is the 1/omega branch.
    with_l_zero = bool(imy[0] < 0.0)

    poles = 0.5 * (a + b)
    lo, hi = a + POLE_MARGIN * poles, b - POLE_MARGIN * poles
    rms, coef, A = _linear_residual(omega, imy, poles, with_l_zero)
    sweeps = 0
    while n_resonances:
        # Kaufman's Jacobian (I - QQ^T) dA/dOmega_k c_k of the projected
        # residual, with d/dOmega [w/(Omega^2 - w^2)] = -2 Omega w
        # / (Omega^2 - w^2)^2.
        d = poles**2 - omega[:, None]**2
        dA = -2.0 * poles * omega[:, None] / d**2 * coef[1:1 + n_resonances]
        Q = np.linalg.qr(A)[0]
        J = dA - Q @ (Q.T @ dA)
        step = -np.linalg.lstsq(J, A @ coef - imy, rcond=None)[0]
        while np.any(np.abs(step) > 1e-15 * poles):
            trial = poles + step
            if np.all((trial > lo) & (trial < hi)):
                fit = _linear_residual(omega, imy, trial, with_l_zero)
                if fit[0] < rms:
                    break
            step = 0.5 * step
        else:
            break
        poles = trial
        rms, coef, A = fit
        sweeps += 1

    c_inf = float(coef[0])
    residues = coef[1:1 + n_resonances]
    l_zero = None
    if with_l_zero:
        inv_l0 = float(coef[-1])
        if inv_l0 <= 0:
            raise StructureMismatchError(
                "negative inductive-branch coefficient: structure mismatch",
                detected=list(map(float, poles)))
        l_zero = 1.0 / inv_l0
    coef_scale = max(1.0, float(np.max(np.abs(coef))))
    if c_inf < -1e-12 * coef_scale or np.any(residues <= 0):
        raise StructureMismatchError(
            "fit produced nonpositive residues: structure mismatch",
            detected=list(map(float, poles)))
    # each pole stays inside its own bracket, so they are already ascending
    resonances = tuple((1.0 / float(r), float(om))
                       for r, om in zip(residues, poles))
    model = FosterModel(c_inf=max(c_inf, 0.0), resonances=resonances,
                        l_zero=l_zero)
    gram = A.T @ A
    try:
        cov = np.linalg.inv(gram) * max(rms, 1e-300)**2
        cov_proxy = [float(v) for v in np.sqrt(np.abs(np.diag(cov)))]
    except np.linalg.LinAlgError:
        cov_proxy = []
    report = FitReport(rms_residual=rms,
                       detected_poles=[float(v) for v in poles],
                       sweeps=sweeps, covariance_proxy=cov_proxy)
    return model, report


# ---------------------------------------------------------------------------
# file I/O


def read_admittance_csv(path: str) -> np.ndarray:
    """Rows of (omega, Im Y) from a CSV with optional '#' comments/header."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except (ValueError, IndexError):
                if rows:
                    raise ValidationError(f"malformed CSV row: {line!r}")
                continue  # header row
    if not rows:
        raise ValidationError(f"no admittance samples in {path}")
    return np.asarray(rows, dtype=float)


def read_model_json(path: str) -> FosterModel:
    """The FosterModel of write_model_json's file (fit_report ignored)."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as exc:   # JSON or UTF-8 decoding
            raise ValidationError(f"model file {path} is not JSON: {exc}")
    try:
        c_inf, l_zero = float(doc["c_inf"]), doc.get("l_zero")
        return FosterModel(c_inf=c_inf, resonances=tuple(
            (float(L), float(om)) for L, om in doc.get("resonances", [])),
            l_zero=None if l_zero is None else float(l_zero))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad model file {path}: {exc}")


def write_model_json(path: str, model: FosterModel,
                     report: FitReport | None = None) -> None:
    payload = model.to_dict()
    if report is not None:
        payload["fit_report"] = {
            "rms_residual": float(report.rms_residual),
            "detected_poles": report.detected_poles,
            "sweeps": int(report.sweeps),
            "covariance_proxy": report.covariance_proxy,
        }
    write_json(path, payload)
