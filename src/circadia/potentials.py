"""Nonlinear inductive potentials u(phi) with exact derivatives.

A potential here is the adimensional shape u(phi) of the nonlinear element's
energy, U_NL = E_U * u; the reduction formulas need the triple (u, u', u'')
evaluated consistently, which every kind guarantees analytically except
Custom, which uses a single cubic spline for all three. CubicSpline, the
package's one spline, also serves the dynamics shadow force and the compare
Born-Oppenheimer column.

Asymptotic class tags (diagnostic only; a user-supplied tag always wins):
    Sublinear1a   symmetric, |u|/|phi|^gamma -> 0 for some gamma in (0,2)
    Sublinear1b   asymmetric, gamma in (0,1)
    Superlinear2  phi^2/u -> 0
    QuasilinearL  u/phi^2 -> finite nonzero constant
    Unclassified  none of the above certified by sampling
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ValidationError

TAGS = ("Sublinear1a", "Sublinear1b", "Superlinear2", "QuasilinearL", "Unclassified")

# Geometric-grid shape used by classify_asymptotics.
_BINS_PER_DECADE = 8
_SAMPLES_PER_BIN = 16


class PotentialModel:
    """Base potential. Subclasses fill in _eval(phi, order)."""

    kind = "abstract"
    period: float | None = None  # 2*pi for the cosine kinds, None otherwise
    source: str | None = None    # path of the file the model was read from

    def __init__(self, class_tag: str = "Unclassified"):
        if class_tag not in TAGS:
            raise ValidationError(f"unknown class_tag {class_tag!r}")
        self.class_tag = class_tag

    # -- evaluation -------------------------------------------------------
    def eval(self, phi, order: int = 0):
        """u, u' or u'' at phi (scalar or array)."""
        if order not in (0, 1, 2):
            raise ValidationError(f"order must be 0, 1 or 2, got {order!r}")
        return self._eval(phi, order)

    def u(self, phi):
        return self._eval(phi, 0)

    def du(self, phi):
        return self._eval(phi, 1)

    def d2u(self, phi):
        return self._eval(phi, 2)

    def _eval(self, phi, order: int):
        raise NotImplementedError

    @property
    def is_periodic(self) -> bool:
        return self.period is not None

    @property
    def symmetric(self) -> bool:
        """u(phi) == u(-phi), checked by sampling."""
        probe = np.linspace(0.37, 11.3, 41)
        try:
            left = np.asarray(self._eval(-probe, 0), dtype=float)
            right = np.asarray(self._eval(probe, 0), dtype=float)
        except ValidationError:
            return False
        scale = np.max(np.abs(right)) + 1e-30
        return bool(np.max(np.abs(left - right)) <= 1e-10 * scale)


def _two_pi_periodic(p: PotentialModel) -> bool:
    """u repeats with period 2*pi, the period of the compact phase."""
    return p.is_periodic and abs(p.period - 2.0 * math.pi) < 1e-12


class Cosine(PotentialModel):
    """u(phi) = -cos(phi)."""

    kind = "Cosine"
    period = 2.0 * math.pi

    def __init__(self, class_tag: str = "Sublinear1a"):
        super().__init__(class_tag)

    def _eval(self, phi, order: int):
        if order == 0:
            return -np.cos(phi)
        if order == 1:
            return np.sin(phi)
        return np.cos(phi)


class BiasedCosine(PotentialModel):
    """u(phi) = -cos(phi - phi_ext); asymmetric unless phi_ext is 0 or pi."""

    kind = "BiasedCosine"
    period = 2.0 * math.pi

    def __init__(self, phi_ext: float, class_tag: str | None = None):
        if not math.isfinite(phi_ext):
            raise ValidationError("phi_ext must be finite")
        self.phi_ext = float(phi_ext)
        symmetric_bias = (
            math.isclose(math.sin(self.phi_ext), 0.0, abs_tol=1e-12))
        if class_tag is None:
            class_tag = "Sublinear1a" if symmetric_bias else "Sublinear1b"
        if class_tag == "Sublinear1a" and not symmetric_bias:
            raise ValidationError(
                "Sublinear1a requires a symmetric potential; "
                f"phi_ext={self.phi_ext!r} breaks u(phi)=u(-phi)")
        super().__init__(class_tag)

    def _eval(self, phi, order: int):
        arg = np.asarray(phi, dtype=float) - self.phi_ext
        if order == 0:
            out = -np.cos(arg)
        elif order == 1:
            out = np.sin(arg)
        else:
            out = np.cos(arg)
        return out if out.ndim else float(out)


class PolynomialEven(PotentialModel):
    """u(phi) = sum_k coeffs[k] * phi^(2k)."""

    kind = "PolynomialEven"

    def __init__(self, coeffs, class_tag: str | None = None):
        coeffs = [float(c) for c in coeffs]
        if not coeffs or not all(math.isfinite(c) for c in coeffs):
            raise ValidationError("coeffs must be a nonempty list of finite floats")
        full = np.zeros(2 * len(coeffs) - 1)
        full[::2] = coeffs
        self._poly = Polynomial(full)
        self._dpoly = self._poly.deriv(1)
        self._d2poly = self._poly.deriv(2)
        self.coeffs = tuple(coeffs)
        if class_tag is None:
            class_tag = self._default_tag()
        super().__init__(class_tag)

    def _default_tag(self) -> str:
        lead = 0
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0.0:
                lead = k
                break
        if lead >= 2:
            return "Superlinear2"
        if lead == 1:
            return "QuasilinearL"
        return "Unclassified"  # constant: u/phi^gamma -> 0 but so does u''

    def _eval(self, phi, order: int):
        p = (self._poly, self._dpoly, self._d2poly)[order]
        return p(phi)


class Custom(PotentialModel):
    """Tabulated potential on a finite support, cubic-spline derivatives.

    One natural CubicSpline (the package's own, equal to scipy's bit for
    bit) keeps (u, u', u'') a consistent triple; evaluation outside the
    tabulated range refuses. knots are the tabulated phi samples.
    """

    kind = "Custom"

    def __init__(self, phi_samples, u_samples, class_tag: str = "Unclassified"):
        phi_samples = np.asarray(phi_samples, dtype=float)
        u_samples = np.asarray(u_samples, dtype=float)
        if phi_samples.ndim != 1 or phi_samples.shape != u_samples.shape:
            raise ValidationError("phi and u samples must be equal-length 1D arrays")
        if phi_samples.size < 4:
            raise ValidationError("Custom needs at least 4 samples")
        if not np.all(np.isfinite(phi_samples)) or not np.all(np.isfinite(u_samples)):
            raise ValidationError("Custom samples must be finite")
        if not np.all(np.diff(phi_samples) > 0):
            raise ValidationError("phi samples must be strictly increasing")
        self.support = (float(phi_samples[0]), float(phi_samples[-1]))
        self._spline = CubicSpline(phi_samples, u_samples, "natural")
        self.knots = self._spline.x
        self._scalar = _scalar_evaluators(self._spline)
        super().__init__(class_tag)

    def __getstate__(self):
        # the scalar evaluators are closures, which do not pickle
        return {k: v for k, v in self.__dict__.items() if k != "_scalar"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._scalar = _scalar_evaluators(self._spline)

    @classmethod
    def from_csv(cls, path: str, class_tag: str = "Unclassified") -> "Custom":
        """Two-column CSV (phi, u), strictly increasing phi; '#' comments ok."""
        try:
            table = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except Exception as exc:
            raise ValidationError(f"cannot parse potential CSV {path}: {exc}") from exc
        if table.shape[1] != 2:
            raise ValidationError(f"potential CSV {path} must have 2 columns")
        model = cls(table[:, 0], table[:, 1], class_tag=class_tag)
        model.source = path
        return model

    def _eval(self, phi, order: int):
        lo, hi = self.support
        if isinstance(phi, (float, np.floating)):
            # one point: no numpy call; a NaN passes both tests, as below
            q = float(phi)
            if q < lo or q > hi:
                raise self._extrapolation()
            return self._scalar[order](q)
        arr = np.asarray(phi, dtype=float)
        if np.any(arr < lo) or np.any(arr > hi):
            raise self._extrapolation()
        out = self._spline(arr, nu=order)
        return out if out.ndim else float(out)

    def _extrapolation(self) -> ValidationError:
        lo, hi = self.support
        return ValidationError(
            f"extrapolation: argument outside tabulated range [{lo}, {hi}]")


class CubicSpline:
    """Cubic interpolating spline through (x, y) as power coefficients.

    c[k, i] multiplies (q - x[i])**(3 - k) on [x[i], x[i+1]]. bc_type is
    "natural" (u'' = 0 at both ends), "not-a-knot" (u''' continuous at x[1]
    and x[-2]) or "periodic" (y[0] == y[-1]; u' and u'' continue across
    the ends, and a call maps q into the period first). The knot slopes
    solve the tridiagonal system of scipy's CubicSpline, built with the
    same operations and solved as LAPACK's ?gtsv solves it (twice, with
    the same bordered elimination, when periodic), so x, c and every value
    equal scipy's bit for bit.
    """

    def __init__(self, x, y, bc_type: str = "not-a-knot"):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.size
        if x.ndim != 1 or y.shape != x.shape or n < 4:
            raise ValidationError("a spline needs equal-length 1D knots and "
                                  "values, at least 4 of them")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValidationError("spline knots and values must be finite")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValidationError("spline knots must be strictly increasing")
        if bc_type not in ("natural", "not-a-knot", "periodic"):
            raise ValidationError(f"unknown spline bc_type {bc_type!r}")
        if bc_type == "periodic" and y[0] != y[-1]:
            raise ValidationError("a periodic spline needs y[0] == y[-1]")
        slope = np.diff(y) / dx

        # rows 1..n-2: u'' continuous at the inner knots
        A = np.zeros((3, n))
        b = np.empty(n)
        A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        A[0, 2:] = dx[:-1]
        A[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        if bc_type == "periodic":
            s = _periodic_slopes(A, b, dx, slope)
        else:
            if bc_type == "natural":
                # scipy's rows for a given end u'' (d2), term for term, so
                # that even a signed zero comes out alike
                d2 = 0.0
                A[1, 0] = 2 * dx[0]
                A[0, 1] = dx[0]
                b[0] = -0.5 * d2 * dx[0]**2 + 3 * (y[1] - y[0])
                A[1, -1] = 2 * dx[-1]
                A[-1, -2] = dx[-1]
                b[-1] = 0.5 * d2 * dx[-1]**2 + 3 * (y[-1] - y[-2])
            else:
                d = x[2] - x[0]
                A[1, 0] = dx[1]
                A[0, 1] = d
                b[0] = ((dx[0] + 2*d) * dx[1] * slope[0]
                        + dx[0]**2 * slope[1]) / d
                d = x[-1] - x[-3]
                A[1, -1] = dx[-2]
                A[-1, -2] = d
                b[-1] = (dx[-1]**2 * slope[-2]
                         + (2*d + dx[-1]) * dx[-2] * slope[-1]) / d
            s = _gtsv(A, b)

        # Hermite data (y, s) to power coefficients
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
        self.x = x
        self.periodic = bc_type == "periodic"

    def __call__(self, q, nu: int = 0) -> np.ndarray:
        """The nu-th derivative (nu = 0, 1, 2) at q as scipy's PPoly gives
        it: last interval closed, end pieces continued past the knots (a
        periodic spline maps q into [x[0], x[-1]] instead), powers summed
        lowest first as in _piecewise_cubic, NaN for NaN."""
        x = self.x
        q = np.asarray(q, dtype=float)
        if self.periodic:
            q = x[0] + (q - x[0]) % (x[-1] - x[0])
        # searchsorted(x, q, "right") - 1 clipped to the end pieces
        i = np.searchsorted(x[1:-1], q, side="right")
        s = q - x[i]
        c = self.c[:, i]
        # scipy's res = res + c*z*prefactor from res = 0.0; the products
        # with z = 1 or a prefactor of 1 are exact and left out
        res = np.zeros(s.shape)
        z = None
        for kp in range(nu, 4):
            term = c[3 - kp] if z is None else c[3 - kp] * z
            pref = math.perm(kp, nu)
            res += term if pref == 1 else term * float(pref)
            if kp < 3:
                z = s if z is None else z * s
        if self.periodic:
            # rounding can carry a mapped point past an end: NaN, as scipy
            res = np.where((q >= x[0]) & (q <= x[-1]), res, np.nan)
        return res


def _periodic_slopes(A: np.ndarray, b: np.ndarray, dx: np.ndarray,
                     slope: np.ndarray) -> np.ndarray:
    """Knot slopes of a periodic spline. s[-1] = s[0] leaves a cyclic
    tridiagonal system of n-1 equations; its last unknown is eliminated
    from two solves with the leading (n-2)-block, as in scipy."""
    n = b.size
    A = A[:, :-1]
    A[1, 0] = 2 * (dx[-1] + dx[0])
    A[0, 1] = dx[-1]
    b = b[:-1]
    b[0] = 3 * (dx[0] * slope[-1] + dx[-1] * slope[0])
    b[-1] = 3 * (dx[-1] * slope[-2] + dx[-2] * slope[-1])
    # corner entries of the cyclic system, named by their (row, column)
    a_m1_0, a_m1_m2, a_m1_m1 = dx[-2], dx[-1], 2 * (dx[-1] + dx[-2])
    a_m2_m1, a_0_m1 = dx[-3], dx[0]
    b2 = np.zeros(n - 2)
    b2[0] = -a_0_m1
    b2[-1] = -a_m2_m1
    s1, s2 = (_gtsv(A[:, :-1], rhs) for rhs in (b[:-1], b2))
    s_m1 = ((b[-1] - a_m1_0 * s1[0] - a_m1_m2 * s1[-1])
            / (a_m1_m1 + a_m1_0 * s2[0] + a_m1_m2 * s2[-1]))
    s = np.empty(n)
    s[:-2] = s1 + s_m1 * s2
    s[-2] = s_m1
    s[-1] = s[0]
    return s


def _gtsv(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x of scipy's solve_banded((1, 1), ab, b) for one right-hand side b
    of length n >= 2, bit for bit: reference LAPACK dgtsv line for line
    (Gaussian elimination with partial pivoting, the row interchanges
    included) on Python floats. A zero pivot raises LinAlgError, as scipy
    does."""
    du = ab[0, 1:].tolist()
    d = ab[1].tolist()
    dl = ab[2, :-1].tolist()
    x = b.tolist()
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            # no row interchange
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            x[i + 1] = x[i + 1] - fact * x[i]
            dl[i] = 0.0
        else:
            # interchange rows i and i+1; dl[i] keeps the fill-in of the
            # second superdiagonal (row n-2 has none)
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            x[i], x[i + 1] = x[i + 1], x[i] - fact * x[i + 1]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    # back substitution with the upper triangle
    x[-1] = x[-1] / d[-1]
    x[-2] = (x[-2] - du[-1] * x[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - dl[i] * x[i + 2]) / d[i]
    return np.array(x)


def _piecewise_cubic(spline: CubicSpline, nu: int):
    """float(spline(q, nu)) for one float q, bit for bit, without numpy.

    Interval search as CubicSpline's (the end pieces continue outside the
    table). The power terms are summed in the order of scipy's PPoly
    evaluation, which CubicSpline keeps (lowest power first, not Horner's
    rule), so the rounding is the same.
    """
    x = spline.x.tolist()
    last = len(x) - 2
    k = spline.c.shape[0]
    terms = [(spline.c[k - 1 - kp].tolist(), float(math.perm(kp, nu)))
             for kp in range(nu, k)]

    def evaluate(q: float) -> float:
        i = bisect_right(x, q) - 1
        i = 0 if i < 0 else last if i > last else i
        s = q - x[i]
        res = 0.0
        z = 1.0
        for row, prefactor in terms:
            res = res + row[i] * z * prefactor
            z *= s
        return res

    return evaluate


def _scalar_evaluators(spline: CubicSpline):
    """(u, u', u'') of a spline as scalar evaluators, indexed by order."""
    return tuple(_piecewise_cubic(spline, nu) for nu in (0, 1, 2))


class ClassificationReport:
    """Outcome of classify_asymptotics.

    tag: the effective tag (user-supplied wins on mismatch);
    measured_tag: what sampling alone supports;
    diagnostic: one-line reason;
    bin_maxima: per-log-bin limsup estimates of the probed ratio.
    """

    def __init__(self, tag: str, measured_tag: str, diagnostic: str,
                 bin_maxima: list[float]):
        self.tag = tag
        self.measured_tag = measured_tag
        self.diagnostic = diagnostic
        self.bin_maxima = bin_maxima

    def __repr__(self):
        return (f"ClassificationReport(tag={self.tag!r}, "
                f"measured={self.measured_tag!r}, note={self.diagnostic!r})")


def _bin_maxima(values: np.ndarray, nbins: int) -> np.ndarray:
    return values.reshape(nbins, -1).max(axis=1)


def _decays_over_last_decade(maxima: np.ndarray) -> bool:
    last = maxima[-_BINS_PER_DECADE:]
    nonincreasing = bool(np.all(np.diff(last) <= 1e-12 * np.maximum(last[:-1], 1e-300)))
    return nonincreasing and last[-1] < last[0]


def classify_asymptotics(p: PotentialModel, gamma_probe: float,
                         phi_max: float) -> ClassificationReport:
    """Estimate the asymptotic class of u by geometric-grid sampling.

    Probes limsup |u|/|phi|^gamma_probe (and the superlinear and quasilinear
    ratios) on a geometric grid up to phi_max; a tag is assigned only when
    the relevant estimate decays monotonically over the last decade.
    """
    if phi_max < 1e3:
        raise ValidationError("phi_max must be >= 1e3 for a meaningful tail")
    if not (0.0 < gamma_probe < 2.0):
        raise ValidationError("gamma_probe must lie in (0, 2)")

    if isinstance(p, Custom):
        report = ClassificationReport(
            tag="Unclassified", measured_tag="Unclassified",
            diagnostic="compact-domain: classification inapplicable",
            bin_maxima=[])
        return _honor_user_tag(p, report)

    ndecades = int(math.ceil(math.log10(phi_max)))
    nbins = ndecades * _BINS_PER_DECADE
    edges = np.logspace(0.0, math.log10(phi_max), nbins * _SAMPLES_PER_BIN)
    u_pos = np.asarray(p.eval(edges, 0), dtype=float)
    u_neg = np.asarray(p.eval(-edges, 0), dtype=float)
    absu = np.maximum(np.abs(u_pos), np.abs(u_neg))

    sub = _bin_maxima(absu / edges**gamma_probe, nbins)
    if _decays_over_last_decade(sub):
        tag = "Sublinear1a" if p.symmetric else "Sublinear1b"
        if tag == "Sublinear1b" and gamma_probe >= 1.0:
            measured = ClassificationReport(
                "Unclassified", "Unclassified",
                "asymmetric tail decays but probe gamma >= 1; "
                "retry with gamma in (0,1)", list(sub))
            return _honor_user_tag(p, measured)
        return _honor_user_tag(p, ClassificationReport(
            tag, tag,
            f"|u|/|phi|^{gamma_probe} decays monotonically over the last decade",
            list(sub)))

    with np.errstate(divide="ignore"):
        sup = _bin_maxima(edges**2 / np.maximum(absu, 1e-300), nbins)
    if _decays_over_last_decade(sup):
        return _honor_user_tag(p, ClassificationReport(
            "Superlinear2", "Superlinear2",
            "phi^2/|u| decays monotonically over the last decade", list(sup)))

    # Quasilinear: u/phi^2 settles to a finite nonzero constant.
    ratio_pos = u_pos / edges**2
    last = ratio_pos[-_BINS_PER_DECADE * _SAMPLES_PER_BIN:]
    mean = float(np.mean(last))
    spread = float(np.max(np.abs(last - mean)))
    if mean != 0.0 and spread <= 1e-6 * abs(mean):
        return _honor_user_tag(p, ClassificationReport(
            "QuasilinearL", "QuasilinearL",
            f"u/phi^2 settles to {mean!r} over the last decade", list(sub)))

    return _honor_user_tag(p, ClassificationReport(
        "Unclassified", "Unclassified",
        "no probed ratio decays or settles monotonically", list(sub)))


def _honor_user_tag(p: PotentialModel,
                    report: ClassificationReport) -> ClassificationReport:
    if p.class_tag != "Unclassified" and p.class_tag != report.measured_tag:
        warnings.warn(
            f"classification measured {report.measured_tag!r} but the model "
            f"carries {p.class_tag!r}; keeping the user tag", stacklevel=3)
        report.tag = p.class_tag
    return report
