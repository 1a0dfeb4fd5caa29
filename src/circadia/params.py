"""Circuit parameters and the SI -> adimensional reduction.

The circuit family is a single loop: capacitance C in series with an
inductance L, the nonlinear element shunted by a parasitic capacitance C'.
Every solver in this package consumes only the adimensional set
(kappa, xi, lambda_J, n_g) carried by :class:`ReducedCircuit`; SI magnitudes
live here and nowhere else.

Scales:
    kappa   = (C'/C)^(1/4)          separation parameter, 0 when C'=0
    omega_C = 1/sqrt(LC)            bare LC frequency
    E_C     = 4 e^2 / C             charging energy
    xi      = hbar*omega_C / E_C    inductive-to-charging frequency ratio
    lambda_J= E_J / E_C             junction-to-charging energy ratio
    beta    = L*E_J*(2*pi/Phi_Q)^2  screening parameter, = lambda_J/xi^2
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .constants import PhysicalConstants, get_constants
from .errors import ValidationError
from .potentials import (BiasedCosine, Cosine, Custom, PolynomialEven,
                         PotentialModel)

# Relative slack for the defining identities (beta dual formula, E_C = kappa^4 E_C').
IDENTITY_RTOL = 1e-12


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class SICircuit:
    """Dimensionful description of the single-loop circuit."""

    capacitance_C: float        # F, > 0
    capacitance_Cp: float       # F, >= 0; the parasitic C', 0 marks the fully reduced circuit
    inductance_L: float         # H, > 0
    josephson_energy_EJ: float  # J, >= 0
    gate_charge_ng: float = 0.0  # dimensionless, in [0, 1)

    def __post_init__(self):
        for name in ("capacitance_C", "capacitance_Cp", "inductance_L",
                     "josephson_energy_EJ", "gate_charge_ng"):
            _require_finite(name, getattr(self, name))
        if self.capacitance_C <= 0:
            raise ValidationError("capacitance_C must be > 0")
        if self.capacitance_Cp < 0:
            raise ValidationError("capacitance_Cp must be >= 0")
        if self.inductance_L <= 0:
            raise ValidationError("inductance_L must be > 0")
        if self.josephson_energy_EJ < 0:
            raise ValidationError("josephson_energy_EJ must be >= 0")
        if not (0.0 <= self.gate_charge_ng < 1.0):
            raise ValidationError("gate_charge_ng must lie in [0, 1)")


@dataclass(frozen=True)
class ReducedCircuit:
    """Adimensional parameter set; the single source of truth for solvers."""

    kappa: float    # (C'/C)^(1/4), >= 0; 0 means the parasitic branch is removed
    xi: float       # hbar*omega_C/E_C, > 0
    lambdaJ: float  # E_J/E_C, >= 0
    beta: float     # screening parameter, == lambdaJ/xi^2
    ng: float = 0.0  # gate charge, in [0, 1)

    def __post_init__(self):
        for name in ("kappa", "xi", "lambdaJ", "beta", "ng"):
            _require_finite(name, getattr(self, name))
        if self.kappa < 0:
            raise ValidationError("kappa must be >= 0")
        if self.xi <= 0:
            raise ValidationError("xi must be > 0")
        if self.lambdaJ < 0:
            raise ValidationError("lambdaJ must be >= 0")
        if not (0.0 <= self.ng < 1.0):
            raise ValidationError("ng must lie in [0, 1)")
        expected = self.lambdaJ / self.xi**2
        scale = max(abs(expected), abs(self.beta), 1e-300)
        if abs(self.beta - expected) > IDENTITY_RTOL * scale and self.lambdaJ > 0:
            raise ValidationError(
                f"beta={self.beta!r} violates beta = lambdaJ/xi^2 = {expected!r}")

    @classmethod
    def from_ratios(cls, kappa: float, xi: float, lambdaJ: float,
                    ng: float = 0.0) -> "ReducedCircuit":
        """Build directly from ratios; beta follows from the identity."""
        return cls(kappa=kappa, xi=xi, lambdaJ=lambdaJ,
                   beta=lambdaJ / xi**2, ng=ng)

    @property
    def reduced(self) -> bool:
        """True when the parasitic branch is absent (kappa == 0)."""
        return self.kappa == 0.0


@dataclass(frozen=True)
class DerivedScales:
    """Dimensionful scales implied by an SICircuit.

    When the circuit is fully reduced (C'=0) the primed quantities are
    mathematically infinite; they are stored as inf and `reduced` is set, and
    nothing downstream consumes them in that state.
    """

    omega_C: float        # rad/s, 1/sqrt(LC)
    omega_r_prime: float  # rad/s, 1/sqrt(LC'); inf when reduced
    Phi_C: float          # Wb, (hbar^2 L/C)^(1/4)
    Phi_ZPF: float        # Wb, (hbar^2 L/C')^(1/4); inf when reduced
    E_C: float            # J, 4e^2/C
    E_Cp: float           # J, 4e^2/C'; inf when reduced
    epsilon_C: float      # 1/sqrt(J), 1/sqrt(hbar*omega_C)
    reduced: bool         # True iff C'=0


def beta_of(si: SICircuit, constants: PhysicalConstants | None = None) -> float:
    """Screening parameter L*E_J*(2*pi/Phi_Q)^2."""
    k = constants or get_constants()
    return si.inductance_L * si.josephson_energy_EJ * (2.0 * math.pi / k.Phi_Q) ** 2


def reduce(si: SICircuit,
           constants: PhysicalConstants | None = None,
           ) -> tuple[ReducedCircuit, DerivedScales]:
    """SI -> (adimensional parameters, dimensionful scales).

    The returned ReducedCircuit satisfies beta = lambdaJ/xi^2 and
    kappa = (C'/C)^(1/4) to relative 1e-12; DerivedScales satisfies
    E_C = kappa^4 * E_C' whenever C' > 0.
    """
    k = constants or get_constants()
    C = si.capacitance_C
    Cp = si.capacitance_Cp
    L = si.inductance_L

    omega_C = 1.0 / math.sqrt(L * C)
    E_C = 4.0 * k.e**2 / C
    xi = k.hbar * omega_C / E_C
    lambdaJ = si.josephson_energy_EJ / E_C
    kappa = (Cp / C) ** 0.25
    reduced_flag = Cp == 0.0
    if reduced_flag:
        omega_r_prime = math.inf
        Phi_ZPF = math.inf
        E_Cp = math.inf
    else:
        omega_r_prime = 1.0 / math.sqrt(L * Cp)
        Phi_ZPF = (k.hbar**2 * L / Cp) ** 0.25
        E_Cp = 4.0 * k.e**2 / Cp

    scales = DerivedScales(
        omega_C=omega_C,
        omega_r_prime=omega_r_prime,
        Phi_C=(k.hbar**2 * L / C) ** 0.25,
        Phi_ZPF=Phi_ZPF,
        E_C=E_C,
        E_Cp=E_Cp,
        epsilon_C=1.0 / math.sqrt(k.hbar * omega_C),
        reduced=reduced_flag,
    )
    rc = ReducedCircuit(kappa=kappa, xi=xi, lambdaJ=lambdaJ,
                        beta=lambdaJ / xi**2, ng=si.gate_charge_ng)

    # beta assembled straight from L, EJ must equal the lambdaJ/xi^2 ratio
    direct = beta_of(si, k)
    scale = max(direct, rc.beta, 1e-300)
    if abs(direct - rc.beta) > 1e-9 * scale:
        raise ValidationError(
            f"beta dual-formula mismatch: direct {direct!r} vs ratio {rc.beta!r}")
    return rc, scales


def _number(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(
            f"circuit field {key!r} must be a number, got {value!r}") from None


def _read(path: str, constants: PhysicalConstants | None,
          ) -> tuple[SICircuit, dict]:
    """The SI circuit of a descriptor and the decoded document."""
    k = constants or get_constants()
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"circuit descriptor {path} is not JSON: {exc}")
    if not isinstance(obj, dict):
        raise ValidationError(f"circuit descriptor {path} must be a JSON object")
    for key in ("C_F", "Cp_F", "L_H"):
        if key not in obj:
            raise ValidationError(f"circuit descriptor missing '{key}' in {path}")
    if "EJ_J" in obj:
        ej = _number("EJ_J", obj["EJ_J"])
    elif "EJ_GHz" in obj:
        ej = k.h * _number("EJ_GHz", obj["EJ_GHz"]) * 1e9
    else:
        raise ValidationError(f"circuit descriptor needs 'EJ_J' or 'EJ_GHz' in {path}")
    return SICircuit(
        capacitance_C=_number("C_F", obj["C_F"]),
        capacitance_Cp=_number("Cp_F", obj["Cp_F"]),
        inductance_L=_number("L_H", obj["L_H"]),
        josephson_energy_EJ=ej,
        gate_charge_ng=_number("ng", obj.get("ng", 0.0)),
    ), obj


def _potential(spec) -> PotentialModel:
    if spec is None:
        return Cosine()
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        raise ValidationError("circuit 'potential' must be a string or object")
    kind = str(spec.get("kind", "cosine")).lower()
    if kind == "cosine":
        return Cosine()
    if kind == "biased_cosine":
        return BiasedCosine(_number("phi_ext", spec.get("phi_ext", 0.0)))
    if kind == "quadratic":
        curvature = _number("curvature", spec.get("curvature", 1.0))
        return PolynomialEven([0.0, 0.5 * curvature])
    if kind == "polynomial_even":
        coeffs = spec.get("coeffs", [0.0, 0.5])
        if not isinstance(coeffs, list):
            raise ValidationError(f"circuit field 'coeffs' must be a list, got {coeffs!r}")
        return PolynomialEven([_number("coeffs", c) for c in coeffs])
    if kind == "custom_csv":
        if "path" not in spec:
            raise ValidationError("custom_csv potential needs a 'path'")
        return Custom.from_csv(str(spec["path"]))
    raise ValidationError(f"unknown potential kind {kind!r}")


def load_circuit(path: str,
                 constants: PhysicalConstants | None = None) -> SICircuit:
    """Read a JSON circuit descriptor.

    Keys: C_F, Cp_F, L_H, and either EJ_J or EJ_GHz (converted via E = h*f),
    plus optional ng (default 0). A value that is not a number raises
    ValidationError naming its key.
    """
    return _read(path, constants)[0]


def read_circuit(path: str, constants: PhysicalConstants | None = None,
                 ) -> tuple[ReducedCircuit, PotentialModel]:
    """Reduced circuit and potential from one parse of a circuit descriptor.

    The SI keys are those of :func:`load_circuit`. The optional 'potential'
    is a kind name or an object: cosine (the default), biased_cosine
    (phi_ext), quadratic (curvature), polynomial_even (coeffs) or custom_csv
    (path of a (phi, u) table).
    """
    si, obj = _read(path, constants)
    rc, _ = reduce(si, constants)
    return rc, _potential(obj.get("potential"))
