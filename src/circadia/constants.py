"""Physical constants table.

Single provenance point for hbar, the electron charge, and the flux quantum.
Nothing else in the package writes these numbers inline; the flux quantum in
particular is always taken from here, never recomputed: ``hbar`` and ``e``
are stored, ``h`` and ``Phi_Q`` derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# 2018 CODATA exact values (SI redefinition): h and e are exact.
_H_PLANCK = 6.62607015e-34   # J s
_E_CHARGE = 1.602176634e-19  # C


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float   # reduced Planck constant, J s
    e: float      # elementary charge, C

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar

    @property
    def Phi_Q(self) -> float:
        """Superconducting flux quantum h/2e, Wb."""
        return self.h / (2.0 * self.e)


def get_constants() -> PhysicalConstants:
    """Return the constants table."""
    return PhysicalConstants(hbar=_H_PLANCK / (2.0 * math.pi), e=_E_CHARGE)
