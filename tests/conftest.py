"""Shared fixtures.

Circuit JSON files for CLI tests are built by inverting the reduction:
pick a C, derive L and EJ so that the stored SI values land exactly on the
requested (kappa, xi, lambdaJ) through the package's own constants table.
"""

from __future__ import annotations

import os

# One BLAS thread for the suite and the CLI subprocesses it starts: set
# before anything loads numpy, since OpenBLAS reads it once at load. Many
# small threaded LAPACK calls run far slower beside another busy process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import json  # noqa: E402

import pytest  # noqa: E402
from hypothesis import HealthCheck, settings

from circadia import get_constants

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def circuit_payload(kappa: float, xi: float, lambdaJ: float,
                    ng: float = 0.0) -> dict:
    k = get_constants()
    C = 1e-12
    e_c = 4.0 * k.e**2 / C
    omega_c = xi * e_c / k.hbar
    return {
        "C_F": C,
        "Cp_F": kappa**4 * C,
        "L_H": 1.0 / (omega_c**2 * C),
        "EJ_J": lambdaJ * e_c,
        "ng": ng,
    }


@pytest.fixture
def write_circuit(tmp_path):
    def _write(name: str, kappa: float, xi: float, lambdaJ: float,
               ng: float = 0.0, potential=None) -> str:
        payload = circuit_payload(kappa, xi, lambdaJ, ng)
        if potential is not None:
            payload["potential"] = potential
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write
