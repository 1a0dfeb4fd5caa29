"""Hamiltonian builders and eigensolvers for every quantization route.

Variants, all dimensionless:

- Extended1D: H = c_kin*p^2 + V(q) on a symmetric box grid, E_C units.
- Compact1D: H = coef*(n+n_g)^2 + lambda_J*u(phi) in the charge basis,
  coef = 1 by the printed-coefficient convention, 1/2 behind the
  charge_half_factor flag.
- FastAtX: fast oscillator h = 1/2 p_y^2 + 1/2 (y-kappa*x)^2
  + kappa^2 (lambda_J/xi) u(y/(kappa*sqrt(xi))) at frozen slow coordinate,
  energies in hbar*omega_C units.
- Regularized2D: the two-mode operator, either with both axes extended
  (h = 1/2 kappa^2 p_x^2 + 1/2 p_y^2 + 1/2 (y-kappa*x)^2 + kappa^2
  (lambda_J/xi) u(.), in kappa^2*H/(hbar*omega_C) units) or with the fast
  axis compact in its charge basis (H/E'_C = coef*(n_c+n_g)^2 + kappa^4 n^2
  + 1/2 kappa^4 xi^2 (phi-phi_c)^2 + kappa^4 lambda_J u(phi_c)).

The compact fast axis represents the angle phi_c on the [-pi, pi) window;
its matrix elements in the charge basis are exact:
<m|phi_c|m'> = i(-1)^(m-m')/(m-m'), <m|phi_c^2|m> = pi^2/3,
<m|phi_c^2|m'> = 2(-1)^(m-m')/(m-m')^2 off the diagonal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, eig_banded, eigh, eigh_tridiagonal, \
    solve_banded
from scipy.sparse.linalg import ArpackError, eigsh

from .errors import (CircadiaError, ConvergenceError, PhysicalRegimeError,
                     ValidationError)
from .potentials import Cosine, PotentialModel
from .reduction import EffectivePotential
from .sweeps import SweepTable

TWO_PI = 2.0 * math.pi

VARIANTS = ("Extended1D", "Compact1D", "Regularized2D", "FastAtX")


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """One Hamiltonian variant plus its discretization.

    grid keys by variant:
      Extended1D      half_width, n (ignored when `effective` carries a grid)
      Compact1D       none (cutoff comes from n_max)
      FastAtX         half_width, n (both optional, auto-sized)
      Regularized2D   extended basis_y: Lx, nx, Ly, ny
                      compact basis_y: L_phi, n_phi, n_max_fast
    """

    variant: str
    potential: PotentialModel | None = None
    effective: EffectivePotential | None = None
    v_func: object = None            # callable V(q) for Extended1D
    c_kin: float = 1.0
    lambdaJ: float | None = None
    kappa: float | None = None
    xi: float | None = None
    ng: float = 0.0
    n_max: int | None = None
    basis_y: str = "extended"
    frozen_x: float = 0.0
    charge_half_factor: bool = False
    grid: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.variant == "Regularized2D" and self.basis_y not in (
                "extended", "compact"):
            raise ValidationError(f"unknown basis_y {self.basis_y!r}")

    @property
    def charge_coef(self) -> float:
        return 0.5 if self.charge_half_factor else 1.0

    def describe(self) -> dict:
        d = {
            "variant": self.variant,
            "c_kin": self.c_kin,
            "lambdaJ": self.lambdaJ,
            "kappa": self.kappa,
            "xi": self.xi,
            "ng": self.ng,
            "n_max": self.n_max,
            "basis_y": self.basis_y if self.variant == "Regularized2D" else None,
            "frozen_x": self.frozen_x if self.variant == "FastAtX" else None,
            "charge_half_factor": self.charge_half_factor,
            "boundary": "periodic" if self.variant == "Compact1D" else "box",
            "grid": {k: (int(v) if isinstance(v, (int, np.integer)) else float(v))
                     for k, v in sorted(self.grid.items())},
            "potential": type(self.potential).__name__ if self.potential else None,
            "effective_basis": self.effective.basis if self.effective else None,
        }
        return d


@dataclass
class SpectrumResult:
    """Ordered eigenvalues with per-pair residual norms and a spec echo."""

    eigenvalues: np.ndarray
    k: int
    residual_norms: np.ndarray
    units: str
    meta: dict = field(default_factory=dict)

    @property
    def spectral_scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.eigenvalues))))

    def to_json(self, path: str) -> None:
        payload = {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "k": int(self.k),
            "residual_norms": [float(r) for r in self.residual_norms],
            "units": self.units,
            "meta": self.meta,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f, sort_keys=True, indent=1)
            f.write("\n")

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# units: {self.units}\n")
            f.write("# meta: " + json.dumps(self.meta, sort_keys=True,
                                            separators=(",", ":")) + "\n")
            f.write("level,eigenvalue,residual_norm\n")
            for i, (e, r) in enumerate(zip(self.eigenvalues,
                                           self.residual_norms)):
                f.write(f"{i},{float(e)!r},{float(r)!r}\n")


# ---------------------------------------------------------------------------
# finite-difference kinetic blocks (4th-order central, box boundary)


def _fd4_bands(n: int, h: float, c: float) -> np.ndarray:
    """Lower-band storage of -c * d^2/dq^2 on n box points."""
    band = np.zeros((3, n))
    band[0, :] = c * 2.5 / h**2
    band[1, :-1] = -c * (4.0 / 3.0) / h**2
    band[2, :-2] = c * (1.0 / 12.0) / h**2
    return band


def _fd4_sparse(n: int, h: float, c: float) -> sp.csr_matrix:
    d0 = np.full(n, c * 2.5 / h**2)
    d1 = np.full(n - 1, -c * (4.0 / 3.0) / h**2)
    d2 = np.full(n - 2, c * (1.0 / 12.0) / h**2)
    return sp.diags([d2, d1, d0, d1, d2], [-2, -1, 0, 1, 2], format="csr")


def _symmetric_uniform_grid(coords: np.ndarray) -> float:
    """Validate symmetry about 0 and uniform spacing; return the spacing."""
    coords = np.asarray(coords, dtype=float)
    if coords.size < 2:
        raise ValidationError("grid needs at least 2 points")
    diffs = np.diff(coords)
    h = float(diffs[0])
    if not np.allclose(diffs, h, rtol=1e-9, atol=0.0):
        raise ValidationError("extended grid must be uniform")
    span = coords[-1] - coords[0]
    if abs(coords[0] + coords[-1]) > 1e-9 * span:
        raise ValidationError("extended grid must be symmetric about 0")
    return h


# ---------------------------------------------------------------------------
# 1D extended


def _extended1d_arrays(spec: HamiltonianSpec):
    if spec.effective is not None:
        coords = np.asarray(spec.effective.coordinates, dtype=float)
        v = np.asarray(spec.effective.V, dtype=float)
    elif spec.v_func is not None:
        L = float(spec.grid.get("half_width", 10.0))
        n = int(spec.grid.get("n", 1024))
        coords = np.linspace(-L, L, n)
        v = np.asarray(spec.v_func(coords), dtype=float)
    else:
        raise ValidationError("Extended1D needs `effective` or `v_func`")
    if coords.size < 128:
        raise ValidationError("1D grids need >= 128 points")
    h = _symmetric_uniform_grid(coords)
    return coords, v, h


def _band_to_ab(band_lower: np.ndarray) -> np.ndarray:
    """Lower symmetric band storage -> general (l=2, u=2) ab storage."""
    n = band_lower.shape[1]
    ab = np.zeros((5, n))
    ab[0, 2:] = band_lower[2, :-2]
    ab[1, 1:] = band_lower[1, :-1]
    ab[2, :] = band_lower[0, :]
    ab[3, :-1] = band_lower[1, :-1]
    ab[4, :-2] = band_lower[2, :-2]
    return ab


def _inverse_iteration(band_lower: np.ndarray, w: float,
                       scale: float) -> np.ndarray:
    """Eigenvector for a known eigenvalue via shifted banded solves.

    The shift offset keeps the factorization nonsingular; with the
    eigenvalue known to machine precision two solves converge, and for a
    cluster tighter than the offset any vector in its span already meets
    the residual contract.
    """
    ab = _band_to_ab(band_lower)
    delta = 1e-13 * max(scale, 1.0)
    ab[2, :] -= w + delta
    n = band_lower.shape[1]
    # fixed-seed random start: O(1/sqrt(n)) overlap with every eigenvector,
    # unlike any smooth deterministic choice (near-orthogonal to one parity)
    v = np.random.default_rng(8675309).standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(4):
        try:
            v = solve_banded((2, 2), ab, v)
        except LinAlgError:
            ab[2, :] -= 99.0 * delta
            v = solve_banded((2, 2), ab, v)
        v /= np.linalg.norm(v)
    return v


def _solve_banded(v: np.ndarray, h: float, c_kin: float, k: int | None = None,
                  window: tuple[float, float] | None = None):
    """Lowest k, or all in the closed window (lo, hi), FD4 eigenpairs of
    c_kin*p^2 + diag(v): eigenvalues, unit vectors, residual norms.

    LAPACK ?sbevx (select='i' or 'v') bisects for the wanted eigenvalues
    only; inverse iteration gives the vectors. The Gershgorin bound
    s >= max|lambda| scales the shift offset and widens the window by the
    bisection accuracy 8*eps*s, so an edge level stays in on a re-solve."""
    n = v.size
    band = _fd4_bands(n, h, c_kin)
    band[0, :] += v
    # Gershgorin row sums; the FD4 off-diagonals are constant
    scale = float(np.max(np.abs(band[0])) + 2.0 * np.sum(np.abs(band[1:, 0])))
    if window is None:
        w = eig_banded(band, lower=True, eigvals_only=True, select="i",
                       select_range=(0, k - 1))
    else:
        tol = 8.0 * np.finfo(float).eps * scale
        lo, hi = window[0] - tol, window[1] + tol
        # ?sbevx keeps (vl, vu]: the float below lo closes the interval
        w = eig_banded(band, lower=True, eigvals_only=True, select="v",
                       select_range=(np.nextafter(lo, -np.inf), max(hi, lo)))
        w = w[(w >= lo) & (w <= hi)]
    vec = np.empty((n, w.size))
    for j in range(w.size):
        vec[:, j] = _inverse_iteration(band, float(w[j]), scale)
    H = _fd4_sparse(n, h, c_kin) + sp.diags(v)
    res = np.linalg.norm(H @ vec - vec * w[None, :], axis=0)
    return w, vec, res


def _lowest_extended1d(spec: HamiltonianSpec, k: int) -> SpectrumResult:
    coords, v, h = _extended1d_arrays(spec)
    if not (k <= coords.size / 4):
        raise ValidationError("k must be <= dimension/4")
    w, _, res = _solve_banded(v, h, spec.c_kin, k)
    return SpectrumResult(
        eigenvalues=w, k=k, residual_norms=res, units="E_C units",
        meta={"spec": spec.describe(), "h": h, "n": int(coords.size)})


def eigenvalues_in_window(spec: HamiltonianSpec, e_lo: float,
                          e_hi: float) -> SpectrumResult:
    """All Extended1D eigenvalues in the closed window [e_lo, e_hi], and
    only those (banded select='v', LAPACK ?sbevx). Levels within 8*eps*s of
    an edge count as inside, s the Gershgorin bound on max|lambda|."""
    if spec.variant != "Extended1D":
        raise ValidationError("energy-window solve is Extended1D only")
    coords, v, h = _extended1d_arrays(spec)
    w, _, res = _solve_banded(v, h, spec.c_kin, window=(e_lo, e_hi))
    return SpectrumResult(
        eigenvalues=w, k=int(w.size), residual_norms=res, units="E_C units",
        meta={"spec": spec.describe(), "h": h, "n": int(coords.size),
              "window": [float(e_lo), float(e_hi)]})


# ---------------------------------------------------------------------------
# 1D compact (charge basis)


def _fourier_coefficients(p: PotentialModel, nsamp: int = 4096) -> np.ndarray:
    phi = np.linspace(0.0, TWO_PI, nsamp, endpoint=False)
    return np.fft.fft(np.asarray(p.u(phi), dtype=float)) / nsamp


def _charge_basis_potential(p: PotentialModel, n_max: int) -> np.ndarray:
    """<m|u(phi)|m'> = c_(m-m') for 2pi-periodic u."""
    c = _fourier_coefficients(p)
    m = np.arange(-n_max, n_max + 1)
    d = m[:, None] - m[None, :]
    U = c[np.mod(d, c.size)]
    return 0.5 * (U + U.conj().T)


def _compact1d_matrix(spec: HamiltonianSpec) -> np.ndarray:
    p = spec.potential if spec.potential is not None else Cosine()
    lam = float(spec.lambdaJ if spec.lambdaJ is not None else 0.0)
    if lam < 0:
        raise ValidationError("lambdaJ must be >= 0")
    if not p.is_periodic or abs(p.period - TWO_PI) > 1e-12:
        raise ValidationError("Compact1D needs a 2pi-periodic potential")
    n_max = spec.n_max if spec.n_max is not None else int(
        math.ceil(3.0 * math.sqrt(lam) + 10))
    if n_max < 3.0 * math.sqrt(lam) + 10 - 1e-9:
        raise ValidationError("n_max must be >= 3*sqrt(lambdaJ) + 10")
    m = np.arange(-n_max, n_max + 1)
    H = lam * _charge_basis_potential(p, n_max)
    H[np.diag_indices_from(H)] += spec.charge_coef * (m + spec.ng)**2
    return H


def _lowest_compact1d(spec: HamiltonianSpec, k: int) -> SpectrumResult:
    H = _compact1d_matrix(spec)
    dim = H.shape[0]
    if not (k <= dim / 4):
        raise ValidationError("k must be <= dimension/4")
    off = H[np.triu_indices(dim, 2)]
    tridiagonal = (np.max(np.abs(off)) < 1e-13 if off.size else True) and \
        np.max(np.abs(H.imag)) < 1e-13
    if tridiagonal:
        w, vec = eigh_tridiagonal(H.real.diagonal().copy(),
                                  np.diag(H.real, 1).copy(),
                                  select="i", select_range=(0, k - 1))
        res = np.linalg.norm(H.real @ vec - vec * w[None, :], axis=0)
    else:
        w_all, vec_all = eigh(H)
        w, vec = w_all[:k], vec_all[:, :k]
        res = np.linalg.norm(H @ vec - vec * w[None, :], axis=0)
    return SpectrumResult(
        eigenvalues=w, k=k, residual_norms=res,
        units=("E_C units, charge coefficient "
               f"{'1/2' if spec.charge_half_factor else '1 (printed form)'}"),
        meta={"spec": spec.describe(), "dim": int(dim),
              "solver": "tridiagonal" if tridiagonal else "dense"})


def phase_grid_spectrum(p: PotentialModel, lambdaJ: float, ng: float = 0.0,
                        n_grid: int = 512, charge_half_factor: bool = False,
                        k: int = 5) -> np.ndarray:
    """Independent oracle: the same literal compact operator diagonalized on
    a periodic phase grid, kinetic term applied exactly through the FFT."""
    if n_grid < 128:
        raise ValidationError("phase grid needs >= 128 points")
    coef = 0.5 if charge_half_factor else 1.0
    phi = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    m = np.fft.fftfreq(n_grid, d=1.0 / n_grid)  # integer charge labels
    D = coef * (m + ng)**2
    K = np.fft.ifft(D[:, None] * np.fft.fft(np.eye(n_grid), axis=0), axis=0)
    H = K + np.diag(lambdaJ * np.asarray(p.u(phi), dtype=float))
    H = 0.5 * (H + H.conj().T)
    w = np.linalg.eigvalsh(H)
    return w[:k]


# ---------------------------------------------------------------------------
# fast oscillator at frozen slow coordinate


def _fast_potential(kappa: float, xi: float, lambdaJ: float,
                    p: PotentialModel, x: float, y: np.ndarray) -> np.ndarray:
    u = np.asarray(p.u(y / (kappa * math.sqrt(xi))), dtype=float)
    return 0.5 * (y - kappa * x)**2 + kappa**2 * (lambdaJ / xi) * u


def _fast_grid(kappa: float, x: float, half_width, n) -> tuple[float, int]:
    L = float(half_width) if half_width is not None else kappa * abs(x) + 12.0
    if n is None:
        n = int(math.ceil(2.0 * L / 0.01))
    n = max(int(n), 128)
    return L, n


def bo_fast_ground(kappa: float, xi: float, lambdaJ: float,
                   p: PotentialModel, x: float,
                   half_width: float | None = None,
                   n: int | None = None) -> float:
    """Ground energy e0(x) of the fast oscillator, hbar*omega_C units.

    The y-grid must hold the ground state: if the wavefunction mass on the
    outermost grid cells exceeds 1e-12 the grid is widened once, then the
    solve fails loudly.
    """
    if kappa <= 0:
        raise ValidationError("kappa must be > 0")
    if xi <= 0:
        raise ValidationError("xi must be > 0")
    L, npts = _fast_grid(kappa, x, half_width, n)
    for attempt in range(2):
        y = np.linspace(-L, L, npts)
        h = y[1] - y[0]
        v = _fast_potential(kappa, xi, lambdaJ, p, x, y)
        w, vec, _ = _solve_banded(v, h, 0.5, 1)
        psi2 = np.abs(vec[:, 0])**2
        edge = float(psi2[0] + psi2[1] + psi2[-1] + psi2[-2])
        if edge / float(np.sum(psi2)) < 1e-12:
            return float(w[0])
        if attempt == 0:
            L, npts = 2.0 * L, 2 * npts
    raise ConvergenceError(
        "fast ground state reaches the grid boundary after widening",
        detail={"half_width": L, "boundary_mass": edge})


def _lowest_fast_at_x(spec: HamiltonianSpec, k: int) -> SpectrumResult:
    if spec.kappa is None or spec.xi is None or spec.lambdaJ is None:
        raise ValidationError("FastAtX needs kappa, xi, lambdaJ")
    if spec.kappa <= 0:
        raise ValidationError("kappa must be > 0")
    p = spec.potential if spec.potential is not None else Cosine()
    L, npts = _fast_grid(spec.kappa, spec.frozen_x,
                         spec.grid.get("half_width"), spec.grid.get("n"))
    if not (k <= npts / 4):
        raise ValidationError("k must be <= dimension/4")
    y = np.linspace(-L, L, npts)
    h = y[1] - y[0]
    v = _fast_potential(spec.kappa, spec.xi, spec.lambdaJ, p,
                        spec.frozen_x, y)
    w, _, res = _solve_banded(v, h, 0.5, k)
    return SpectrumResult(
        eigenvalues=w, k=k, residual_norms=res,
        units="hbar*omega_C units",
        meta={"spec": spec.describe(), "h": float(h), "n": int(npts),
              "half_width": float(L)})


# ---------------------------------------------------------------------------
# regularized 2D


def _angle_window_ops(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact charge-basis matrices of phi_c and phi_c^2 on [-pi, pi)."""
    m = np.arange(-n_max, n_max + 1)
    d = m[:, None] - m[None, :]
    sign = np.where(d % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = 1j * sign / d
        phi2 = 2.0 * sign / d.astype(float)**2
    np.fill_diagonal(phi1, 0.0)
    np.fill_diagonal(phi2, math.pi**2 / 3.0)
    return phi1, phi2


def _regularized2d_extended(spec: HamiltonianSpec, k: int):
    kappa, xi, lam = float(spec.kappa), float(spec.xi), float(spec.lambdaJ)
    p = spec.potential if spec.potential is not None else Cosine()
    Lx = float(spec.grid.get("Lx", 10.0))
    Ly = float(spec.grid.get("Ly", 10.0))
    nx = int(spec.grid.get("nx", 96))
    ny = int(spec.grid.get("ny", 96))
    if nx < 64 or ny < 64:
        raise ValidationError("2D grids need >= 64 points per axis")
    x = np.linspace(-Lx, Lx, nx)
    y = np.linspace(-Ly, Ly, ny)
    hx, hy = x[1] - x[0], y[1] - y[0]
    if kappa > 0:
        uy = np.asarray(p.u(y / (kappa * math.sqrt(xi))), dtype=float)
    else:
        uy = np.zeros_like(y)
        if lam != 0.0:
            raise ValidationError("kappa=0 with lambdaJ>0 is singular here")
    V = 0.5 * (y[None, :] - kappa * x[:, None])**2 \
        + kappa**2 * (lam / xi) * uy[None, :]
    H = sp.kron(_fd4_sparse(nx, hx, 0.5 * kappa**2), sp.identity(ny)) \
        + sp.kron(sp.identity(nx), _fd4_sparse(ny, hy, 0.5)) \
        + sp.diags(V.ravel())
    H = H.tocsc()
    sigma = float(V.min()) - 1.0
    meta = {"nx": nx, "ny": ny, "hx": float(hx), "hy": float(hy),
            "sigma": sigma}
    return H, sigma, meta, "kappa^2*H/(hbar*omega_C) units (extended pair)"


def _auto_fast_cutoff(kappa: float, xi: float, lam: float, coef: float,
                      u2max: float) -> int:
    w2 = kappa**4 * (xi**2 + lam * u2max)
    sigma_n = (max(w2, 1.0) / (8.0 * coef**2))**0.25
    # floor keeps the fast axis at >= 65 states, the validated minimum
    return max(32, int(math.ceil(4.0 * sigma_n + 10.0)))


def _regularized2d_compact(spec: HamiltonianSpec, k: int):
    kappa, xi, lam = float(spec.kappa), float(spec.xi), float(spec.lambdaJ)
    p = spec.potential if spec.potential is not None else Cosine()
    if not p.is_periodic or abs(p.period - TWO_PI) > 1e-12:
        raise ValidationError("compact fast axis needs a 2pi-periodic potential")
    coef = spec.charge_coef
    probe = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    u2max = float(np.max(np.abs(np.asarray(p.d2u(probe), dtype=float))))
    n_fast = int(spec.grid.get(
        "n_max_fast", _auto_fast_cutoff(kappa, xi, lam, coef, u2max)))
    L_phi = float(spec.grid.get("L_phi", 0.5 * math.pi))
    n_phi = int(spec.grid.get("n_phi", 128))
    if n_phi < 64 or (2 * n_fast + 1) < 64:
        raise ValidationError("2D grids need >= 64 points per axis")
    phi = np.linspace(-L_phi, L_phi, n_phi)
    h = phi[1] - phi[0]
    mc = np.arange(-n_fast, n_fast + 1)
    phi1, phi2 = _angle_window_ops(n_fast)
    U = _charge_basis_potential(p, n_fast)
    h_fast = coef * np.diag((mc + spec.ng)**2).astype(complex) \
        + 0.5 * kappa**4 * xi**2 * phi2 \
        + kappa**4 * lam * U
    dim_fast = 2 * n_fast + 1
    H = sp.kron(_fd4_sparse(n_phi, h, kappa**4),
                sp.identity(dim_fast, dtype=complex)) \
        + sp.kron(sp.diags(0.5 * kappa**4 * xi**2 * phi**2),
                  sp.identity(dim_fast, dtype=complex)) \
        + sp.kron(sp.identity(n_phi), sp.csr_matrix(h_fast)) \
        + sp.kron(sp.diags(-kappa**4 * xi**2 * phi), sp.csr_matrix(phi1))
    H = H.tocsc()
    diag = H.diagonal().real
    row_abs = np.asarray(np.abs(H).sum(axis=1)).ravel()
    sigma = float(np.min(diag - (row_abs - np.abs(H.diagonal())))) - 1.0
    meta = {"n_phi": n_phi, "L_phi": L_phi, "n_max_fast": n_fast,
            "h": float(h), "sigma": sigma}
    return H, sigma, meta, "E'_C units (primed charging energy)"


def _lowest_regularized2d(spec: HamiltonianSpec, k: int) -> SpectrumResult:
    if spec.kappa is None or spec.xi is None or spec.lambdaJ is None:
        raise ValidationError("Regularized2D needs kappa, xi, lambdaJ")
    if spec.basis_y == "extended":
        H, sigma, meta, units = _regularized2d_extended(spec, k)
    else:
        H, sigma, meta, units = _regularized2d_compact(spec, k)
    dim = H.shape[0]
    if not (k <= dim / 4):
        raise ValidationError("k must be <= dimension/4")
    v0 = np.ones(dim) / math.sqrt(dim)
    try:
        w, vec = eigsh(H, k=k, sigma=sigma, which="LM", v0=v0)
    except (ArpackError, LinAlgError, RuntimeError) as exc:
        if not isinstance(exc, (ArpackError, LinAlgError)) and \
                "exactly singular" not in str(exc):
            raise  # a RuntimeError from neither ARPACK nor splu is a bug
        raise ConvergenceError("sparse eigensolver failed",
                               detail=str(exc)) from exc
    order = np.argsort(w)
    w, vec = w[order], vec[:, order]
    res = np.linalg.norm(H @ vec - vec * w[None, :], axis=0)
    meta = dict(meta)
    meta["spec"] = spec.describe()
    meta["dim"] = int(dim)
    return SpectrumResult(eigenvalues=w, k=k, residual_norms=res,
                          units=units, meta=meta)


def lowest_eigenvalues(spec: HamiltonianSpec, k: int) -> SpectrumResult:
    """k lowest eigenpairs of the discretized operator.

    Extended1D/FastAtX: banded select='i' (LAPACK ?sbevx), then inverse
    iteration with a Gershgorin-scaled shift; Compact1D: tridiagonal or
    dense; 2D: shift-inverted Lanczos from a deterministic start vector.
    Residual norms ||Hv - Ev|| (unit-norm v) ride along in the result.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if spec.variant == "Extended1D":
        return _lowest_extended1d(spec, k)
    if spec.variant == "Compact1D":
        return _lowest_compact1d(spec, k)
    if spec.variant == "FastAtX":
        return _lowest_fast_at_x(spec, k)
    return _lowest_regularized2d(spec, k)


# ---------------------------------------------------------------------------
# Born-Oppenheimer effective potential over a kappa ladder


@dataclass
class BOTable:
    """Raw BO differences e0(x;kappa)-e0(0;kappa) per kappa, with the
    curvature-comparable estimates U = delta/kappa^2 alongside."""

    kappas: np.ndarray
    xs: np.ndarray
    delta: np.ndarray        # shape (len(kappas), len(xs)), hbar*omega_C units
    sup_abs: np.ndarray      # per-kappa sup over x of |delta|
    U: np.ndarray            # delta / kappa^2
    verdict: str             # "decreasing" | "inconclusive"

    def quadratic_fit(self) -> np.ndarray:
        """Least-squares curvature a per kappa for U ~ a*x^2."""
        x2 = self.xs**2
        denom = float(np.sum(x2**2))
        if denom == 0.0:
            raise ValidationError("x grid cannot be all zeros")
        return np.array([float(np.sum(u * x2)) / denom for u in self.U])

    def to_sweep_table(self) -> SweepTable:
        rows = []
        for i, kap in enumerate(self.kappas):
            for j, x in enumerate(self.xs):
                rows.append((float(kap), float(x), float(self.delta[i, j]),
                             float(self.U[i, j])))
        return SweepTable(
            columns=["kappa", "x", "delta_e0", "U_estimate"],
            rows=rows,
            units=("delta_e0 in hbar*omega_C units; "
                   "U_estimate = delta_e0/kappa^2"),
            meta={"verdict": self.verdict,
                  "sup_abs": [float(s) for s in self.sup_abs]})


def _bo_point(task) -> float:
    kap, xi, lam, p, x, half_width, n = task
    return bo_fast_ground(kap, xi, lam, p, x, half_width=half_width, n=n)


def bo_effective_potential(kappas, xs, p: PotentialModel, xi: float,
                           lambdaJ: float, half_width: float | None = None,
                           n: int | None = None, map_fn=None) -> BOTable:
    """Fast-ground-energy differences over a decreasing kappa ladder.

    verdict is "decreasing" when sup_x |e0(x)-e0(0)| strictly decreases
    along the ladder, "inconclusive" otherwise (data still returned).
    map_fn, when given, replaces the built-in map over grid points (an
    order-preserving pool map parallelizes the sweep deterministically).
    """
    kappas = np.asarray(kappas, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if kappas.size < 3:
        raise ValidationError("kappa ladder needs >= 3 entries")
    if not np.all(np.diff(kappas) < 0):
        raise ValidationError("kappa ladder must be strictly decreasing")
    tasks = []
    for kap in kappas:
        tasks.append((float(kap), xi, lambdaJ, p, 0.0, half_width, n))
        for x in xs:
            tasks.append((float(kap), xi, lambdaJ, p, float(x),
                          half_width, n))
    mapper = map if map_fn is None else map_fn
    values = list(mapper(_bo_point, tasks))
    delta = np.zeros((kappas.size, xs.size))
    stride = 1 + xs.size
    for i in range(kappas.size):
        e00 = values[i * stride]
        for j in range(xs.size):
            delta[i, j] = values[i * stride + 1 + j] - e00
    sup = np.max(np.abs(delta), axis=1)
    decreasing = bool(np.all(np.diff(sup) < 0))
    return BOTable(kappas=kappas, xs=xs, delta=delta, sup_abs=sup,
                   U=delta / kappas[:, None]**2,
                   verdict="decreasing" if decreasing else "inconclusive")


# ---------------------------------------------------------------------------
# naive compact adiabatic ladder


@dataclass
class NaiveAdiabaticSpectrum:
    """Formula ladder and its grid-diagonalization check, primed-E_C units."""

    formula: np.ndarray
    numerical: np.ndarray
    kappa: float
    xi: float
    ng: float
    phi_c_mean: float = math.pi
    psi0_amplitude: float = 1.0 / math.sqrt(TWO_PI)
    units: str = "E'_C units (primed charging energy)"


def naive_compact_adiabatic(kappa: float, xi: float, ng: float,
                            k: int, n: int = 768,
                            charge_half_factor: bool = False,
                            ) -> NaiveAdiabaticSpectrum:
    """Slow ladder sqrt(2)*kappa^4*xi*(j+1/2) after averaging over the flat
    fast ground state, plus the direct diagonalization of the slow operator
    kappa^4*[n^2 + (xi^2/2)(phi - pi)^2].

    charge_half_factor halves the n^2 coefficient (the alternative charging
    convention); the ladder then reads kappa^4*xi*(j+1/2).

    Refuses inside the gate-charge window |n_g - 1/2| <= kappa^2, where the
    fast ground state degenerates and the flat-state average is meaningless.
    """
    if kappa <= 0 or xi <= 0:
        raise ValidationError("kappa and xi must be > 0")
    if k < 1:
        raise ValidationError("k must be >= 1")
    frac = ng % 1.0
    if abs(frac - 0.5) <= kappa**2:
        raise PhysicalRegimeError("degenerate fast ground state",
                                  ng=float(ng), window=float(kappa**2))
    ckin = 0.5 * kappa**4 if charge_half_factor else kappa**4
    # levels of ckin*n^2 + (kappa^4 xi^2/2) q^2: 2*sqrt(ckin*kappa^4*xi^2/2)
    formula = 2.0 * math.sqrt(0.5 * ckin * kappa**4 * xi**2) * (
        np.arange(k) + 0.5)
    sigma_q = (1.0 / (2.0 * xi**2))**0.25
    L = max(12.0 * sigma_q * math.sqrt(k + 1.0), 1.0)
    q = np.linspace(-L, L, n)
    h = q[1] - q[0]
    v = 0.5 * kappa**4 * xi**2 * q**2
    w, _, _ = _solve_banded(v, h, ckin, k)
    return NaiveAdiabaticSpectrum(formula=formula, numerical=w,
                                  kappa=float(kappa), xi=float(xi),
                                  ng=float(ng))


# ---------------------------------------------------------------------------
# kappa sweeps and convention contrasts


def _default_2d_grids(basis: str, kappa: float, xi: float, lam: float,
                      coef: float) -> dict:
    beta = lam / xi**2
    if basis == "extended":
        sigma_x = ((1.0 + beta) / max(beta, 1e-6))**0.25 / math.sqrt(2.0)
        Lx = 7.0 * sigma_x
        Ly = kappa * Lx + 8.0
        nx = max(128, int(math.ceil(2.0 * Lx / (sigma_x / 10.0))))
        ny = max(64, int(math.ceil(2.0 * Ly / 0.1)))
        return {"Lx": Lx, "nx": nx, "Ly": Ly, "ny": ny}
    v2 = lam / (1.0 + beta)
    sigma_phi = (1.0 / (2.0 * max(v2, 0.25)))**0.25
    L_phi = min(8.0 * sigma_phi, 0.9 * math.pi)
    n_phi = max(64, int(math.ceil(2.0 * L_phi / (sigma_phi / 12.0))))
    return {"L_phi": L_phi, "n_phi": n_phi}


def spectrum_vs_kappa(p: PotentialModel, xi: float, lambdaJ: float,
                      kappas, k: int = 4, bases=("extended", "compact"),
                      ng: float = 0.0, charge_half_factor: bool = False,
                      grids: dict | None = None) -> SweepTable:
    """Lowest-k levels per kappa for the requested 2D bases.

    energy_EC converts each basis's native units to E_C so the two
    quantizations can sit in one table; per-point solver failures are
    recorded in the error column and the sweep continues.
    """
    kappas = np.asarray(kappas, dtype=float)
    if np.any(kappas <= 0):
        raise ValidationError("kappas must be > 0")
    coef = 0.5 if charge_half_factor else 1.0
    rows = []
    for kap in kappas:
        for basis in bases:
            grid = dict(_default_2d_grids(basis, float(kap), xi, lambdaJ,
                                          coef))
            if grids and basis in grids:
                grid.update(grids[basis])
            spec = HamiltonianSpec(
                variant="Regularized2D", potential=p, kappa=float(kap),
                xi=xi, lambdaJ=lambdaJ, ng=ng, basis_y=basis,
                charge_half_factor=charge_half_factor, grid=grid)
            try:
                result = lowest_eigenvalues(spec, k)
            except CircadiaError as exc:
                rows.append((float(kap), basis, -1, math.nan, math.nan,
                             math.nan, f"{type(exc).__name__}: {exc}"))
                continue
            ev = result.eigenvalues
            if basis == "extended":
                to_ec = xi / kap**2
            else:
                to_ec = 1.0 / kap**4
            ec = ev * to_ec
            for lvl in range(k):
                spacing = ec[lvl + 1] - ec[lvl] if lvl + 1 < k else math.nan
                rows.append((float(kap), basis, lvl, float(ev[lvl]),
                             float(ec[lvl]), float(spacing), ""))
    return SweepTable(
        columns=["kappa", "basis", "level", "energy_native", "energy_EC",
                 "spacing_EC", "error"],
        rows=rows,
        units=("energy_native: extended rows in kappa^2*H/(hbar*omega_C), "
               "compact rows in E'_C; energy_EC and spacing_EC in E_C "
               "units"),
        meta={"xi": xi, "lambdaJ": lambdaJ, "ng": ng,
              "charge_half_factor": charge_half_factor, "k": k})


@dataclass
class TransmonComparison:
    """Gap shift between the C+C_J and C capacitance conventions."""

    lambdaJ: float
    ng: float
    ratios: np.ndarray          # C_J/C values
    gap_reference: float        # gap of the C convention, E_C units
    gaps_with_cj: np.ndarray    # gaps of the C+C_J convention, same units
    relative_shifts: np.ndarray
    charge_half_factor: bool


def _transmon_gap(lambdaJ: float, ng: float, half: bool) -> float:
    spec = HamiltonianSpec(variant="Compact1D", potential=Cosine(),
                           lambdaJ=lambdaJ, ng=ng,
                           charge_half_factor=half)
    w = lowest_eigenvalues(spec, 2).eigenvalues
    return float(w[1] - w[0])


def transmon_limit_check(lambdaJ: float, ng: float = 0.0, ratios=(0.01,),
                         charge_half_factor: bool = False) -> TransmonComparison:
    """Compact spectra under the two capacitance conventions.

    The C+C_J convention rescales the charging energy by 1/(1+r) and the
    Josephson ratio by (1+r); gaps are reported in the unprimed E_C units of
    the bare-C convention so shifts are directly comparable.
    """
    if lambdaJ < 10:
        raise ValidationError("transmon check needs lambdaJ >= 10")
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios < 0):
        raise ValidationError("C_J/C ratios must be >= 0")
    gap_ref = _transmon_gap(lambdaJ, ng, charge_half_factor)
    gaps = np.array([
        _transmon_gap(lambdaJ * (1.0 + r), ng, charge_half_factor) / (1.0 + r)
        for r in ratios])
    shifts = (gap_ref - gaps) / gap_ref
    return TransmonComparison(
        lambdaJ=float(lambdaJ), ng=float(ng), ratios=ratios,
        gap_reference=gap_ref, gaps_with_cj=gaps, relative_shifts=shifts,
        charge_half_factor=charge_half_factor)


def box_level_spacings(c_kin: float, half_widths, n_per_length: float = 24.0,
                       k: int = 12) -> np.ndarray:
    """Mean low-level spacing of the free extended operator per box size.

    The free-particle limit has no discrete low-energy levels; its box
    regularization shows that directly as spacings collapsing with length.
    """
    out = []
    for L in half_widths:
        n = max(256, int(n_per_length * 2.0 * L))
        spec = HamiltonianSpec(variant="Extended1D",
                               v_func=lambda q: np.zeros_like(q),
                               c_kin=c_kin,
                               grid={"half_width": float(L), "n": n})
        w = lowest_eigenvalues(spec, k).eigenvalues
        out.append(float(np.mean(np.diff(w))))
    return np.asarray(out)
