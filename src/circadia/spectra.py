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

Every box axis, 1D or 2D, is built and checked by _box_axis (n uniform
nodes on [-L, L]; L not finite and > 0, or n below the axis floor, is a
ValidationError). The internal 1D solves (compare's columns and box
proxies, the naive ladder, box_level_spacings, the fast mode of every BO
point) take the sampled potential on those nodes; HamiltonianSpec is the
public entry point only. The one 1D band builder refuses non-finite
samples and a kinetic coefficient that is not finite and >= 0.

Every lowest-k solve of a band (1D, and the contracted 2D band below) is
shift-inverted Lanczos on a banded Cholesky factor, from the certified Weyl
shift sigma = min_i lambda_min(B_i) less a rounding margin: B_i are the
blocks left when the positive semidefinite FD4 kinetic term is dropped, the
potential values in 1D. In 1D a second Cholesky just below the ground Ritz
value certifies that no level lies under it (_certify_ground). Every
Born-Oppenheimer rung, of bo-sweep and of compare, is one routine
(_bo_delta): a chain (_ground_along) that solves one fast ground state so
and continues its neighbours by inverse iteration on one banded LU each,
under the same certificate. Sylvester inertia counts cut an energy window
into slices of <= 32 levels, each shift-inverted Lanczos; a window's count
and end levels need only its two end slices.

Both Regularized2D bases are H = (slow FD4 kinetic) x I + B with B block
diagonal: B_i is the fast operator frozen at slow grid point i. One
assembly (_two_mode) builds the grids, the product by H (from the slow band
and the blocks; no matrix of H) and the sweep of the blocks, which
diagonalizes every B_i whole once and again only for a rung that needs more
eigenvectors than it kept (_frozen_sweep). Parity halves the sweep: when u
is even, n_g = 0 and the slow grid symmetric, the block at slow point
n_slow-1-i is P B_i P, P reversing the fast axis, so only the blocks
i <= n_slow-1-i are diagonalized and each other one takes its mirror's
levels and reversed eigenvectors. The mirror is taken only when the
measured bound delta on ||B_(n_slow-1-i) - P B_i P|| is within the
rounding of one block eigensolve, and delta then widens the Weyl margin and
the stop guard below; otherwise every block is solved. H is projected onto
the m lowest eigenvectors chi_i of every B_i (a contracted adiabatic basis,
sequential diagonalization-truncation), a Hermitian band of width 3m-1
(m = 1 is Born-Oppenheimer with its diagonal correction, m = dim_fast the
full grid operator, never factorized). Each Ritz vector is lifted to the
grid; one product by H gives its Rayleigh quotient, the reported level,
and its residual. m doubles from 4 until each kept level has a grid
residual <= 1e-8 of the spectral scale (every variant's bound) and a
Kato-Temple bracket <= 1e-10 relative, and the next level lies below every
discarded block level. A rung whose arrays would exceed a fixed memory
budget is refused before it allocates them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, \
    eig_banded, eigh
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import (CircadiaError, ConvergenceError, PhysicalRegimeError,
                     ValidationError)
from .potentials import Cosine, PotentialModel, _two_pi_periodic
from .reduction import EffectivePotential
from .sweeps import SweepTable, write_csv, write_json

TWO_PI = 2.0 * math.pi

VARIANTS = ("Extended1D", "Compact1D", "Regularized2D", "FastAtX")
# the grid keys each variant reads, the 2D one by basis_y
_GRID_KEYS = {"Extended1D": ("half_width", "n"), "Compact1D": (),
              "FastAtX": ("half_width", "n"),
              "extended": ("Lx", "nx", "Ly", "ny"),
              "compact": ("L_phi", "n_phi", "n_max_fast")}


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """One Hamiltonian variant plus its discretization.

    grid keys by variant (any other key is refused):
      Extended1D      half_width, n (ignored when `effective` carries a grid)
      Compact1D       none (cutoff comes from n_max)
      FastAtX         half_width, n (both optional, auto-sized)
      Regularized2D   extended basis_y: Lx, nx, Ly, ny
                      compact basis_y: L_phi, n_phi, n_max_fast

    Box axes (Extended1D v_func grids, FastAtX, both extended 2D axes, the
    compact slow axis) come from one routine, _box_axis: n uniform nodes on
    [-half_width, half_width], refusing a half-width that is not finite and
    > 0 and n below 128 (64 on a 2D axis). The FD4 stencil stops at the end
    nodes, so the walls sit one step past them (ROADMAP item 1 replaces
    this closure). An `effective` grid must be uniform, increasing and
    symmetric. FastAtX widens a grid its levels reach once, then refuses;
    bo_fast_ground is its ground level.
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
        two_d = self.variant == "Regularized2D"
        allowed = _GRID_KEYS[self.basis_y if two_d else self.variant]
        for key in self.grid:
            if key not in allowed:
                raise ValidationError(
                    f"grid key {key!r} is not read by {self.variant}"
                    + (f" ({self.basis_y} basis_y)" if two_d else "")
                    + f"; allowed: {', '.join(allowed) or 'none'}")

    @property
    def charge_coef(self) -> float:
        return 0.5 if self.charge_half_factor else 1.0

    def describe(self) -> dict:
        return {
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
        write_json(path, {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "k": int(self.k),
            "residual_norms": [float(r) for r in self.residual_norms],
            "units": self.units,
            "meta": self.meta,
        })

    def to_csv(self, path: str) -> None:
        write_csv(path, ("level", "eigenvalue", "residual_norm"),
                  zip(range(len(self.eigenvalues)),
                      self.eigenvalues.tolist(), self.residual_norms.tolist()),
                  self.units, self.meta)


# ---------------------------------------------------------------------------
# finite-difference kinetic blocks (4th-order central, box boundary)


def _fd4_bands(n: int, h: float, c: float) -> np.ndarray:
    """Lower-band storage of -c * d^2/dq^2 on n box points."""
    band = np.zeros((3, n))
    band[0, :] = c * 2.5 / h**2
    band[1, :-1] = -c * (4.0 / 3.0) / h**2
    band[2, :-2] = c * (1.0 / 12.0) / h**2
    return band


def _half_width(half_width: float) -> float:
    """half_width as a float, refused unless finite and > 0."""
    if not 0.0 < float(half_width) < math.inf:
        raise ValidationError("box half-width must be finite and > 0")
    return float(half_width)


def _box_axis(half_width: float, n: int, least: int = 128):
    """(nodes, h): the n uniform nodes of a box axis on [-half_width,
    half_width], end nodes included, and their step; the walls sit one step
    past them (HamiltonianSpec). Refuses a half-width that is not finite and
    > 0, and n below least (128 for a 1D grid, 64 for a 2D axis)."""
    half_width = _half_width(half_width)
    if n < least:
        raise ValidationError("1D grids need >= 128 points" if least == 128
                              else f"2D grids need >= {least} points per axis")
    nodes = np.linspace(-half_width, half_width, n)
    return nodes, float(nodes[1] - nodes[0])


def _band_apply(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x along axis 0 of any x, Hermitian A in lower band storage ab."""
    xt = x.T
    y = ab[0] * xt
    for d in range(1, ab.shape[0]):
        y[..., d:] += ab[d, :-d] * xt[..., :-d]
        y[..., :-d] += ab[d, :-d].conj() * xt[..., d:]
    return y.T


# ---------------------------------------------------------------------------
# 1D extended


def _extended1d_arrays(spec: HamiltonianSpec):
    if spec.effective is None:
        if spec.v_func is None:
            raise ValidationError("Extended1D needs `effective` or `v_func`")
        q, h = _box_axis(spec.grid.get("half_width", 10.0),
                         int(spec.grid.get("n", 1024)))
        return np.asarray(spec.v_func(q), dtype=float), h
    coords = np.asarray(spec.effective.coordinates, dtype=float)
    if coords.size < 128:
        raise ValidationError("1D grids need >= 128 points")
    h = float(coords[1] - coords[0])
    if not (h > 0 and np.allclose(np.diff(coords), h, rtol=1e-9, atol=0.0)):
        raise ValidationError("extended grid must be uniform and increasing")
    if abs(coords[0] + coords[-1]) > 1e-9 * (coords[-1] - coords[0]):
        raise ValidationError("extended grid must be symmetric about 0")
    return np.asarray(spec.effective.V, dtype=float), h


def _weyl_shift(block_minima: np.ndarray, block_dim: int,
                block_norm: float, mirror_gap: float = 0.0) -> float:
    """Shift-invert sigma certified below the spectrum of H = A + B.

    A, the FD4 kinetic term (times the identity on the fast axis in 2D), is
    positive semidefinite: the FD4 symbol (c-1)(c-7)/3 is >= 0 for
    c = cos(theta), and a finite Toeplitz section keeps its eigenvalues
    inside the range of its symbol. B is block diagonal (1x1 blocks v_i in
    1D, one frozen fast block per slow grid point in 2D), so Weyl's
    inequality gives lambda_min(H) >= min_i lambda_min(B_i); by Cauchy
    interlacing the bound holds for every projection of H too. The margin
    covers the rounding of the block eigensolves (block_dim*eps*||B_i||),
    mirror_gap (a bound on ||B_j - P B_i P|| when block j took the levels
    of its mirror i, see _frozen_sweep; 0 when every block was solved)
    plus 1e-6 relative to the bound.
    """
    bound = float(np.min(block_minima))
    margin = 1e-6 * max(1.0, abs(bound)) \
        + block_dim * np.finfo(float).eps * block_norm + mirror_gap
    return float(bound - margin)


def _start_vector(n: int) -> np.ndarray:
    """Fixed-seed normal unit vector: O(1/sqrt(n)) overlap with every
    eigenvector, unlike a smooth one (orthogonal to one parity)."""
    v = np.random.default_rng(8675309).standard_normal(n)
    return v / np.linalg.norm(v)


def _cholesky_below(ab: np.ndarray, shift: float, claim: str) -> np.ndarray:
    """Banded Cholesky factor of A - shift*I (A Hermitian, lower storage ab,
    ab[0] the diagonal). It exists only if shift lies below the spectrum of
    A, so a refused factorization is a ConvergenceError stating `claim`."""
    # in Fortran order, which LAPACK factors in place without a copy
    shifted = ab.copy(order="F")
    shifted[0] -= shift
    try:
        return cholesky_banded(shifted, lower=True, overwrite_ab=True,
                               check_finite=False)
    except LinAlgError as exc:
        raise ConvergenceError(claim, detail=str(exc)) from exc


def _shift_invert_pairs(ab: np.ndarray, sigma: float, npairs: int,
                        solve=None):
    """Ascending Ritz values and unit vectors of the npairs eigenpairs of the
    Hermitian band A (lower storage ab) nearest sigma, by shift-invert
    Lanczos; solve(v) applies (A - sigma*I)^-1, by default by a banded
    Cholesky that proves sigma below A's spectrum (the pairs are lowest)."""
    n = ab.shape[1]
    if solve is None:
        chol = _cholesky_below(ab, sigma, f"shift sigma={sigma!r} is not "
                               "below the banded spectrum")
        solve = partial(cho_solve_banded, (chol, True), check_finite=False)
    opinv = LinearOperator((n, n), dtype=ab.dtype, matvec=solve)
    try:
        # shift-invert mode applies only OPinv, never A itself
        w, c = eigsh(opinv, k=npairs, sigma=sigma, which="LM",
                     v0=_start_vector(n), OPinv=opinv)
    except (ArpackError, LinAlgError) as exc:
        raise ConvergenceError("sparse eigensolver failed",
                               detail=str(exc)) from exc
    order = np.argsort(w)
    return w[order], c[:, order]


def _count_below(band: np.ndarray, s: float) -> tuple[int, float]:
    """(count, delta): levels of the pentadiagonal band (lower storage) below
    s by Sylvester's inertia, the negative pivots of the unpivoted band -
    s*I + E = L*D*L^T, |E| <= 4*eps*|L||D||L^T| (3 products an entry). By
    Weyl a level farther than delta = 4*eps*|| |L||D||L^T| ||_1 from s is
    counted on its own side; two leading unit pivots meet the zero padding."""
    a0, a1, a2 = (band[0] - s).tolist(), band[1].tolist(), band[2].tolist()
    # preallocated C doubles, which numpy then reads without a conversion
    zeros = bytes(8 * len(a0))
    d, l1, l2 = array("d", zeros), array("d", zeros), array("d", zeros)
    # the two previous pivots and the previous multiplier l1 as locals
    d2, d1, m1 = 1.0, 1.0, 0.0
    try:
        for i in range(len(a0)):
            x2 = a2[i - 2] / d2
            x1 = (a1[i - 1] - x2 * m1 * d2) / d1
            di = a0[i] - x1 * x1 * d1 - x2 * x2 * d2
            d[i] = di
            l1[i] = x1
            l2[i] = x2
            d2, d1, m1 = d1, di, x1
    except ZeroDivisionError as exc:
        raise ConvergenceError(f"zero pivot in the count at s={s!r}") from exc
    d, l1, l2 = np.frombuffer(d), np.abs(np.frombuffer(l1)), \
        np.abs(np.frombuffer(l2))
    # |d_k| * (column k sum of |L|), then column sums of |L||D||L^T|
    cd = np.abs(d) * (1.0 + np.append(l1[1:], 0.0) + np.append(l2[2:], [0, 0]))
    growth = cd + np.append(0.0, cd[:-1] * l1[1:]) \
        + np.append([0.0, 0.0], cd[:-2] * l2[2:])
    return (int(np.count_nonzero(d < 0)),
            float(4.0 * np.finfo(float).eps * np.max(growth)))


def _fd4_operator(v: np.ndarray, h: float, c_kin: float):
    """Lower band of c_kin*p^2 + diag(v) and s, the Gershgorin bound on
    max|lambda|; refuses a c_kin that is not finite and >= 0 (the Weyl
    shift needs a positive semidefinite kinetic term) and non-finite v."""
    if not 0.0 <= c_kin < math.inf:
        raise ValidationError(f"c_kin must be finite and >= 0, got {c_kin!r}")
    band = _fd4_bands(v.size, h, c_kin)
    band[0, :] += v
    # Gershgorin row sums; the FD4 off-diagonals are constant
    scale = float(np.max(np.abs(band[0])) + 2.0 * np.sum(np.abs(band[1:, 0])))
    # with c_kin and h finite, the bound is finite exactly when v is
    if not math.isfinite(scale):
        raise ValidationError("the potential samples must be finite")
    return band, scale


def _solve_banded(v: np.ndarray, h: float, c_kin: float, k: int):
    """Lowest k FD4 eigenpairs of c_kin*p^2 + diag(v): eigenvalues, unit
    vectors, residual norms and the shift-invert sigma.

    s is the Gershgorin bound on max|lambda|. Shift-invert Lanczos from the
    Weyl shift sigma = min v less its margin; a banded Cholesky of
    H - (E_0 - ||r_0|| - 8*eps*s)*I then certifies that no level lies below
    the ground Ritz value E_0. Above E_0 the levels rest on Lanczos from a
    proven lower bound, as in 2D."""
    _check_k(k, v.size)
    band, scale = _fd4_operator(v, h, c_kin)
    sigma = _weyl_shift(v, 1, scale)
    w, vec = _shift_invert_pairs(band, sigma, k)
    return w, vec, _certify_ground(band, scale, w, vec, "ground Ritz value"), \
        sigma


def _certify_ground(band: np.ndarray, scale: float, w: np.ndarray,
                    vec: np.ndarray, what: str) -> np.ndarray:
    """Residual norms ||H v_j - w_j v_j|| of the unit pairs (w_j, column v_j
    of vec) of the band H (lower storage), s = scale its Gershgorin bound on
    max|lambda|, once a banded Cholesky of H - (w_0 - ||r_0|| - 8*eps*s)*I
    proves that no level lies below w_0; a refused factorization is a
    ConvergenceError "a level lies below the <what> w_0"."""
    res = np.linalg.norm(_band_apply(band, vec) - vec * w, axis=0)
    _cholesky_below(band, float(w[0] - res[0] - 8.0 * np.finfo(float).eps
                                * scale),
                    f"a level lies below the {what} {float(w[0])!r}")
    return res


def _check_k(k: int, dim: int) -> None:
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not k <= dim / 4:
        raise ValidationError("k must be <= dimension/4")


def _banded_result(spec: HamiltonianSpec, w: np.ndarray, res: np.ndarray,
                   sigma: float, units: str, **grid) -> SpectrumResult:
    """A _solve_banded solve as a SpectrumResult; meta records the spec, the
    grid (h, n, ...), sigma and shift_gap."""
    meta = {"spec": spec.describe(), **grid, "sigma": sigma,
            "shift_gap": float(w[0] - sigma)}
    return SpectrumResult(eigenvalues=w, k=int(w.size), residual_norms=res,
                          units=units, meta=meta)


def _window_counter(v: np.ndarray, h: float, c_kin: float):
    """(band, tol, count, points) of a window solve of c_kin*p^2 + diag(v):
    tol = 8*eps*s, s the Gershgorin bound on max|lambda|; count(s) is the
    inertia count (s, levels below s, delta) of the band, each one kept in
    points."""
    band, scale = _fd4_operator(v, h, c_kin)
    points: list = []

    def count(s):
        points.append((s, *_count_below(band, s)))
        return points[-1]
    return band, 8.0 * np.finfo(float).eps * scale, count, points


def _edge_counts(count, lo: float, hi: float, tol: float,
                 reach: float | None = None) -> list:
    """Certified counts (s, levels below s, delta) just outside both edges
    of the closed window [lo, hi]. A count is blind within its delta of s,
    so it is kept once |s - edge| - delta >= tol/2 and otherwise moves to
    edge -+ (tol/2 + 2*delta), up to seven times. The first count sits at
    lo - reach (default tol), each later edge's first at
    edge -+ (tol/2 + 2*delta) with the delta of the count before it: kept
    at once unless its own delta is more than twice that."""
    edges, tried = [], []
    reach = tol if reach is None else reach
    for edge, out in ((lo, -1.0), (hi, 1.0)):
        s = edge + out * reach
        for _ in range(8):
            tried.append(count(s))
            s, c, delta = tried[-1]
            reach = 0.5 * tol + 2.0 * delta
            if abs(s - edge) - delta >= 0.5 * tol:
                break
            # the count is blind within delta of s: move out of its reach
            s = edge + out * reach
        else:
            raise ConvergenceError("no certified count near the window edge "
                                   f"{edge!r}", detail=tried)
        edges.append((s, c, delta))
    return edges


def _cut(count, a: tuple, b: tuple) -> list:
    """The non-empty slices (a', b') of <= 32 levels between the count
    points a and b, ascending, cut at energy midpoints."""
    # <= 32 levels a slice bounds ARPACK's O(n*ncv^2) work, keeps k < n
    mid = 0.5 * (a[0] + b[0])
    if b[1] - a[1] <= 32 or not a[0] < mid < b[0]:
        return [(a, b)] if b[1] > a[1] else []
    m = count(mid)
    return _cut(count, a, m) + _cut(count, m, b)


def _lu_solver(band: np.ndarray, shift: float):
    """v -> (A - shift*I)^-1 v for the real pentadiagonal band A (lower
    storage) by a ?gbtrf LU with partial pivoting, or None when A - shift*I
    is singular."""
    # the general band with two rows of fill space above
    gb = np.zeros((7, band.shape[1]))
    gb[4:], gb[3, 1:], gb[2, 2:] = band, band[1, :-1], band[2, :-2]
    gb[4] -= shift
    lu, piv, info = dgbtrf(gb, 2, 2)
    if info > 0:
        return None
    return lambda v: dgbtrs(lu, 2, 2, v, piv)[0]


def _slice_levels(band: np.ndarray, a: tuple, b: tuple, tol: float):
    """Ascending Ritz values and residual norms of the b[1] - a[1] levels
    between the count points a and b: shift-invert Lanczos at the slice
    centre on a ?gbtrf LU. A Ritz value outside the slice (beyond its ends'
    delta, its residual and tol) is a ConvergenceError."""
    # the k levels nearest the slice centre are exactly its k levels
    centre, k = 0.5 * (a[0] + b[0]), b[1] - a[1]
    solve = _lu_solver(band, centre)
    if solve is None:
        raise ConvergenceError(f"slice centre {centre!r} is a level")
    w, vec = _shift_invert_pairs(band, centre, k, solve)
    res = np.linalg.norm(_band_apply(band, vec) - vec * w, axis=0)
    inside = np.count_nonzero((w >= a[0] - a[2] - res - tol)
                              & (w <= b[0] + b[2] + res + tol))
    if inside != k:
        raise ConvergenceError(f"{inside} levels lie inside the slice "
                               f"({a[0]!r}, {b[0]!r}), its edge counts give "
                               f"{k}", detail={"slice": [a, b]})
    return w, res


def eigenvalues_in_window(spec: HamiltonianSpec, e_lo: float,
                          e_hi: float) -> SpectrumResult:
    """All Extended1D eigenvalues in the closed window [e_lo, e_hi] by
    spectrum slicing; s is the Gershgorin bound on max|lambda|. An inertia
    count (_count_below, blind within its delta) at e_lo - 8*eps*s moves to
    e_lo - 4*eps*s - 2*delta (up to seven times) while its blind zone
    reaches within 4*eps*s of e_lo; the count above e_hi starts at
    e_hi + 4*eps*s + 2*delta with the lower edge's delta. So a level within
    4*eps*s of an edge counts as inside, none farther out than 8*eps*s +
    4*delta. Count midpoints cut the window into slices of <= 32 levels,
    solved by shift-invert Lanczos at their centres and checked against the
    counts; meta: slices, edge_counts, count_delta (the largest delta).
    Non-finite edges are refused."""
    if spec.variant != "Extended1D":
        raise ValidationError("energy-window solve is Extended1D only")
    if not (math.isfinite(e_lo) and math.isfinite(e_hi)):
        raise ValidationError("window edges must be finite")
    v, h = _extended1d_arrays(spec)
    band, tol, count, points = _window_counter(v, h, spec.c_kin)
    edges = _edge_counts(count, e_lo, e_hi, tol)
    slices = _cut(count, *edges)
    parts = [(np.empty(0), np.empty(0))]
    parts += [_slice_levels(band, a, b, tol) for a, b in slices]
    w, res = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(w)
    meta = {"spec": spec.describe(), "h": h, "n": int(band.shape[1]),
            "window": [float(e_lo), float(e_hi)], "slices": len(slices),
            "edge_counts": [edges[0][1], edges[1][1]],
            "count_delta": max(p[2] for p in points)}
    return SpectrumResult(eigenvalues=w[order], k=int(w.size),
                          residual_norms=res[order], units="E_C units",
                          meta=meta)


def _window_ends(v: np.ndarray, h: float, c_kin: float, lo: float,
                 hi: float):
    """(count, first, last) of the levels of c_kin*p^2 + diag(v) (step h) in
    the closed window [lo, hi], first and last None when it holds none: the
    certified edge
    counts of eigenvalues_in_window give count, and only the two end slices
    are solved, each checked against its counts. The bottom slice reaches
    from the lower edge to a count point 2*(hi - lo)/count above lo, its
    width doubled while it holds no level; the top slice mirrors it. When
    they would overlap, the window is cut as in eigenvalues_in_window and
    its first and last slices are solved. The end slices rest on their
    inner counts, so one certified count below first - r and one above
    last + r (r the Ritz value's residual norm), placed as _edge_counts
    places them from tol/2 + 2*delta with the largest delta so far, must
    give the edge counts; one beyond its edge count's point shows nothing
    more and is not compared."""
    band, tol, count, points = _window_counter(v, h, c_kin)
    a, b = _edge_counts(count, lo, hi, tol)
    n = b[1] - a[1]
    if n < 1:
        return n, None, None

    def inner(edge, far, start, out):
        # about two levels in from `edge`; `far` once that leaves the window
        width = 2.0 * (hi - lo) / n
        while width < hi - lo:
            p = count(start + out * width)
            if out * (p[1] - edge[1]) > 0:
                return p
            width *= 2.0
        return far

    bottom, top = inner(a, b, lo, 1.0), inner(b, a, hi, -1.0)
    if bottom[0] >= top[0]:
        ends = _cut(count, a, b)
    else:
        ends = _cut(count, a, bottom)[:1] + _cut(count, top, b)[-1:]
    w0, r0 = _slice_levels(band, *ends[0], tol)
    w1, r1 = (w0, r0) if len(ends) == 1 \
        else _slice_levels(band, *ends[-1], tol)
    first, last = float(w0[0]), float(w1[-1])
    below, above = _edge_counts(count, first - float(r0[0]),
                                last + float(r1[-1]), tol,
                                0.5 * tol + 2.0 * max(p[2] for p in points))
    if (below[0] > a[0] and below[1] != a[1]) \
            or (above[0] < b[0] and above[1] != b[1]):
        raise ConvergenceError(
            f"the counts beside the end levels {first!r} and {last!r} give "
            f"{below[1]} and {above[1]} levels below them, the edge counts "
            f"give {a[1]} and {b[1]}", detail={"edges": [a, b],
                                                "ends": [below, above]})
    return n, first, last


# ---------------------------------------------------------------------------
# 1D compact (charge basis)


def _charge_basis_potential(p: PotentialModel, n_max: int) -> np.ndarray:
    """<m|u(phi)|m'> = c_(m-m') for 2pi-periodic u."""
    phi = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    c = np.fft.fft(np.asarray(p.u(phi), dtype=float)) / 4096
    m = np.arange(-n_max, n_max + 1)
    d = m[:, None] - m[None, :]
    U = c[np.mod(d, c.size)]
    return 0.5 * (U + U.conj().T)


def _lowest_compact1d(spec: HamiltonianSpec, k: int) -> SpectrumResult:
    p = spec.potential if spec.potential is not None else Cosine()
    lam = float(spec.lambdaJ if spec.lambdaJ is not None else 0.0)
    if lam < 0:
        raise ValidationError("lambdaJ must be >= 0")
    if not _two_pi_periodic(p):
        raise ValidationError("Compact1D needs a 2pi-periodic potential")
    n_max = spec.n_max if spec.n_max is not None else int(
        math.ceil(3.0 * math.sqrt(lam) + 10))
    if n_max < 3.0 * math.sqrt(lam) + 10 - 1e-9:
        raise ValidationError("n_max must be >= 3*sqrt(lambdaJ) + 10")
    m = np.arange(-n_max, n_max + 1)
    H = lam * _charge_basis_potential(p, n_max)
    H[np.diag_indices_from(H)] += spec.charge_coef * (m + spec.ng)**2
    dim = H.shape[0]
    _check_k(k, dim)
    w, vec = eigh(H, subset_by_index=(0, k - 1))
    res = np.linalg.norm(H @ vec - vec * w[None, :], axis=0)
    return SpectrumResult(
        eigenvalues=w, k=k, residual_norms=res,
        units=("E_C units, charge coefficient "
               f"{'1/2' if spec.charge_half_factor else '1 (printed form)'}"),
        meta={"spec": spec.describe(), "dim": int(dim)})


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
    return np.linalg.eigvalsh(0.5 * (H + H.conj().T))[:k]


# ---------------------------------------------------------------------------
# fast oscillator at frozen slow coordinate


def _fast_potential(kappa: float, xi: float, lambdaJ: float,
                    p: PotentialModel, x, y: np.ndarray) -> np.ndarray:
    """1/2 (y - kappa x)^2 + kappa^2 (lambdaJ/xi) u(y/(kappa sqrt(xi))),
    broadcast over x and y; refuses xi <= 0, and kappa <= 0 unless
    lambdaJ = 0, where u drops out."""
    if xi <= 0:
        raise ValidationError("xi must be > 0")
    if kappa > 0:
        u = np.asarray(p.u(y / (kappa * math.sqrt(xi))), dtype=float)
    elif lambdaJ != 0.0:
        raise ValidationError("kappa=0 with lambdaJ>0 is singular here")
    else:
        u = np.zeros_like(y)
    return 0.5 * (y - kappa * x)**2 + kappa**2 * (lambdaJ / xi) * u


def _frozen_fast_params(spec: HamiltonianSpec):
    """(kappa, xi, lambdaJ, potential, Cosine by default) of a fast mode."""
    if spec.kappa is None or spec.xi is None or spec.lambdaJ is None:
        raise ValidationError(f"{spec.variant} needs kappa, xi, lambdaJ")
    p = spec.potential if spec.potential is not None else Cosine()
    return float(spec.kappa), float(spec.xi), float(spec.lambdaJ), p


def _frozen_fast(kappa: float, xi: float, lambdaJ: float, p: PotentialModel,
                 half_width, n, x: float, widen: int = 1):
    """(y, v, h) of the fast mode frozen at x: the nodes of its y box axis,
    the fast potential on them and their step. By default (half_width, n
    None) the half width is kappa*|x| + 12 and the step 0.01, with >= 128
    nodes; both are multiplied by widen. kappa <= 0 is refused."""
    if kappa <= 0:
        raise ValidationError("kappa must be > 0")
    L = _half_width(kappa * abs(x) + 12.0 if half_width is None
                    else half_width)
    npts = max(math.ceil(2.0 * L / 0.01), 128) if n is None else int(n)
    y, h = _box_axis(widen * L, widen * npts)
    return y, _fast_potential(kappa, xi, lambdaJ, p, x, y), h


def _edge_mass(vec: np.ndarray) -> float:
    """Largest share of a column's mass on the two end nodes at either end,
    or 0 when no share exceeds 1e-12: a grid holds the levels whose columns
    have edge mass 0."""
    psi2 = np.abs(vec)**2
    mass = float(np.max((psi2[0] + psi2[1] + psi2[-1] + psi2[-2])
                        / np.sum(psi2, axis=0)))
    return mass if mass >= 1e-12 else 0.0


def _lowest_fast(frozen, x: float, k: int):
    """(w, vec, res, sigma, y): _solve_banded of the fast mode frozen at x,
    frozen(x, widen=...) a partial of _frozen_fast, on a y grid that holds
    the k levels, the unit eigenvectors (columns) on its nodes y. A level
    with edge mass (_edge_mass) widens the grid once (half_width and n
    doubled), then fails the solve. The one cold solve of FastAtX and of a
    continuation chain (bo_fast_ground is a chain of one point)."""
    for widen in (1, 2):
        y, v, h = frozen(x, widen=widen)
        w, vec, res, sigma = _solve_banded(v, h, 0.5, k)
        edge = _edge_mass(vec)
        if not edge:
            return w, vec, res, sigma, y
    raise ConvergenceError(
        "a fast level reaches the grid boundary after widening",
        detail={"half_width": float(y[-1]), "boundary_mass": edge})


def _warm_fast_ground(frozen, x: float, prev: tuple):
    """(e0, y, unit ground vector) of the fast mode frozen at x (frozen as
    in _lowest_fast) continued from a neighbour's prev = (e0, y, vector),
    or None.

    On its own grid (never widened) the neighbour's vector,
    interpolated (zero outside its grid), starts inverse iteration on one
    LU of H - sigma*I, sigma = e0_prev - 1e-3. The level is
    sigma + 1/(v^T (H - sigma)^-1 v) of the current v, as in shift-invert
    Lanczos; the Rayleigh quotient of H would round at eps*||H||. It is
    taken once it moves by no more than 8*eps*s, s the Gershgorin bound on
    max|lambda|, within 8 solves. It must then pass the cold solve's checks:
    the ground certificate (_certify_ground) and no edge mass. None when
    the shift is a level, the cap is reached or a check fails."""
    y, v, h = frozen(x)
    band, scale = _fd4_operator(v, h, 0.5)
    tol = 8.0 * np.finfo(float).eps * scale
    sigma = prev[0] - 1e-3
    v = np.interp(y, prev[1], prev[2], left=0.0, right=0.0)
    norm = float(np.linalg.norm(v))
    solve = _lu_solver(band, sigma) if norm > 0.0 else None
    if solve is None:
        return None
    v, level = v / norm, math.inf
    for _ in range(8):
        w = solve(v)
        theta = float(v @ w)
        if theta == 0.0:
            return None
        last, level = level, sigma + 1.0 / theta
        v = w / np.linalg.norm(w)
        if abs(level - last) <= tol:
            break
    else:
        return None
    try:
        _certify_ground(band, scale, np.array([level]), v[:, None],
                        "continued level")
    except ConvergenceError:
        return None
    return None if _edge_mass(v) else (level, y, v)


def bo_fast_ground(kappa: float, xi: float, lambdaJ: float,
                   p: PotentialModel, x: float,
                   half_width: float | None = None,
                   n: int | None = None) -> float:
    """Ground energy e0(x) of the fast oscillator in hbar*omega_C units:
    the ground level of FastAtX frozen at x, as a chain of one point
    (_ground_along), which is one cold solve."""
    return float(_ground_along(kappa, xi, lambdaJ, p, [x], 0, half_width,
                               n)[0])


def _ground_along(kappa: float, xi: float, lambdaJ: float, p: PotentialModel,
                  xs, start: int, half_width: float | None = None,
                  n: int | None = None) -> np.ndarray:
    """bo_fast_ground at every x of the chain xs, by continuation; the
    chain of every Born-Oppenheimer rung (_bo_delta).

    xs[start] is solved cold (_lowest_fast, with its widening); the chain
    then walks outward in both directions, each point continued from its
    neighbour's level and vector (_warm_fast_ground). A point that does not
    continue, or fails the certificate or the edge check, is solved cold,
    and only a cold solve raises: every level is certified as
    bo_fast_ground's is, so the two differ by no more than their residual
    norms and 8*eps*s (s the Gershgorin bound on max|lambda|)."""
    frozen = partial(_frozen_fast, kappa, xi, lambdaJ, p, half_width, n)
    levels = np.empty(len(xs))

    def cold(x):
        w, vec, _, _, y = _lowest_fast(frozen, x, 1)
        return w[0], y, vec[:, 0]

    first = cold(xs[start])
    levels[start] = first[0]
    for step, stop in ((1, len(xs)), (-1, -1)):
        prev = first
        for i in range(start + step, stop, step):
            prev = _warm_fast_ground(frozen, xs[i], prev) or cold(xs[i])
            levels[i] = prev[0]
    return levels


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


def _extended_parts(spec: HamiltonianSpec, k: int):
    """Slow grid x, fast grid y and the potential V[i, j] of the extended
    pair; the grid must hold k <= dimension/4 pairs."""
    kappa, xi, lam, p = _frozen_fast_params(spec)
    x, _ = _box_axis(spec.grid.get("Lx", 10.0), int(spec.grid.get("nx", 96)),
                     64)
    y, _ = _box_axis(spec.grid.get("Ly", 10.0), int(spec.grid.get("ny", 96)),
                     64)
    _check_k(k, x.size * y.size)
    return x, y, _fast_potential(kappa, xi, lam, p, x[:, None], y[None, :])


def _auto_fast_cutoff(kappa: float, xi: float, lam: float, coef: float,
                      u2max: float) -> int:
    w2 = kappa**4 * (xi**2 + lam * u2max)
    sigma_n = (max(w2, 1.0) / (8.0 * coef**2))**0.25
    # floor keeps the fast axis at >= 65 states, the validated minimum
    return max(32, int(math.ceil(4.0 * sigma_n + 10.0)))


def _compact_parts(spec: HamiltonianSpec, k: int):
    """Slow grid phi, the phi-independent fast operator h_fast in the charge
    basis, the angle matrix phi1 and c2 = kappa^4 xi^2 of the compact pair;
    the grid must hold k <= dimension/4 pairs."""
    kappa, xi, lam, p = _frozen_fast_params(spec)
    if not _two_pi_periodic(p):
        raise ValidationError("compact fast axis needs a 2pi-periodic potential")
    coef = spec.charge_coef
    probe = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    u2max = float(np.max(np.abs(np.asarray(p.d2u(probe), dtype=float))))
    n_fast = int(spec.grid.get(
        "n_max_fast", _auto_fast_cutoff(kappa, xi, lam, coef, u2max)))
    if 2 * n_fast + 1 < 64:
        raise ValidationError("2D grids need >= 64 points per axis")
    phi, _ = _box_axis(spec.grid.get("L_phi", 0.5 * math.pi),
                       int(spec.grid.get("n_phi", 128)), 64)
    _check_k(k, phi.size * (2 * n_fast + 1))
    mc = np.arange(-n_fast, n_fast + 1)
    phi1, phi2 = _angle_window_ops(n_fast)
    c2 = kappa**4 * xi**2
    h_fast = coef * np.diag((mc + spec.ng)**2).astype(complex) \
        + 0.5 * c2 * phi2 + kappa**4 * lam * _charge_basis_potential(p, n_fast)
    return phi, h_fast, phi1, c2


# a 2D solve whose estimated arrays exceed this many bytes is refused
_MEMORY_BUDGET = 2 * 1024**3


def _refuse_over_budget(what: str, need: int) -> None:
    if need > _MEMORY_BUDGET:
        raise ValidationError(
            f"{what} needs about {need / 2**20:.1f} MiB, over the "
            f"{_MEMORY_BUDGET / 2**20:.1f} MiB budget")


def _frozen_sweep(n_slow: int, dim_fast: int, dtype, block_eig,
                  whole: bool, solved: int):
    """sweep(m): the m lowest eigenpairs of every frozen fast block B_i (m
    capped at dim_fast), eps (n_slow, m) ascending and chi (n_slow,
    dim_fast, m) with orthonormal columns; block_eig(i) gives all pairs of
    B_i. Blocks i < solved are diagonalized; every block j >= solved is
    the mirror P B_i P of block i = n_slow - 1 - j (P reverses the fast
    axis) and takes eps[j] = eps[i], chi[j] = P chi[i]. With solved =
    n_slow no block is mirrored. The first call diagonalizes its blocks
    whole and keeps, if whole, all their pairs, else the min(dim_fast,
    4m - 3) lowest: enough for the sweeps of this rung and the next two
    (m, 2m - 1, 4m - 3 as the ladder doubles m - 1). Only a call for more
    diagonalizes again, by the same rule. A new store is refused before it
    is allocated if it and the store it replaces (still held by the
    caller's views) exceed _MEMORY_BUDGET."""
    eps = chi = None
    itemsize = np.dtype(dtype).itemsize
    mirrored = n_slow - solved

    def sweep(m):
        nonlocal eps, chi
        m = min(m, dim_fast)
        if chi is None or chi.shape[2] < m:
            keep = dim_fast if whole else min(dim_fast, 4 * m - 3)
            held = 0 if chi is None else eps.nbytes + chi.nbytes
            _refuse_over_budget(
                f"the 2D block store for m={m} levels",
                held + n_slow * keep * (8 + dim_fast * itemsize))
            eps = np.empty((n_slow, keep))
            chi = np.empty((n_slow, dim_fast, keep), dtype=dtype)
            for i in range(solved):
                w, v = block_eig(i)
                eps[i], chi[i] = w[:keep], v[:, :keep]
            eps[solved:] = eps[:mirrored][::-1]
            chi[solved:] = chi[:mirrored][::-1, ::-1]
        return eps[:, :m], chi[:, :, :m]

    return sweep


def _mirrors(gap: float, dim_fast: int, norm: float) -> bool:
    """Whether the mirror pairs of frozen blocks agree, ||B_j - P B_i P||
    <= gap, to within the rounding of one block eigensolve."""
    return gap <= dim_fast * np.finfo(float).eps * norm


def _two_mode(spec: HamiltonianSpec, k: int):
    """The two-mode operator of either basis, assembled once per solve.

    H = (slow FD4 kinetic) x I + blockdiag(B_i), B_i the fast operator
    frozen at slow grid point i. Returns apply(psi) = H @ psi on grid
    vectors (dim, ...), taken from the slow band and the blocks; sweep (see
    _frozen_sweep); the slow FD4 stencil (K_ii, K_i,i+1, K_i,i+2); a bound
    on max_i ||B_i||_inf for the Weyl margin; the mirror gap (below);
    meta; and units. Extended blocks (FD4 y-band + V[i]) are banded and
    diagonalized whole by ?sbevd, compact blocks (h_fast + 1/2 c2 phi_i^2
    - c2 phi_i phi_c) are dense and diagonalized whole by eigh; both only
    when sweep first needs them, and the compact sweep keeps every
    eigenvector.

    Parity: with P reversing the fast axis (y -> -y, or charge m -> -m),
    an even u, n_g = 0 and a symmetric slow grid give B_j = P B_i P for
    j = n_slow - 1 - i. The grids are symmetric only to rounding, so delta,
    a bound on max_i ||B_j - P B_i P|| from the assembled parts, is
    measured: max|V[::-1, ::-1] - V| (the FD4 band is reversal invariant),
    or ||h_fast - P h_fast P||_inf + max_i (1/2 c2 |phi_j^2 - phi_i^2|
    + c2 |phi_i + phi_j| ||phi_c||_inf). When delta is within the rounding
    of one block eigensolve (_mirrors), the sweep solves the blocks
    i <= n_slow - 1 - i only (the middle one too when n_slow is odd) and
    mirrors the rest, and the mirror gap delta joins the Weyl margin and
    the stop guard. Otherwise (an asymmetric u, n_g != 0, an asymmetric
    grid) every block is solved and the mirror gap is 0.
    """
    if spec.basis_y == "extended":
        x, y, V = _extended_parts(spec, k)
        n_slow, dim_fast = x.size, y.size
        h_slow, hy = x[1] - x[0], y[1] - y[0]
        c_slow = 0.5 * float(spec.kappa)**2
        band = _fd4_bands(dim_fast, hy, 0.5)
        fast = band.copy()      # block_eig overwrites band[0]
        norm = float(np.max(np.abs(fast[0] + V))
                     + 2.0 * np.sum(np.abs(band[1:, 0])))
        delta = float(np.max(np.abs(V[::-1, ::-1] - V)))
        # 16 sampled default-grid ladders stopped at m = 8 or 16 on
        # 204-288 points: a few columns serve them
        dtype, whole = float, False

        def blocks(P):
            fd4 = _band_apply(fast, P.swapaxes(0, 1)).swapaxes(0, 1)
            return fd4 + V[:, :, None] * P

        def block_eig(i):
            band[0] = fast[0] + V[i]
            return eig_banded(band, lower=True)

        meta = {"nx": n_slow, "ny": dim_fast, "hx": float(h_slow),
                "hy": float(hy)}
        units = "kappa^2*H/(hbar*omega_C) units (extended pair)"
    else:
        phi, h_fast, phi1, c2 = _compact_parts(spec, k)
        n_slow, dim_fast = phi.size, h_fast.shape[0]
        h_slow, c_slow = phi[1] - phi[0], float(spec.kappa)**4
        eye = np.eye(dim_fast)
        L_phi = float(phi[-1])
        phi1_norm = float(np.max(np.sum(np.abs(phi1), axis=1)))
        norm = float(np.max(np.sum(np.abs(h_fast), axis=1))
                     + 0.5 * c2 * L_phi**2 + c2 * L_phi * phi1_norm)
        delta = float(
            np.max(np.sum(np.abs(h_fast - h_fast[::-1, ::-1]), axis=1))
            + np.max(0.5 * c2 * np.abs(phi[::-1]**2 - phi**2)
                     + c2 * np.abs(phi + phi[::-1]) * phi1_norm))
        col = phi[:, None, None]
        # a ladder often reaches the whole charge axis (5 of 16 sampled
        # default-grid sweeps, and kappa = 0.9, xi = 200 on 83 states)
        dtype, whole = complex, True

        def blocks(P):
            return h_fast @ P + 0.5 * c2 * col**2 * P - c2 * col * (phi1 @ P)

        def block_eig(i):
            return eigh(h_fast + 0.5 * c2 * phi[i]**2 * eye
                        - c2 * phi[i] * phi1)

        meta = {"n_phi": n_slow, "L_phi": L_phi,
                "n_max_fast": dim_fast // 2, "h": float(h_slow)}
        units = "E'_C units (primed charging energy)"
    slow = _fd4_bands(n_slow, h_slow, c_slow)
    if _mirrors(delta, dim_fast, norm):
        mirror_gap, solved = delta, (n_slow + 1) // 2
    else:
        mirror_gap, solved = 0.0, n_slow
    sweep = _frozen_sweep(n_slow, dim_fast, dtype, block_eig, whole, solved)

    def apply(psi):
        # the slow band's product is added in place once the blocks' is
        # made: beside psi three arrays of its size at most, as the rung
        # guard of _lowest_regularized2d counts
        P = psi.reshape(n_slow, dim_fast, -1)
        out = blocks(P)
        out += _band_apply(slow, P)
        return out.reshape(psi.shape)

    return apply, sweep, slow[:, 0], norm, mirror_gap, meta, units


def _contracted_pairs(eps: np.ndarray, chi: np.ndarray, slow: np.ndarray,
                      sigma: float, npairs: int):
    """npairs lowest eigenpairs of H projected onto span{e_i x chi[i, :, a]}.

    The projection P is block pentadiagonal: diag(eps[i]) + K_ii*I on the
    diagonal, K_ij*chi_i^H chi_j off it, a Hermitian band of width 3m-1 in
    the (slow point, fast level) order, solved by the shared shift-invert
    core; sigma lies below the spectrum of P (Cauchy interlacing). Returns
    ascending Ritz values and their unit coefficient vectors.
    """
    n_slow, _, m = chi.shape
    n = n_slow * m
    ab = np.zeros((3 * m, n), dtype=chi.dtype)
    ab[0] = eps.ravel() + slow[0]
    a = np.arange(m)
    for s in (1, 2):
        # S[i] = chi_{i+s}^H chi_i, the block at (slow point i+s, i)
        S = np.matmul(chi[s:].conj().transpose(0, 2, 1), chi[:-s])
        ab[s * m + a[:, None] - a[None, :],
           m * np.arange(n_slow - s)[:, None, None] + a] = slow[s] * S
    return _shift_invert_pairs(ab, sigma, npairs)


def _lifted_rung(apply, eps: np.ndarray, chi: np.ndarray, slow: np.ndarray,
                 sigma: float, npairs: int):
    """(w, r): the npairs lowest pairs of the contracted rung
    (_contracted_pairs) lifted to the grid, psi = chi c, w their Rayleigh
    quotients and r their grid residual norms ||H psi - w psi||.

    The level is the Rayleigh quotient of the lifted vector; its terms of
    size ||K||*|psi|^2 cancel to |w|, and on the quadratic 192x240 extended
    grid it was off a long-double evaluation by 1.4e-14*|w| (about 60 eps);
    the banded Ritz value rounds at eps*||H||. Once H psi is made (apply
    holds at most three dim x npairs arrays beside psi), the products,
    quotients and the residual are taken in place in one more such array;
    the rung guard of _lowest_regularized2d counts them all."""
    _, c = _contracted_pairs(eps, chi, slow, sigma, npairs)
    psi = np.matmul(chi, c.reshape(len(chi), -1, npairs)).reshape(-1, npairs)
    Hpsi, prod = apply(psi), np.conj(psi)
    w = np.sum(np.multiply(prod, Hpsi, out=prod), axis=0).real
    w = w / np.sum(np.multiply(np.conj(psi, out=prod), psi, out=prod),
                   axis=0).real
    # the residual in place of H psi, its norm as np.linalg.norm takes it
    Hpsi -= np.multiply(psi, w[None, :], out=prod)
    np.multiply(np.conj(Hpsi, out=prod), Hpsi, out=prod)
    return w, np.sqrt(np.sum(prod.real, axis=0))


# the contracted solve starts at m = _FIRST_RUNG fast levels per slow point
_FIRST_RUNG = 4
_LEVEL_RTOL = 1e-10
_RESIDUAL_RTOL = 1e-8


def _lowest_regularized2d(spec: HamiltonianSpec, k: int) -> SpectrumResult:
    apply, sweep, slow, norm, mirror_gap, meta, units = _two_mode(spec, k)
    m = _FIRST_RUNG
    # every rung sweeps one block level above itself for the guard below
    eps, chi = sweep(m + 1)
    n_slow, dim_fast = chi.shape[:2]
    dim = n_slow * dim_fast
    sigma = _weyl_shift(eps[:, 0], dim_fast, norm, mirror_gap)
    while True:
        # ARPACK needs a contracted space well above the k+1 wanted pairs
        if m == dim_fast or n_slow * m >= 4 * (k + 1):
            # a rung of n = n_slow*m states allocates, beside the store, at
            # the larger of two peaks. Both hold a copy of the m eigenvector
            # columns of every block (dim x m: conjugated, or contiguous for
            # a product). The band solve adds the band of 3m rows, its
            # shifted Cholesky copy, the coupling blocks of one slow offset
            # and their scaled copy (n x m twice), the ARPACK Lanczos basis
            # (n x ncv, ncv = max(2k+3, 20) as eigsh sizes it, and 8 vectors
            # of work) and the Ritz vectors with their sorted copy
            # (n x (k+1) twice). The lift (_lifted_rung) adds the Ritz
            # coefficients (n x (k+1)), psi and three more arrays of its
            # size (dim x (k+1)): H psi and two temporaries.
            n = n_slow * m
            band = 8 * m * n + n * (min(max(2 * k + 3, 20), n) + 2 * k + 10)
            need = eps.base.nbytes + chi.base.nbytes + chi.itemsize * (
                dim * m + max(band, (n + 4 * dim) * (k + 1)))
            _refuse_over_budget(f"the contracted 2D rung m={m}", need)
            w, lifted = _lifted_rung(apply, eps[:, :m], chi[:, :, :m], slow,
                                     sigma, k + 1)
            # Kato-Temple: lambda_j >= w_j - |r_j|^2 / (w_j+1 - |r_j+1| - w_j)
            gap = w[1:] - lifted[1:] - w[:-1]
            bracket = np.divide(lifted[:-1]**2, gap, out=np.full(k, np.inf),
                                where=gap > 0)
            if m == dim_fast:
                break
            # guard: without non-adiabatic coupling no state built on a
            # discarded fast level lies below the lowest discarded block
            # level, which a mirrored block knows to within the mirror gap
            scale = max(1.0, float(np.max(np.abs(w[:k]))))
            if w[k] < np.min(eps[:, m]) - mirror_gap and np.all(
                    bracket <= _LEVEL_RTOL * np.maximum(1.0, np.abs(w[:k]))) \
                    and np.all(lifted[:k] <= _RESIDUAL_RTOL * scale):
                break
        # a doubled m above half the fast axis becomes the whole axis, which
        # is exact and ends the ladder one solve sooner
        m = dim_fast if 4 * m > dim_fast else 2 * m
        eps, chi = sweep(m + 1)
    meta.update(sigma=sigma, shift_gap=float(w[0] - sigma),
                spec=spec.describe(), dim=int(dim), m=int(m),
                contracted_dim=int(n_slow * m),
                bracket=[float(b) for b in bracket],
                lifted_residuals=[float(v) for v in lifted[:k]])
    return SpectrumResult(eigenvalues=w[:k], k=k, residual_norms=lifted[:k],
                          units=units, meta=meta)


def lowest_eigenvalues(spec: HamiltonianSpec, k: int) -> SpectrumResult:
    """k lowest eigenpairs of the discretized operator.

    Extended1D/FastAtX: shift-invert Lanczos on a banded Cholesky from the
    certified Weyl shift, with a Cholesky certificate for the ground level
    (see _solve_banded), FastAtX on a grid checked to hold its levels;
    meta records sigma and shift_gap = lambda_0 - sigma. Compact1D: dense
    Hermitian eigh of the k lowest levels.
    Residual norms ||Hv - Ev|| (unit-norm v) ride along in the result.

    2D: contracted adiabatic basis (see the module docstring). The levels
    are the Rayleigh quotients of the lifted Ritz vectors (in exact
    arithmetic the Ritz values, upper bounds on the grid levels) and
    residual_norms their grid residuals, as for the other variants.
    meta['bracket'][j] = ||r_j||^2 / (E_j+1 - ||r_j+1|| - E_j) is the
    Kato-Temple width: the grid level lies in [E_j - bracket_j, E_j]
    provided no grid level between E_j and E_j+1 is missing from the
    contracted space. That is assumed, not checked; the stop only refuses a
    rung whose next Ritz value E_k is not below every discarded fast block
    level, so a level built on a discarded fast state can hide there only
    through non-adiabatic coupling. meta also records m, contracted_dim =
    n_slow*m, lifted_residuals (= residual_norms), the grid dimension dim,
    the Weyl shift sigma and shift_gap = lambda_0 - sigma.
    """
    if spec.variant == "Extended1D":
        v, h = _extended1d_arrays(spec)
        w, _, res, sigma = _solve_banded(v, h, spec.c_kin, k)
        return _banded_result(spec, w, res, sigma, "E_C units", h=h,
                              n=int(v.size))
    if spec.variant == "Compact1D":
        return _lowest_compact1d(spec, k)
    if spec.variant == "FastAtX":
        frozen = partial(_frozen_fast, *_frozen_fast_params(spec),
                         spec.grid.get("half_width"), spec.grid.get("n"))
        w, _, res, sigma, y = _lowest_fast(frozen, spec.frozen_x, k)
        return _banded_result(spec, w, res, sigma, "hbar*omega_C units",
                              h=float(y[1] - y[0]), n=int(y.size),
                              half_width=float(y[-1]))
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
    verdict: str  # "decreasing" | "converges-nonzero" | "inconclusive"

    @property
    def vanishing(self) -> bool:
        """sup|delta| below 1e-8: above the fast solver's noise floor (~1e-10
        on e0), far below any physical delta_e0 scale."""
        return float(np.max(self.sup_abs)) < 1e-8

    def quadratic_fit(self) -> np.ndarray:
        """Least-squares curvature a per kappa for U ~ a*x^2."""
        x2 = self.xs**2
        denom = float(np.sum(x2**2))
        if denom == 0.0:
            raise ValidationError("x grid cannot be all zeros")
        return np.array([float(np.sum(u * x2)) / denom for u in self.U])

    def to_sweep_table(self) -> SweepTable:
        rows = [(float(kap), float(x), float(d), float(u))
                for kap, drow, urow in zip(self.kappas, self.delta, self.U)
                for x, d, u in zip(self.xs, drow, urow)]
        return SweepTable(
            columns=["kappa", "x", "delta_e0", "U_estimate"],
            rows=rows,
            units=("delta_e0 in hbar*omega_C units; "
                   "U_estimate = delta_e0/kappa^2"),
            meta={"verdict": self.verdict,
                  "sup_abs": [float(s) for s in self.sup_abs]})


def _bo_delta(kappa: float, xi: float, lambdaJ: float, p: PotentialModel, xs,
              half_width=None, n=None) -> np.ndarray:
    """e0(x) - e0(0) at every x of xs on one kappa rung, the one
    Born-Oppenheimer routine of bo-sweep and compare: one _ground_along
    chain over the sorted distinct x with 0, from x = 0, so an x = 0 in xs
    reuses the reference level."""
    chain = np.unique(np.append(xs, 0.0))
    start = int(np.searchsorted(chain, 0.0))
    e0 = _ground_along(kappa, xi, lambdaJ, p, chain, start, half_width, n)
    return e0[np.searchsorted(chain, xs)] - e0[start]


def bo_effective_potential(kappas, xs, p: PotentialModel, xi: float,
                           lambdaJ: float, half_width: float | None = None,
                           n: int | None = None, map_fn=None) -> BOTable:
    """Fast-ground-energy differences over a decreasing kappa ladder.

    Each kappa rung is one continuation chain (_bo_delta, _ground_along),
    the routine compare's bo_extended column runs too: a cold solve at
    x = 0, then each x continued from its neighbour, a point that does not
    continue or fails its certificate or edge check falling back to the
    cold bo_fast_ground solve.
    verdict: "decreasing" when delta vanishes (BOTable.vanishing);
    otherwise "converges-nonzero" when the curvature fits agree within 10%
    from rung to rung and the last exceeds 1e-9; otherwise "decreasing"
    when sup_x |e0(x)-e0(0)| strictly decreases along the ladder, else
    "inconclusive" (data still returned).
    map_fn, when given, replaces the built-in map over the kappa rungs (an
    order-preserving pool map parallelizes the sweep; a rung's levels do
    not depend on where it runs, so the output does not either).
    """
    kappas = np.asarray(kappas, dtype=float)
    xs = np.asarray(xs, dtype=float)
    if kappas.size < 3:
        raise ValidationError("kappa ladder needs >= 3 entries")
    if not np.all(np.diff(kappas) < 0):
        raise ValidationError("kappa ladder must be strictly decreasing")
    if float(np.sum((xs**2)**2)) == 0.0:    # quadratic_fit's denominator
        raise ValidationError("x grid cannot be all zeros")
    rung = partial(_bo_delta, xi=xi, lambdaJ=lambdaJ, p=p, xs=xs,
                   half_width=half_width, n=n)
    delta = np.array(list((map_fn or map)(rung, kappas.tolist())))
    sup = np.max(np.abs(delta), axis=1)
    table = BOTable(kappas=kappas, xs=xs, delta=delta, sup_abs=sup,
                    U=delta / kappas[:, None]**2, verdict="decreasing")
    if not table.vanishing:
        fits = table.quadratic_fit()
        if abs(fits[-1]) > 1e-9 and all(
                abs(b - a) <= 0.1 * max(abs(a), abs(b))
                for a, b in zip(fits, fits[1:])):
            table.verdict = "converges-nonzero"
        elif not np.all(np.diff(sup) < 0):
            table.verdict = "inconclusive"
    return table


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
    The slow operator is solved on a box axis of n nodes (_box_axis), so
    n < 128 and k > n/4 are refused like every 1D grid.
    """
    if not (kappa > 0 and xi > 0):
        raise ValidationError("kappa and xi must be > 0")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if abs(ng % 1.0 - 0.5) <= kappa**2:
        raise PhysicalRegimeError("degenerate fast ground state",
                                  ng=float(ng), window=float(kappa**2))
    ckin = 0.5 * kappa**4 if charge_half_factor else kappa**4
    # levels of ckin*n^2 + (kappa^4 xi^2/2) q^2: 2*sqrt(ckin*kappa^4*xi^2/2)
    formula = 2.0 * math.sqrt(0.5 * ckin * kappa**4 * xi**2) * (
        np.arange(k) + 0.5)
    sigma_q = (1.0 / (2.0 * xi**2))**0.25
    q, h = _box_axis(max(12.0 * sigma_q * math.sqrt(k + 1.0), 1.0), int(n))
    w = _solve_banded(0.5 * kappa**4 * xi**2 * q**2, h, ckin, k)[0]
    return NaiveAdiabaticSpectrum(formula=formula, numerical=w,
                                  kappa=float(kappa), xi=float(xi),
                                  ng=float(ng))


# ---------------------------------------------------------------------------
# kappa sweeps and convention contrasts


def _default_2d_grids(basis: str, kappa: float, xi: float,
                      lam: float) -> dict:
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
    if not np.all(kappas > 0):
        raise ValidationError("kappas must be > 0")
    if not (xi > 0 and lambdaJ >= 0):
        raise ValidationError("xi must be > 0 and lambdaJ >= 0")
    rows = []
    for kap in kappas:
        for basis in bases:
            grid = _default_2d_grids(basis, float(kap), xi, lambdaJ)
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
            ec = ev * (xi / kap**2 if basis == "extended" else 1.0 / kap**4)
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
    for L in map(_half_width, half_widths):
        q, h = _box_axis(L, max(256, int(n_per_length * 2.0 * L)))
        w = _solve_banded(np.zeros_like(q), h, c_kin, k)[0]
        out.append(float(np.mean(np.diff(w))))
    return np.asarray(out)
