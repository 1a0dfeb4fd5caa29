"""Consistency-equation solving and effective-potential construction.

The node constraint after removing the parasitic branch is a Kepler-type
transcendental equation in the junction phase phi_c,

    phi = phi_c + beta * u'(phi_c),

single-valued for beta below 1/max(-u''). On that branch the reduced
potential is, in charging-energy units,

    V = lambda_J * ( u(phi_c) + (beta/2) * u'(phi_c)^2 ),
    V'  = lambda_J * u'(phi_c) * s,
    V'' = lambda_J * u''(phi_c) / (1 + beta*u''(phi_c)) * s^2,

with s the coordinate scale of the chosen basis: the compact coordinate is
phi itself (s=1) while the extended coordinate is x = sqrt(xi)*phi, whose
consistency equation x = eta1 + (lambda_J/xi^(3/2)) u'(eta1/sqrt(xi)) is
solved in its own variable. The two parameterizations must land on the same
curve; crosscheck_bases measures how well they do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, PhysicalRegimeError,
                     UnresolvedClusterError, ValidationError)
from .params import ReducedCircuit
from .potentials import PotentialModel
from .sweeps import float_rows, write_csv

TWO_PI = 2.0 * math.pi

# Contract-level solve parameters.
GRID_MIN = 4096           # sign-change scan density
RESIDUAL_TOL = 1e-13      # bisection stop; contract is 1e-12
ZERO_TOL = 1e-12          # a sample with |f| below this counts as a root
_REFINE_FACTOR = 128      # subdivision of a suspicious cell
_MAX_DEPTH = 4            # refinement levels below the top grid
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section shrink per step


@dataclass(frozen=True)
class BranchSolution:
    """All roots of the consistency equation at one drive value."""

    drive_phi: float
    roots: tuple[float, ...]   # representative closest to the drive first
    invertible: bool
    jacobian_min: float        # min over the window of 1 + beta*u''


@dataclass
class EffectivePotential:
    """Reduced potential sampled on a grid, charging-energy units."""

    basis: str                     # "ExtendedX" | "CompactPhi"
    coordinates: np.ndarray
    V: np.ndarray
    Vp: np.ndarray
    Vpp: np.ndarray
    phi_c: np.ndarray              # branch phase per sample
    minima: list[tuple[float, float]]  # (location, curvature)
    branch_count: np.ndarray
    beta: float = 0.0
    lambdaJ: float = 0.0
    xi: float = 1.0
    meta: dict = field(default_factory=dict)

    def to_csv(self, path: str) -> None:
        write_potential_csv(path, self.basis, float_rows(
            self.coordinates, self.V, self.Vp, self.Vpp, self.branch_count))


def write_potential_csv(path, basis, rows, note: str = "") -> None:
    """Fixed schema: rows of (coordinate, V, Vp, Vpp, branch_count), V
    columns in E_C units; note is appended to the units line."""
    name = "x" if basis == "ExtendedX" else "phi"
    write_csv(path, ("coordinate", "V", "Vp", "Vpp", "branch_count"), rows,
              f"coordinate={name} (dimensionless), V,Vp,Vpp in E_C units"
              + note)


# ---------------------------------------------------------------------------
# root finding


def _bisect_scalar(fun, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Bisection on a bracket; stops on residual, guaranteed by sign change.

    flo = fun(lo) and fhi = fun(hi) have opposite signs and neither is zero:
    every bracket _scan hands over has |f| >= ZERO_TOL at both ends.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if abs(fm) < RESIDUAL_TOL or (hi - lo) < 1e-16 * max(1.0, abs(mid)):
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    raise ConvergenceError("bisection stalled", detail=(lo, hi))


def _bisect_lanes(fun, lo: np.ndarray, hi: np.ndarray,
                  flo: np.ndarray) -> np.ndarray:
    """_bisect_scalar on many brackets at once, with its stop rule per lane.

    fun maps an array of points to f; f(lo) and f(hi) have opposite signs
    and neither is zero. Each step evaluates fun once, on the midpoints of
    the lanes still open, so every lane ends where _bisect_scalar would.
    """
    out = np.empty_like(lo)
    lane = np.arange(lo.size)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        done = (np.abs(fm) < RESIDUAL_TOL) \
            | ((hi - lo) < 1e-16 * np.maximum(1.0, np.abs(mid)))
        out[lane[done]] = mid[done]
        keep = ~done
        if not np.any(keep):
            return out
        up = (flo < 0.0) == (fm < 0.0)
        lo = np.where(up, mid, lo)[keep]
        flo = np.where(up, fm, flo)[keep]
        hi = np.where(up, hi, mid)[keep]
        lane = lane[keep]
    raise ConvergenceError("bisection stalled",
                           detail=(float(lo[0]), float(hi[0])))


def solve_consistency(p: PotentialModel, beta: float, phi: float,
                      window: tuple[float, float]) -> BranchSolution:
    """All real roots of phi = phi_c + beta*u'(phi_c) inside the window.

    Sign-change bracketing on a grid of >= 4096 points, bisection to residual
    below 1e-12. Cells that could hide an unresolved root pair (|f| dipping
    under the local Lipschitz reach without a sign change) are subdivided
    128-fold, up to four levels deep; a cell still ambiguous at the deepest
    level raises UnresolvedClusterError. A run of samples with |f| < 1e-12
    is one candidate: one root when f changes sign across it, and
    UnresolvedClusterError (a tangent double root) when it does not.
    """
    if beta < 0:
        raise ValidationError("beta must be >= 0")
    a, b = float(window[0]), float(window[1])
    if not (b > a):
        raise ValidationError("window must have positive length")
    if p.is_periodic and (b - a) < p.period - 1e-12:
        raise ValidationError(
            f"window length {b - a} below one period {p.period} of a periodic kind")

    grid = np.linspace(a, b, GRID_MIN + 1)
    jac = 1.0 + beta * np.asarray(p.d2u(grid), dtype=float)
    jacobian_min = float(np.min(jac))

    du = p._scalar(1)

    def F(c: np.ndarray) -> np.ndarray:
        return c + beta * np.asarray(p.du(c), dtype=float) - phi

    def f(c: float) -> float:
        return c + beta * du(c) - phi

    lip = np.maximum(np.abs(jac[:-1]), np.abs(jac[1:])) + 1.0
    roots = _scan(F, f, grid[None, :], lip, 0)
    ordered = _order_roots(roots, phi, p.period if p.is_periodic else None)
    invertible = jacobian_min > 0.0
    return BranchSolution(drive_phi=float(phi), roots=tuple(ordered),
                          invertible=invertible, jacobian_min=jacobian_min)


def _scan(F, f, X: np.ndarray, lip, depth: int) -> list[float]:
    """Roots of f on the rows of sample points X, refining suspicious cells.

    F evaluates f on an array, f on one point (for bisection). X holds one
    row, the top grid, at depth 0, and below it the refinements of one
    row's suspicious cells, evaluated together. lip is the Lipschitz reach
    per cell. The top grid refines every suspicious cell; a refined row
    stops as soon as it finds a root, and one left with only suspicious
    cells at depth _MAX_DEPTH raises UnresolvedClusterError. The rows are
    searched in order, depth first, so the first error met is the one a
    row-by-row search would meet.
    """
    FX = F(X)
    flo, fhi = FX[:, :-1], FX[:, 1:]
    # The residual contract (|f| < 1e-12) accepts a near-zero sample as a
    # root outright, but a tangency leaves a band of them (about 2e-6 wide
    # for u = -cos at beta = 2): each run of near-zero samples is one
    # candidate, and the cells that touch it are the run's.
    near = np.abs(FX) < ZERO_TOL
    clear = ~near[:, :-1] & ~near[:, 1:]
    change = clear & (flo * fhi < 0.0)
    # Same-sign cell: a root pair can hide only if |f| dips below the
    # cell's Lipschitz reach.
    lip = np.broadcast_to(lip, flo.shape)
    suspicious = clear & ~change & (np.minimum(np.abs(flo), np.abs(fhi))
                                    < (X[:, 1:2] - X[:, :1]) * lip)
    busy = near.any(axis=1) | change.any(axis=1)
    roots: list[float] = []
    for r in np.flatnonzero(busy | suspicious.any(axis=1)):
        x, fx = X[r], FX[r]
        if busy[r]:
            edges = np.diff(near[r].astype(np.int8), prepend=0, append=0)
            roots += [_run_root(f, x, fx, a, b) for a, b in
                      zip(np.flatnonzero(edges == 1),
                          np.flatnonzero(edges == -1) - 1)]
            roots += [_bisect_scalar(f, float(x[i]), float(x[i + 1]),
                                     float(fx[i]), float(fx[i + 1]))
                      for i in np.flatnonzero(change[r])]
            if depth:
                continue
        cells = np.flatnonzero(suspicious[r])
        if not cells.size:
            continue
        if depth == _MAX_DEPTH:
            raise UnresolvedClusterError(
                "unresolved cluster: |residual| stays at "
                f"{float(np.min(np.abs(fx)))!r} without a sign change",
                bracket=(float(x[0]), float(x[-1])))
        # np.linspace(lo, hi, _REFINE_FACTOR + 1) per cell, bit for bit
        lo, hi = x[cells, None], x[cells + 1, None]
        sub = np.arange(_REFINE_FACTOR + 1.0) * ((hi - lo) / _REFINE_FACTOR)
        sub += lo
        sub[:, -1] = hi[:, 0]
        roots += _scan(F, f, sub, lip[r, cells, None], depth + 1)
    return roots


def _run_root(f, x: np.ndarray, fx: np.ndarray, a: int, b: int) -> float:
    """The one root of the run x[a..b] of near-zero samples of f.

    Inside the samples, f must change sign between the run's neighbours:
    a run of one is its own sample, a longer run is bisected between the
    neighbours. Without a sign change the run is a tangent double root (or
    a pair too close to split), refused as UnresolvedClusterError. A run at
    the window's edge has no neighbour on that side; its sample of least
    |f| is the root.
    """
    if a == 0 or b == x.size - 1:
        return float(x[a + int(np.argmin(np.abs(fx[a:b + 1])))])
    if (fx[a - 1] < 0.0) == (fx[b + 1] < 0.0):
        raise UnresolvedClusterError(
            f"tangent root: |residual| < {ZERO_TOL!r} on "
            f"[{float(x[a])!r}, {float(x[b])!r}] without a sign change "
            "across it", bracket=(float(x[a]), float(x[b])))
    if a == b:
        return float(x[a])
    return _bisect_scalar(f, float(x[a - 1]), float(x[b + 1]),
                          float(fx[a - 1]), float(fx[b + 1]))


def _order_roots(roots: list[float], drive: float,
                 period: float | None) -> list[float]:
    """Ascending order, except the representative closest to the drive leads."""
    if len(roots) < 2:
        return roots

    def dist(r: float) -> float:
        if period is None:
            return abs(r - drive)
        d = (r - drive) % period
        return min(d, period - d)

    closest = min(roots, key=dist)
    rest = sorted(r for r in roots if r != closest)
    return [closest] + rest


def _scan_window(p: PotentialModel, half_width: float) -> tuple[float, float]:
    """Where u is scanned: one period, a tabulated potential's support, or
    else (-half_width, half_width)."""
    if p.is_periodic:
        return 0.0, p.period
    return getattr(p, "support", (-half_width, half_width))


def invertibility_threshold(p: PotentialModel,
                            window: tuple[float, float] | None = None) -> float:
    """sup{beta : 1 + beta*u''(phi_c) > 0 for all phi_c} = 1/max(-u'').

    Grid scan, then a golden-section search for the maximizer between the
    grid points two either side of the scan's best, narrowed to 1e-9; the
    larger of the two peaks is kept, so the refinement can only lower the
    threshold. The scan also takes a tabulated potential's knots in the
    window: its spline's u'' is piecewise linear, so the knots hold its
    exact maximum. Infinite when u'' is nonnegative everywhere on the
    window. The default window is one period, a tabulated potential's
    support, or else (-8pi, 8pi).
    """
    if window is None:
        window = _scan_window(p, 4.0 * TWO_PI)
    a, b = float(window[0]), float(window[1])
    knots = np.asarray(getattr(p, "knots", ()), dtype=float)
    grid = np.union1d(np.linspace(a, b, GRID_MIN + 1),
                      knots[(knots >= a) & (knots <= b)])
    neg_d2 = -np.asarray(p.d2u(grid), dtype=float)
    if not np.all(np.isfinite(neg_d2)):
        raise ValidationError("u'' must be bounded on the window")
    i = int(np.argmax(neg_d2))
    peak = float(neg_d2[i])
    lo = float(grid[max(i - 2, 0)])
    hi = float(grid[min(i + 2, len(grid) - 1)])
    # golden section on u'': the better inner point is always kept, so the
    # final pair holds the least u'' seen; a fixed count ends the loop
    d2u = p._scalar(2)
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = d2u(c), d2u(d)
    for _ in range(math.ceil(math.log(1e-9 / max(hi - lo, 1e-9), _INVPHI))):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = d2u(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = d2u(d)
    peak = max(peak, -min(fc, fd))
    if peak <= 0.0:
        return math.inf
    return 1.0 / peak


# ---------------------------------------------------------------------------
# vectorized single-branch solves (subcritical regime)


def _solve_branch(du, coef: float, du_reach: float,
                  drives: np.ndarray) -> np.ndarray:
    """Roots of the strictly increasing c + coef*du(c) - drive for many drives.

    du is the force u' in the solve variable. The initial bracket
    drive -/+ (coef*du_reach + 1) is widened by doubling until it straddles
    the root, then bisection takes over for at most 110 steps. A lane stops
    once its midpoint equals an end of its bracket: from then on the
    bracket can only collapse onto that midpoint, which is the root the
    remaining steps would return. Lanes at or near a root of 0.0 never
    reach that float fixed point and take all 110 steps.
    """
    drives = np.asarray(drives, dtype=float)

    def residual(c, at=drives):
        return c + coef * np.asarray(du(c), dtype=float) - at

    w = np.full_like(drives, max(coef * du_reach + 1.0, 1.0))
    lo = drives - w
    hi = drives + w
    for _ in range(80):
        bad_lo = residual(lo) > 0.0
        bad_hi = residual(hi) < 0.0
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        w = np.where(bad_lo | bad_hi, 2.0 * w, w)
        lo = np.where(bad_lo, drives - w, lo)
        hi = np.where(bad_hi, drives + w, hi)
    else:
        raise ConvergenceError("bracket expansion failed for a monotone branch")
    root = np.empty_like(drives)
    lane, at = np.arange(drives.size), drives
    for step in range(110):
        mid = 0.5 * (lo + hi)
        # test for stalled lanes every fourth step from step 40 on, where
        # typical lanes begin to stall; testing every step costs small calls
        if step >= 40 and step % 4 == 0:
            stall = (mid == lo) | (mid == hi)
            if stall.any():
                root[lane[stall]] = mid[stall]
                keep = ~stall
                lane, at = lane[keep], at[keep]
                lo, hi, mid = lo[keep], hi[keep], mid[keep]
                if not lane.size:
                    break
        neg = residual(mid, at) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    root[lane] = 0.5 * (lo + hi)
    res = float(np.max(np.abs(residual(root))))
    if res > 1e-12:
        raise ConvergenceError("branch solve residual above 1e-12", detail=res)
    return root


def solve_branch_compact(p: PotentialModel, beta: float,
                         drives: np.ndarray) -> np.ndarray:
    """Single-valued phi_c(phi) for an array of drives (requires beta < beta_crit)."""
    return _solve_branch(p.du, beta, _du_reach(p), drives)


def solve_branch_extended(p: PotentialModel, rc: ReducedCircuit,
                          drives: np.ndarray) -> np.ndarray:
    """Single-valued eta1(x): x = eta1 + (lambda_J/xi^(3/2)) u'(eta1/sqrt(xi))."""
    sqxi = math.sqrt(rc.xi)
    return _solve_branch(lambda c: p.du(c / sqxi), rc.lambdaJ / rc.xi**1.5,
                         _du_reach(p), drives)


def _du_reach(p: PotentialModel) -> float:
    """Cheap bound estimate of |u'| near the working region."""
    grid = np.linspace(*_scan_window(p, 8.0 * TWO_PI), 512)
    try:
        vals = np.abs(np.asarray(p.du(grid), dtype=float))
    except ValidationError:
        return 1.0
    return float(np.max(vals)) if np.all(np.isfinite(vals)) else 1.0


# ---------------------------------------------------------------------------
# effective potentials


def _coordinates(rc: ReducedCircuit, basis: str,
                 grid) -> tuple[np.ndarray, float]:
    """(grid, s) of a basis: s = d(phi)/d(coordinate) is the module's scale."""
    if basis not in ("ExtendedX", "CompactPhi"):
        raise ValidationError(f"unknown basis {basis!r}")
    scale = 1.0 if basis == "CompactPhi" else 1.0 / math.sqrt(rc.xi)
    if isinstance(grid, (int, np.integer)):
        n = int(grid)
        if n < 16:
            raise ValidationError("grid point count must be >= 16")
        span = TWO_PI if basis == "CompactPhi" else math.sqrt(rc.xi) * TWO_PI
        return np.linspace(0.0, span, n, endpoint=False), scale
    arr = np.asarray(grid, dtype=float)
    if arr.ndim != 1 or arr.size < 2 or not np.all(np.diff(arr) > 0):
        raise ValidationError("grid must be a strictly increasing 1D array")
    return arr, scale


def effective_potential(p: PotentialModel, rc: ReducedCircuit, basis: str,
                        grid=1024) -> EffectivePotential:
    """Single-branch reduced potential on a coordinate grid, E_C units.

    basis "CompactPhi": coordinate is the periodic phase phi (default grid
    [0, 2pi)). basis "ExtendedX": coordinate is x = sqrt(xi)*phi solved
    through the extended consistency equation. Refuses at or beyond the
    invertibility threshold, where the branch is multivalued. The values
    come from _reduced_branch; the minima cost a nested bisection (one
    branch solve per step over the sign-change cells of V'), so a caller
    that needs only V, V' and V'' calls _reduced_branch instead.
    """
    coords, scale = _coordinates(rc, basis, grid)
    beta_crit, phi_c, V, Vp, Vpp = _reduced_branch(p, rc, basis, coords)
    minima = _locate_minima(p, rc, basis, coords, Vp, Vpp, scale)
    return EffectivePotential(
        basis=basis, coordinates=coords, V=V, Vp=Vp, Vpp=Vpp, phi_c=phi_c,
        minima=minima, branch_count=np.ones(coords.size, dtype=int),
        beta=rc.beta, lambdaJ=rc.lambdaJ, xi=rc.xi,
        meta={"beta_crit": beta_crit})


def _reduced_branch(p: PotentialModel, rc: ReducedCircuit, basis: str,
                    coords) -> tuple:
    """(beta_crit, phi_c, V, V', V'') of the single-valued branch at the
    coordinates coords (a strictly increasing 1D array) of a basis, E_C
    units, as effective_potential samples them but without its minima.
    Refuses at or beyond the invertibility threshold beta_crit."""
    coords, scale = _coordinates(rc, basis, coords)
    beta_crit = invertibility_threshold(p)
    if rc.beta >= beta_crit:
        raise PhysicalRegimeError(
            f"multivalued regime: beta={rc.beta!r} >= beta_crit={beta_crit!r}",
            beta_crit=beta_crit)
    phi_c = _branch_phase(p, rc, basis, coords)
    return (beta_crit, phi_c, *_reduced_values(p, rc, phi_c, scale))


def _branch_phase(p: PotentialModel, rc: ReducedCircuit, basis: str,
                  coords: np.ndarray) -> np.ndarray:
    """Junction phase phi_c on the single-valued branch at each coordinate."""
    if basis == "CompactPhi":
        return solve_branch_compact(p, rc.beta, coords)
    return solve_branch_extended(p, rc, coords) / math.sqrt(rc.xi)


def _reduced_values(p: PotentialModel, rc: ReducedCircuit, phi_c: np.ndarray,
                    scale: float):
    """(V, V', V'') at branch phases phi_c, coordinate scale s (module
    docstring); V'' is +inf where 1 + beta*u'' = 0."""
    u0 = np.asarray(p.u(phi_c), dtype=float)
    u1 = np.asarray(p.du(phi_c), dtype=float)
    u2 = np.asarray(p.d2u(phi_c), dtype=float)
    V = rc.lambdaJ * (u0 + 0.5 * rc.beta * u1**2)
    Vp = rc.lambdaJ * u1 * scale
    den = 1.0 + rc.beta * u2
    Vpp = np.divide(rc.lambdaJ * u2, den, out=np.full_like(den, np.inf),
                    where=den != 0.0) * scale**2
    return V, Vp, Vpp


def _locate_minima(p, rc, basis, coords, Vp, Vpp, scale):
    """Minima via sign changes (or exact zeros) of V' along the grid.

    The sign-change cells are bisected together: each step makes one
    branch solve over the midpoints of the cells still open.
    """

    def slope(c: np.ndarray) -> np.ndarray:  # V' from u' alone
        pc = _branch_phase(p, rc, basis, c)
        return rc.lambdaJ * np.asarray(p.du(pc), dtype=float) * scale

    found = {int(i): (float(coords[i]), float(Vpp[i]))
             for i in np.flatnonzero((Vp == 0.0) & (Vpp > 0.0))}
    cells = np.flatnonzero((Vp[:-1] < 0.0) & (0.0 < Vp[1:]))
    if cells.size:
        locs = _bisect_lanes(slope, coords[cells], coords[cells + 1],
                             Vp[cells])
        pc = _branch_phase(p, rc, basis, locs)
        curv = _reduced_values(p, rc, pc, scale)[2]
        found.update(zip(cells.tolist(), zip(locs.tolist(), curv.tolist())))
    return [found[i] for i in sorted(found)]


def crosscheck_bases(p: PotentialModel, rc: ReducedCircuit,
                     n: int = 1024) -> float:
    """Max |V_compact(phi) - V_extended(x=sqrt(xi)*phi)| over one period, E_C units.

    The two bases parameterize the same curve through different consistency
    equations; this is the numerical identity check between them.
    """
    phis = np.linspace(0.0, TWO_PI, n, endpoint=False)
    compact = _reduced_branch(p, rc, "CompactPhi", phis)[2]
    extended = _reduced_branch(p, rc, "ExtendedX", math.sqrt(rc.xi) * phis)[2]
    return float(np.max(np.abs(compact - extended)))


def branch_table(p: PotentialModel, rc: ReducedCircuit, basis: str,
                 grid=1024):
    """Per-drive enumeration of all branches (works in any regime).

    Returns (coordinates, rows) where each row is
    (coordinate, V, Vp, Vpp, branch_count) evaluated per root; multivalued
    drives contribute several rows. Exported raw: no branch is selected.
    """
    coords, scale = _coordinates(rc, basis, grid)
    window = (0.0, TWO_PI) if p.is_periodic else (float(coords[0]) - 1.0,
                                                  float(coords[-1]) + 1.0)
    at, counts, roots = [], [], []
    for c in coords:
        sol = solve_consistency(p, rc.beta, float(c) * scale, window)
        at += [float(c)] * len(sol.roots)
        counts += [len(sol.roots)] * len(sol.roots)
        roots += sol.roots
    V, Vp, Vpp = _reduced_values(p, rc, np.array(roots, dtype=float), scale)
    return coords, list(zip(at, V.tolist(), Vp.tolist(), Vpp.tolist(), counts))
