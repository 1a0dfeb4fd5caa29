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

Where u'(phi_c) = 0 the consistency equation gives phi = phi_c: the
reduction moves no stationary point of u. So V' vanishes exactly at the
stationary points phi* of u, at the coordinate phi*/s, and the minima of V
are those of u (1 + beta*u'' > 0 on the branch), found without a branch
solve.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, PhysicalRegimeError,
                     UnresolvedClusterError, ValidationError)
from .params import ReducedCircuit
from .potentials import PolynomialEven, PotentialModel
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


def _bisect_lanes(fun, lo: np.ndarray, hi: np.ndarray,
                  flo: np.ndarray, residual: bool = True) -> np.ndarray:
    """Bisection on many brackets at once.

    fun(points, lanes) gives f at the midpoints of the open lanes (lanes:
    their indices into lo); f(lo) and f(hi) have opposite signs, neither
    zero. A lane ends at a bracket below 1e-16 relative (absolute below
    1) or one that no longer halves (its midpoint rounds to an end), at a
    midpoint with f = 0, or, when residual, at one with |f| < 1e-13. The
    residual stop suits a root where f is steep; where f is flat (a
    degenerate minimum, f' = 0 at the root) it ends far from the root, and
    only the bracket stops locate it."""
    out = np.empty_like(lo)
    lane = np.arange(lo.size)
    ftol = RESIDUAL_TOL if residual else 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fun(mid, lane)
        done = (np.abs(fm) < ftol) | (fm == 0.0) | (mid == lo) \
            | (mid == hi) | ((hi - lo) < 1e-16 * np.maximum(1.0, np.abs(mid)))
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
    UnresolvedClusterError (a tangent double root) when it does not. The
    one-drive case of branch_table's search, without its periodic images.
    """
    (roots,), jacobian_min = _consistency_roots(p, beta, [phi], window)
    return BranchSolution(drive_phi=float(phi), roots=tuple(roots),
                          invertible=jacobian_min > 0.0,
                          jacobian_min=jacobian_min)


def _consistency_roots(p: PotentialModel, beta: float, drives,
                       window: tuple[float, float], wrap: bool = False):
    """(roots per drive, ordered as BranchSolution.roots; jacobian_min).

    The window is sampled once for all drives: grid, Jacobian, Lipschitz
    reach and g = grid + beta*u'(grid). Each drive's top row g - phi is
    scanned in turn; then one _bisect_lanes call bisects every drive's
    brackets, each lane against its own drive.

    wrap (a periodic u on a window one period P long) seeks the roots on
    the whole line: c solves drive phi exactly when c - k*P solves
    phi - k*P. After the drives themselves, each shifted drive phi - k*P
    (k != 0) that g can meet on the window (its sampled range widened by
    the cells' reach; no other gives a root) is scanned, and its roots are
    shifted back by k*P. A root on the edge the window shares with the
    scan one period nearer k = 0 is that scan's, and is dropped.
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
    lip = np.maximum(np.abs(jac[:-1]), np.abs(jac[1:])) + 1.0
    g = grid + beta * np.asarray(p.du(grid), dtype=float)
    drives = np.asarray(drives, dtype=float).tolist()
    scans = [(i, 0, phi) for i, phi in enumerate(drives)]  # (drive, k, at)
    if wrap:
        reach = float(np.max(lip)) * (grid[1] - grid[0])
        g_lo, g_hi = float(np.min(g)) - reach, float(np.max(g)) + reach
        for i, phi in enumerate(drives):
            scans += [(i, k, phi - k * p.period) for k in range(
                math.floor((phi - g_hi) / p.period),
                math.ceil((phi - g_lo) / p.period) + 1)
                if k and g_lo <= phi - k * p.period <= g_hi]

    def residual(c: np.ndarray, at) -> np.ndarray:
        return c + beta * np.asarray(p.du(c), dtype=float) - at

    rows = [_scan(lambda c, at=at: residual(c, at), grid[None, :],
                  (g - at)[None, :], lip, 0) for _, _, at in scans]
    lanes = [(j, item) for j, row in enumerate(rows) for item in row
             if isinstance(item, tuple)]
    if lanes:
        at = np.array([scans[j][2] for j, _ in lanes])
        lo, hi, flo = np.array([item for _, item in lanes]).T
        mids = iter(_bisect_lanes(lambda c, lane: residual(c, at[lane]),
                                  lo, hi, flo).tolist())
        rows = [[next(mids) if isinstance(item, tuple) else item
                 for item in row] for row in rows]
    roots = [[] for _ in drives]
    for (i, k, _), row in zip(scans, rows):
        shared = a if k > 0 else b
        roots[i] += row if not k else [r + k * p.period for r in row
                                       if r != shared]
    return [_order_roots(row, phi, p.period) for row, phi in
            zip(roots, drives)], float(np.min(jac))


def _scan(F, X: np.ndarray, FX: np.ndarray, lip, depth: int) -> list:
    """Roots of f on the rows of sample points X, refining suspicious cells.

    FX = F(X) holds f on X; F evaluates f on an array of refinements. X
    holds one row, the top grid, at depth 0, and below it the refinements
    of one row's suspicious cells, evaluated together. lip is the Lipschitz
    reach per cell. The top grid refines every suspicious cell; a refined
    row stops as soon as it finds a root, and one left with only suspicious
    cells at depth _MAX_DEPTH raises UnresolvedClusterError. The rows are
    searched in order, depth first, so the first error met is the one a
    row-by-row search would meet. Roots come in the order found: a sample
    as a float, else its bracket (lo, hi, f(lo)) for the caller to bisect.
    """
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
    roots: list = []
    for r in np.flatnonzero(busy | suspicious.any(axis=1)):
        x, fx = X[r], FX[r]
        if busy[r]:
            edges = np.diff(near[r].astype(np.int8), prepend=0, append=0)
            roots += [_run_root(x, fx, a, b) for a, b in
                      zip(np.flatnonzero(edges == 1),
                          np.flatnonzero(edges == -1) - 1)]
            roots += [(float(x[i]), float(x[i + 1]), float(fx[i]))
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
        roots += _scan(F, sub, F(sub), lip[r, cells, None], depth + 1)
    return roots


def _run_root(x: np.ndarray, fx: np.ndarray, a: int, b: int):
    """The one root of the run x[a..b] of near-zero samples of f.

    Inside the samples, f must change sign between the run's neighbours:
    a run of one is its own sample, a longer run's root lies in the bracket
    (x[a - 1], x[b + 1], f(x[a - 1])) between the neighbours. Without a
    sign change the run is a tangent double root (or a pair too close to
    split), refused as UnresolvedClusterError. A run at the window's edge
    has no neighbour on that side; its sample of least |f| is the root.
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
    return float(x[a - 1]), float(x[b + 1]), float(fx[a - 1])


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


def _root_window(p: PotentialModel, beta: float,
                 drives: np.ndarray) -> tuple[float, float]:
    """Where branch_table seeks the roots phi_c of phi = phi_c + beta*u'(phi_c)
    for the drives phi: one period of a periodic u (its roots elsewhere
    are shifted images of the period's: _consistency_roots' wrap), a
    tabulated u's support (u' ends there), (-8pi, 8pi) for another kind,
    and for an even polynomial (-r, r), which holds every root. There r is
    Fujiwara's bound 2*max_i |q_i/q_n|^(1/(n-i)) (q_0 halved) on the roots
    of q(c) = beta*u'(c) + c - phi at the largest |phi|, rounded up to a
    whole number plus one, so that drives a rounding apart share one
    window."""
    if not isinstance(p, PolynomialEven):
        return _scan_window(p, 4.0 * TWO_PI)
    q = np.abs((beta * p._dpoly + [np.max(np.abs(drives)), 1.0]).trim().coef)
    n = q.size - 1
    ratio = q[:n] / q[n]
    ratio[:1] /= 2.0
    r = math.ceil(2.0 * max((ratio ** (1.0 / np.arange(n, 0, -1))).tolist(),
                            default=0.0)) + 1.0
    return -r, r


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
    support, or else (-8pi, 8pi); its threshold is scanned once per model
    instance and kept (a model's u does not change once it is built).
    """
    if window is not None:
        return _scanned_threshold(p, window)
    beta_crit = _DEFAULT_THRESHOLDS.get(p)
    if beta_crit is None:
        beta_crit = _DEFAULT_THRESHOLDS[p] = _scanned_threshold(
            p, _scan_window(p, 4.0 * TWO_PI))
    return beta_crit


# invertibility_threshold on the default window, by model instance
_DEFAULT_THRESHOLDS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _scanned_threshold(p: PotentialModel,
                       window: tuple[float, float]) -> float:
    """invertibility_threshold(p, window), scanned."""
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
    come from _reduced_branch, its one branch solve. The minima need no
    other: V' = lambda_J*s*u'(phi_c), and where u'(phi_c) = 0 the
    consistency equation puts the drive at phi_c itself, so the reduction
    keeps every stationary point of u in place and each minimum is a root
    of u' between two neighbouring branch phases.
    """
    coords, scale = _coordinates(rc, basis, grid)
    beta_crit, phi_c, V, Vp, Vpp = _reduced_branch(p, rc, basis, coords)
    minima = _locate_minima(p, rc, coords, phi_c, Vp, Vpp, scale)
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
    if basis == "CompactPhi":
        phi_c = solve_branch_compact(p, rc.beta, coords)
    else:
        phi_c = solve_branch_extended(p, rc, coords) / math.sqrt(rc.xi)
    return (beta_crit, phi_c, *_reduced_values(p, rc, phi_c, scale))


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


def _locate_minima(p, rc, coords, phi_c, Vp, Vpp, scale):
    """Minima via sign changes (or exact zeros) of V' along the grid.

    A sign-change cell holds a stationary point phi* of u between its two
    branch phases (effective_potential): the cells' roots of u' are
    bisected together down to the bracket width (a residual stop would end
    far from a degenerate minimum, where u' is flat), each minimum sits at
    the coordinate phi*/s, and its curvature is V'' at phi*.
    """
    found = {int(i): (float(coords[i]), float(Vpp[i]))
             for i in np.flatnonzero((Vp == 0.0) & (Vpp > 0.0))}
    cells = np.flatnonzero((Vp[:-1] < 0.0) & (0.0 < Vp[1:]))
    if cells.size:
        # V' = lambda_J*s*u'(phi_c) has the sign of u' at the cells' left ends
        phis = _bisect_lanes(lambda c, _: np.asarray(p.du(c), dtype=float),
                             phi_c[cells], phi_c[cells + 1], Vp[cells],
                             residual=False)
        curv = _reduced_values(p, rc, phis, scale)[2]
        found.update(zip(cells.tolist(),
                         zip((phis / scale).tolist(), curv.tolist())))
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
    One search serves the table: the window of _root_window is sampled
    once, and every drive's brackets are bisected together. A periodic u
    gets every root on the line, found through shifted drives on its one
    sampled period.
    """
    coords, scale = _coordinates(rc, basis, grid)
    drives = coords * scale
    roots, _ = _consistency_roots(p, rc.beta, drives,
                                  _root_window(p, rc.beta, drives),
                                  wrap=p.is_periodic)
    at = [c for c, rs in zip(coords.tolist(), roots) for _ in rs]
    counts = [len(rs) for rs in roots for _ in rs]
    V, Vp, Vpp = _reduced_values(
        p, rc, np.array([r for rs in roots for r in rs], dtype=float), scale)
    return coords, list(zip(at, V.tolist(), Vp.tolist(), Vpp.tolist(), counts))
