"""Outside-in layer tracing for the benchmark.

The traced run replaces each public layer name, in every module namespace
that calls it, by a wrapper that records a span (name, start, end, parent
span, attributes). One wrapper object serves all namespaces of a function,
so a call is counted once. Counts at the scipy boundary come from wrapping
``eig_banded``, ``solve_banded`` and ``eigsh`` as bound in
``circadia.spectra`` and from a counting subclass of scipy's shift-invert
LU operator. Spans stay in memory; per-layer metrics are computed from them
after the pass, and the spans are written out at the end of the run.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

_ARPACK = "scipy.sparse.linalg._eigen.arpack.arpack"


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.hook_errors: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def count(self, key: str) -> None:
        """Add one to a counter on the innermost open span."""
        attrs = self.spans[self._stack[-1]].attrs
        attrs[key] = attrs.get(key, 0) + 1


# ---------------------------------------------------------------------------
# attribute hooks: (span, args, kwargs, result) -> None


def _returned_len(span, args, kwargs, result):
    span.attrs["n"] = int(len(result))


def _returned_one(span, args, kwargs, result):
    span.attrs["returned"] = 1


def _returned_k(span, args, kwargs, result):
    span.attrs["returned"] = int(result.k)


def _returned_naive(span, args, kwargs, result):
    span.attrs["returned"] = int(result.numerical.size)


def _lowest(span, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    span.attrs["variant"] = spec.variant
    span.attrs["returned"] = int(result.k)
    w = result.eigenvalues
    rel = [float(r) / max(1.0, abs(float(e)))
           for r, e in zip(result.residual_norms, w)]
    span.attrs["max_residual_rel"] = max(rel) if rel else 0.0


def _eigsh(span, args, kwargs, result):
    H = args[0]
    w = result[0] if isinstance(result, tuple) else result
    lam0 = float(min(w))
    sigma = float(kwargs["sigma"])
    span.attrs.update(dim=int(H.shape[0]), nnz=int(H.nnz), pairs=int(len(w)),
                      shift_gap_rel=(lam0 - sigma) / max(1.0, abs(lam0)))


def _integrate(span, args, kwargs, result):
    t_end = float(args[3] if len(args) > 3 else kwargs["t_end"])
    span.attrs["steps"] = int(round(t_end / result.dt))


def _fit(span, args, kwargs, result):
    span.attrs["sweeps"] = int(result[1].sweeps)


# (span name, defining module, attribute, namespaces that call it, hook).
# Besides the layers measured below, the list wraps the other library calls
# the cmd_* functions make, so that cli.io.self_s keeps only loading and
# output.
CMDS = ("cmd_reduce", "cmd_bo_sweep", "cmd_compare", "cmd_dynamics",
        "cmd_foster")
WRAPS = [(f"cli.{c}", "circadia.cli", c, ["circadia.cli"], None)
         for c in CMDS] + [
    ("reduction.branch_table", "circadia.reduction", "branch_table",
     ["circadia.cli"], None),
    ("reduction.solve_consistency", "circadia.reduction", "solve_consistency",
     ["circadia.reduction"], None),
    ("reduction.effective_potential", "circadia.reduction",
     "effective_potential", ["circadia.cli", "circadia.dynamics"], None),
    ("spectra.bo_effective_potential", "circadia.spectra",
     "bo_effective_potential", ["circadia.cli"], None),
    ("spectra.bo_fast_ground", "circadia.spectra", "bo_fast_ground",
     ["circadia.cli", "circadia.spectra"], _returned_one),
    ("spectra.window", "circadia.spectra", "eigenvalues_in_window",
     ["circadia.cli"], _returned_k),
    ("spectra.lowest_eigenvalues", "circadia.spectra", "lowest_eigenvalues",
     ["circadia.cli", "circadia.spectra"], _lowest),
    ("spectra.naive_compact_adiabatic", "circadia.spectra",
     "naive_compact_adiabatic", ["circadia.cli"], _returned_naive),
    ("scipy.eig_banded", "circadia.spectra", "eig_banded",
     ["circadia.spectra"], _returned_len),
    ("scipy.solve_banded", "circadia.spectra", "solve_banded",
     ["circadia.spectra"], None),
    ("scipy.eigsh", "circadia.spectra", "eigsh", ["circadia.spectra"],
     _eigsh),
    ("dynamics.integrate", "circadia.dynamics", "integrate",
     ["circadia.cli", "circadia.dynamics"], _integrate),
    ("dynamics.shadow", "circadia.dynamics", "shadow_reduced_dynamics",
     ["circadia.cli"], None),
    ("dynamics.manifold_eta", "circadia.dynamics", "manifold_eta",
     ["circadia.dynamics"], None),
    ("foster.fit", "circadia.foster", "fit_foster", ["circadia.cli"], _fit),
    ("foster.eval_admittance", "circadia.foster", "eval_admittance",
     ["circadia.cli"], None),
    ("foster.reactance_slope", "circadia.foster", "reactance_slope",
     ["circadia.cli"], None),
]


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            # a hook that no longer fits the traced function must not change
            # the program's result; the error is reported with the metrics
            try:
                hook(tracer.spans[idx], args, kwargs, result)
            except Exception as exc:
                tracer.hook_errors.append(f"{name}: {exc!r}")
        return result
    return wrapper


def lu_operator_available() -> bool:
    return hasattr(importlib.import_module(_ARPACK), "SpLuInv")


def _counting_lu(tracer: Tracer, base):
    class CountingSpLuInv(base):
        def __init__(self, M):
            idx = tracer.open("scipy.splu")
            try:
                super().__init__(M)
            finally:
                tracer.close(idx)
            try:
                tracer.spans[idx].attrs["lu_fill"] = int(
                    self.M_lu.L.nnz + self.M_lu.U.nnz)
            except AttributeError as exc:
                tracer.hook_errors.append(f"scipy.splu: {exc!r}")

        def _matvec(self, x):
            tracer.count("opinv_solves")
            return super()._matvec(x)
    return CountingSpLuInv


class Installed:
    """Context manager: wrappers in place on enter, originals on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list = []

    def __enter__(self):
        for name, home, attr, namespaces, hook in WRAPS:
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                continue
            wrapper = _wrap(self.tracer, name, original, hook)
            for ns in namespaces:
                mod = importlib.import_module(ns)
                # a namespace that no longer binds this function does not
                # call it through that name
                if getattr(mod, attr, None) is not original:
                    continue
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)
        if lu_operator_available():
            arpack = importlib.import_module(_ARPACK)
            self._saved.append((arpack, "SpLuInv", arpack.SpLuInv))
            arpack.SpLuInv = _counting_lu(self.tracer, arpack.SpLuInv)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans

# Counts repeat exactly from pass to pass; the other metrics are times or
# ratios of times and are combined as medians.
COUNT_METRICS = (
    "spectra.banded.eig_calls", "spectra.banded.eigvals_computed",
    "spectra.banded.eigvals_kept", "spectra.bo_fast_ground.calls",
    "spectra.window.calls", "spectra.window.levels",
    "spectra.banded.solve_calls", "spectra.2d.calls", "spectra.2d.dim",
    "spectra.2d.nnz", "spectra.2d.opinv_solves", "spectra.2d.lu_fill",
    "reduction.solve_consistency.calls", "reduction.effective_potential.calls",
    "dynamics.integrate.calls", "dynamics.integrate.steps",
    "foster.fit.calls", "foster.fit.sweeps",
)
LU_METRICS = ("spectra.2d.opinv_solves", "spectra.2d.lu_fill",
              "spectra.2d.factor_s", "spectra.2d.pairs_per_solve")


def _self_time(spans, children, i) -> float:
    return spans[i].duration - sum(spans[c].duration for c in children[i])


def layer_metrics(spans: list[Span], lu_available: bool) -> dict:
    children: dict = {i: [] for i in range(len(spans))}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)

    def by(name):
        return [s for s in spans if s.name == name]

    def busy(name):
        return sum(s.duration for s in by(name))

    def has_eig_descendant(i):
        return any(spans[c].name == "scipy.eig_banded"
                   or has_eig_descendant(c) for c in children[i])

    eig = by("scipy.eig_banded")
    computed = sum(s.attrs.get("n", 0) for s in eig)
    kept = sum(s.attrs["returned"] for i, s in enumerate(spans)
               if "returned" in s.attrs and has_eig_descendant(i))
    two_d = [s for s in by("spectra.lowest_eigenvalues")
             if s.attrs.get("variant") == "Regularized2D"]
    eigsh = by("scipy.eigsh")
    splu = by("scipy.splu")
    opinv = sum(s.attrs.get("opinv_solves", 0) for s in eigsh)
    pairs = sum(s.attrs.get("pairs", 0) for s in eigsh)
    integ = by("dynamics.integrate")
    steps = sum(s.attrs.get("steps", 0) for s in integ)
    cmd_idx = [i for i, s in enumerate(spans)
               if s.name.startswith("cli.cmd_")]
    shadow_idx = [i for i, s in enumerate(spans)
                  if s.name == "dynamics.shadow"]

    m = {
        "spectra.banded.eig_calls": len(eig),
        "spectra.banded.eig_s": busy("scipy.eig_banded"),
        "spectra.banded.eigvals_computed": computed,
        "spectra.banded.eigvals_kept": kept,
        "spectra.banded.kept_ratio": kept / computed if computed else 0.0,
        "spectra.bo_fast_ground.calls": len(by("spectra.bo_fast_ground")),
        "spectra.bo_fast_ground.busy_s": busy("spectra.bo_fast_ground"),
        "spectra.window.calls": len(by("spectra.window")),
        "spectra.window.busy_s": busy("spectra.window"),
        "spectra.window.levels": sum(s.attrs.get("returned", 0)
                                     for s in by("spectra.window")),
        "spectra.banded.solve_calls": len(by("scipy.solve_banded")),
        "spectra.banded.solve_s": busy("scipy.solve_banded"),
        "spectra.2d.calls": len(two_d),
        "spectra.2d.busy_s": sum(s.duration for s in two_d),
        "spectra.2d.dim": max((s.attrs.get("dim", 0) for s in eigsh),
                              default=0),
        "spectra.2d.nnz": max((s.attrs.get("nnz", 0) for s in eigsh),
                              default=0),
        "spectra.2d.factor_s": sum(s.duration for s in splu),
        "spectra.2d.opinv_solves": opinv,
        "spectra.2d.pairs_per_solve": pairs / opinv if opinv else 0.0,
        "spectra.2d.shift_gap_rel": max(
            (s.attrs.get("shift_gap_rel", 0.0) for s in eigsh), default=0.0),
        "spectra.2d.max_residual_rel": max(
            (s.attrs.get("max_residual_rel", 0.0) for s in two_d),
            default=0.0),
        "spectra.2d.lu_fill": max((s.attrs.get("lu_fill", 0) for s in splu),
                                  default=0),
        "reduction.solve_consistency.calls": len(
            by("reduction.solve_consistency")),
        "reduction.solve_consistency.busy_s": busy(
            "reduction.solve_consistency"),
        "reduction.branch_table.busy_s": busy("reduction.branch_table"),
        "reduction.effective_potential.calls": len(
            by("reduction.effective_potential")),
        "reduction.effective_potential.busy_s": busy(
            "reduction.effective_potential"),
        "dynamics.integrate.calls": len(integ),
        "dynamics.integrate.busy_s": busy("dynamics.integrate"),
        "dynamics.integrate.steps": steps,
        "dynamics.integrate.us_per_step": (
            1e6 * busy("dynamics.integrate") / steps if steps else 0.0),
        "dynamics.shadow.self_s": sum(_self_time(spans, children, i)
                                      for i in shadow_idx),
        "foster.fit.calls": len(by("foster.fit")),
        "foster.fit.busy_s": busy("foster.fit"),
        "foster.fit.sweeps": sum(s.attrs.get("sweeps", 0)
                                 for s in by("foster.fit")),
        "cli.io.self_s": sum(_self_time(spans, children, i) for i in cmd_idx),
    }
    if not lu_available:
        for key in LU_METRICS:
            m[key] = None
    return m


def combine(passes: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced pass, times as the median over passes.

    Returns the combined metrics and the names of counts that did not
    repeat exactly across passes.
    """
    out, unstable = {}, []
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in COUNT_METRICS:
            out[key] = values[0]
            if any(v != values[0] for v in values):
                unstable.append(key)
        elif values[0] is None:
            out[key] = None
        else:
            out[key] = statistics.median(values)
    return out, unstable


def spans_payload(spans: list[Span]) -> list[dict]:
    return [s.to_dict() for s in spans]


def importtime(stderr_text: str, modules: tuple[str, ...]) -> dict:
    """Cumulative import seconds per module from ``python -X importtime``.

    A module that was never imported reads 0.0.
    """
    found = dict.fromkeys(modules, 0.0)
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in found:
            try:
                found[name] = int(parts[1]) / 1e6
            except ValueError:
                pass
    return found
