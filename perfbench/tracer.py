"""Span tracer that wraps the public functions of the cs_sounding layers.

The tracer patches, from outside the package, every public module-level
function of the traced modules (and the operator methods the solvers call)
with a wrapper that records one span per call: name, parent span, start,
end, the trial it belongs to, the exception it raised, and an optional
work count taken from its arguments. Leaving the `with` block puts every
original object back. Nothing under src/ knows about it.
"""

from __future__ import annotations

import functools
import inspect
import time

TRACED_MODULES = ("numerics", "sparse_recovery", "channel", "sounding",
                  "feedback", "pipeline", "config")

# Operator methods traced under the module name, e.g. "sparse_recovery.rmatvec".
TRACED_METHODS = {"sparse_recovery": ("MeasurementOperator",
                                      ("from_kron_rows", "matvec", "rmatvec", "columns"))}


def _cols(phi_t, y):
    return phi_t.shape[1]


def _items(n, seed):
    return n


def _operator_bytes(cls, n_dft, n_s, row_indices):
    return len(row_indices) * n_dft * n_s * 16  # dense complex128 matrix


# Work counts recorded at the boundary where the work happens. Each function
# takes the traced call's arguments (already bound to the parameter names).
WORK = {
    "numerics.solve_normal_equations": _cols,
    "sounding.knuth_shuffle": _items,
    "sparse_recovery.from_kron_rows": _operator_bytes,
}


class Span:
    __slots__ = ("name", "parent", "trial", "start", "end", "error", "work")

    def __init__(self, name, parent, trial, start=0, end=0, error=None, work=None):
        self.name = name
        self.parent = parent      # index of the caller's span, -1 for a root
        self.trial = trial
        self.start = start        # perf_counter_ns
        self.end = end
        self.error = error        # exception class name, if the call raised
        self.work = work


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def aggregate(spans: list[Span]) -> dict:
    """Per span name: total self time (ns), calls, summed work and calls that raised."""
    rows: dict[str, dict] = {}
    for span, own in zip(spans, self_times_ns(spans)):
        row = rows.setdefault(span.name, {"self_ns": 0, "calls": 0, "work": 0, "errors": 0})
        row["self_ns"] += own
        row["calls"] += 1
        if span.work is not None:
            row["work"] += span.work
        if span.error is not None:
            row["errors"] += 1
    return rows


def root_ns(spans: list[Span]) -> int:
    """Total duration of the spans no traced caller started."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


def namespace_snapshot(package) -> dict:
    """Every attribute of the traced modules and operator classes, keyed by owner."""
    snap = {}
    for name in TRACED_MODULES:
        snap.update({(name, attr): obj for attr, obj in vars(getattr(package, name)).items()})
    for mod_name, (cls_name, _) in TRACED_METHODS.items():
        cls = getattr(getattr(package, mod_name), cls_name)
        snap.update({(cls_name, attr): obj for attr, obj in vars(cls).items()})
    return snap


def tail_percentile(samples, beyond: int = 10) -> tuple[float, float, int]:
    """Highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, samples above). The value is the order
    statistic x[n - beyond - 1]; with fewer than beyond + 1 samples it is
    the minimum, and the count above says how far short the run fell.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    k = max(0, len(xs) - beyond - 1)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


class Tracer:
    """Context manager: wraps on enter, restores on exit.

    `trial` is the identifier stamped on every span recorded while it is
    set; `spans` accumulates until `clear()`.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.trial = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}

    def clear(self) -> None:
        self.spans = []

    def __enter__(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = {name: getattr(self.package, name) for name in TRACED_MODULES}
        owners = {m.__name__: name for name, m in modules.items()}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in owners):
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    name = f"{owners[obj.__module__]}.{obj.__name__}"
                    wrapper = self._wrappers[obj] = self._wrap(name, obj)
                self._patch(module, attr, wrapper)
        for mod_name, (cls_name, methods) in TRACED_METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = f"{mod_name}.{meth}"
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, meth, self._wrap(name, raw))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        tracer = self
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else -1, tracer.trial)
            if work is not None:
                span.work = work(**signature.bind(*args, **kwargs).arguments)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        return wrapper
