"""Per-layer timing of hopfqexp, taken from outside the library.

The tracer wraps public functions of each module of ``hopfqexp`` and
rebinds every name under which a module of the package holds them (for
example ``suite.validate`` and ``cli._validate`` as well as
``hopf.validate``), so calls made through imported names are caught too.

* Rarely called functions record a span: job id, function, start, end and
  the enclosing span.  Spans stay in memory and are written once, at the
  end of the run.
* The hot kernels (``mul_dicts``, ``TensorElement.__mul__``,
  ``SpanSolver.insert``, ``ExactMatrix.__matmul__`` and the polynomial
  methods) record only a call count and accumulated time.
* A layer's self time is the time inside its functions minus the time
  inside wrapped functions they call.

Scalar operations are counted by ``ScalarCounter`` in a separate pass, so
that the cost of wrapping them does not inflate the spans.
"""

from __future__ import annotations

import gc
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: spans whose hot children count as steps of an order search
ORDER_LAYER = "hopf.order"


def _public(module) -> list[str]:
    return [name for name, f in vars(module).items()
            if inspect.isfunction(f) and f.__module__ == module.__name__
            and not name.startswith("_")]


def _methods(cls) -> list[str]:
    return [name for name, f in vars(cls).items()
            if (inspect.isfunction(f) or isinstance(f, classmethod))
            and name not in ("__repr__", "__hash__")]


def layer_table():
    """(layer, owner, attribute names, hot) for every wrapped function."""
    from hopfqexp import cli, double, hopf, io, linalg, poly, presets, qexp, suite, twist

    return [
        ("cli.self", cli, ["main"], False),
        ("presets.build", presets, _public(presets), False),
        ("qexp.t_route", qexp,
         ["quasi_exponent", "u_min_poly_via_t", "t_map", "unipotency_index"], False),
        ("qexp.regular_route", qexp, ["u_min_poly_via_regular"], False),
        ("qexp.regular_route", double, ["regular_representation"], False),
        ("qexp.power_minpoly", qexp,
         ["element_minimal_polynomial", "is_unipotent_element"], False),
        ("linalg.minpoly", linalg, ["minimal_polynomial"], False),
        ("linalg.inverse", linalg.ExactMatrix, ["inverse"], False),
        ("hopf.validate", hopf, ["validate"], False),
        ("hopf.construct", hopf,
         ["dual", "variant", "tensor", "lift_algebra", "subalgebra_closure"], False),
        (ORDER_LAYER, hopf, ["s2_order", "element_order"], False),
        ("double.build", double, ["drinfeld_double", "drinfeld_element"], False),
        ("double.verify", double,
         ["verify_quasitriangular", "verify_s2_conjugation", "r_inverse", "u_inverse"],
         False),
        ("io.dump", io, ["algebra_to_dict", "twist_to_dict", "dumps", "write_algebra"],
         False),
        ("io.load", io, ["read_algebra", "algebra_from_dict", "read_twist",
                         "twist_from_dict"], False),
        ("twist.self", twist, _public(twist), False),
        ("suite.self", suite, ["run_suite", "format_suite"], False),
        ("hopf.mul_dicts", hopf.HopfAlgebraData, ["mul_dicts"], True),
        ("hopf.tensor_mul", hopf.TensorElement, ["__mul__"], True),
        ("linalg.span_insert", linalg.SpanSolver, ["insert"], True),
        ("linalg.matmul", linalg.ExactMatrix, ["__matmul__"], True),
        ("poly.self", poly.ExactPolynomial, _methods(poly.ExactPolynomial), True),
        ("poly.self", poly, _public(poly), True),
    ]


#: hot kernels whose calls directly under an order-search span are its steps
_ORDER_STEP_KERNELS = ("HopfAlgebraData.mul_dicts", "ExactMatrix.__matmul__")


def _io_bytes(key: str) -> Callable[[tuple, Any], int] | None:
    if key == "io.dumps":
        return lambda args, result: len(result)
    if key in ("io.read_algebra", "io.read_twist"):
        return lambda args, result: os.path.getsize(args[0])
    return None


class _Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self):
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def rebind(self, original, wrapper) -> None:
        """Point every name a hopfqexp module holds for original at wrapper."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "hopfqexp"
                                      or modname.startswith("hopfqexp.")):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Spans, call counts and self time per layer for one pass of jobs."""

    def __init__(self):
        # a frame is [time spent in wrapped callees, enclosing span id, span layer]
        self.root = [0.0, None, None]
        self.stack = [self.root]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.job = -1
        self.order_steps = 0
        self.io_bytes = 0
        self._patcher = _Patcher()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str, hot: bool):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        perf = time.perf_counter
        tracer = self
        if hot:
            is_step = key in _ORDER_STEP_KERNELS

            def hot_wrapper(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, parent[1], None]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    calls[key] += 1
                    self_s[layer] += dur - frame[0]
                    parent[0] += dur
                    if is_step and parent[2] == ORDER_LAYER:
                        tracer.order_steps += 1
            return hot_wrapper

        measure = _io_bytes(key)

        def span_wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            frame = [0.0, sid, layer]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[key] += 1
                self_s[layer] += dur - frame[0]
                parent[0] += dur
                spans[sid] = (sid, parent[1], tracer.job, key, t0, t1)
            if measure is not None:
                tracer.io_bytes += measure(args, result)
            return result
        return span_wrapper

    def install(self) -> None:
        for layer, owner, names, hot in layer_table():
            prefix = owner.__name__.rpartition(".")[2]
            for name in names:
                raw = vars(owner)[name]
                key = f"{prefix}.{name}"
                if inspect.isclass(owner):
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, key, layer, hot))
                    else:
                        wrapped = self._wrap(raw, key, layer, hot)
                    self._patcher.set(owner, name, wrapped)
                else:
                    self._patcher.rebind(raw, self._wrap(raw, key, layer, hot))

    def uninstall(self) -> None:
        self._patcher.restore()

    # -- results ---------------------------------------------------------------

    def covered_s(self) -> float:
        """Time inside outermost wrapped calls so far."""
        return self.root[0]

    def check_conservation(self, wall_s: float) -> float:
        """Layer self times must add up to the covered time; returns the
        untraced remainder (harness and unwrapped code outside any span)."""
        total_self = sum(self.self_s.values())
        covered = self.covered_s()
        if abs(total_self - covered) > 1e-6 * max(1.0, covered):
            raise AssertionError(
                f"layer self times sum to {total_self:.6f} s, covered time is {covered:.6f} s")
        if min(self.self_s.values(), default=0.0) < -1e-6:
            raise AssertionError("a layer has negative self time")
        remainder = wall_s - covered
        if remainder < -1e-6:
            raise AssertionError(f"covered time exceeds the traced wall time by {-remainder} s")
        return remainder

    def span_records(self) -> list[dict]:
        return [{"id": s[0], "parent": s[1], "job": s[2], "fn": s[3],
                 "start": s[4], "end": s[5]} for s in self.spans if s is not None]


class ScalarCounter:
    """Counts CyclotomicNumber multiplications, additions, constants, inverses."""

    _TARGETS = (("mul", ("__mul__", "__rmul__")), ("add", ("__add__", "__radd__")),
                ("rational", ("rational",)), ("inverse", ("inverse",)))

    def __init__(self):
        self.counts = {kind: [0] for kind, _ in self._TARGETS}
        self._patcher = _Patcher()

    def install(self) -> None:
        from hopfqexp.scalars import CyclotomicNumber

        for kind, names in self._TARGETS:
            cell = self.counts[kind]
            for name in names:
                raw = vars(CyclotomicNumber)[name]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw

                def counted(*args, _fn=fn, _cell=cell, **kwargs):
                    _cell[0] += 1
                    return _fn(*args, **kwargs)
                self._patcher.set(CyclotomicNumber, name,
                                  classmethod(counted) if isinstance(raw, classmethod)
                                  else counted)

    def uninstall(self) -> None:
        self._patcher.restore()

    def totals(self) -> dict[str, int]:
        return {kind: cell[0] for kind, cell in self.counts.items()}


class GcTimer:
    """Number and duration of garbage collections, from gc.callbacks."""

    def __init__(self):
        self.count = 0
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.count += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
