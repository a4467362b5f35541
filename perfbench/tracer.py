"""Per-layer spans for the traced run, recorded from the benchmark's side.

``Tracer.install(x)`` replaces the program's public functions in place,
in every ``xcliff`` module that holds them (including the copies that
``hopf``, ``braiding``, ``tensor_shuffle`` and ``cli`` import by name), with
wrappers that record a span: ``(id, parent id, operation index, layer, start,
end)``.  Spans stay in memory; :meth:`Tracer.spans_json` writes them out.
A layer's self time is its spans' durations minus the spans nested directly
inside them.  Work the tracer itself does inside a span (reading a linear
system's shape) is recorded as a ``trace.*`` span, so it is subtracted from
the caller's self time and counted as tracing overhead instead.

``uninstall()`` puts every original back.

:func:`cpu_seconds` is the benchmark's one clock: spans, operations and
set-ups are all timed with it.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import types
from collections import defaultdict

# layer name -> [(module, attribute)], where attribute may be "Class.method".
# The function found there is replaced wherever an xcliff module holds it.
SPANS = {
    "scalars.rank": [("scalars", "sparse_rank")],
    "scalars.invert": [("scalars", "invert")],
    "scalars.matmul": [("scalars", "Matrix.__matmul__")],
    "clifford.build": [("clifford", "CliffordStructure.__init__")],
    "hopf.solve_antipode": [("hopf", "solve_antipode")],
    "hopf.convolution": [("hopf", "convolution")],
    "braiding.solve_sigma": [("braiding", "solve_sigma")],
    "braiding.compatibility_defect": [("braiding", "compatibility_defect")],
    "braiding.check_braided": [("braiding", "check_braided")],
    "braiding.check_braid_equation": [("braiding", "check_braid_equation")],
    "braiding.check_min_polynomial": [("braiding", "check_min_polynomial")],
    "tensor_shuffle.word_ops": [("tensor_shuffle", f) for f in (
        "concat_product", "shuffle_product", "deconcat_coproduct",
        "unshuffle_coproduct", "word_pairing", "pair_word_tensor")],
    "tensor_shuffle.compose": [("tensor_shuffle", "WordOperator.compose")],
    "tensor_shuffle.symmetrizer": [("tensor_shuffle", "quantum_symmetrizer"),
                                   ("tensor_shuffle", "exterior_image_dimensions")],
    "tensor_shuffle.zero_braid_check": [("tensor_shuffle", "zero_braid_bigebra_check")],
    "exterior": [("exterior", f) for f in ("wedge", "contract", "det_pairing")],
    "cli.load_config": [("cli", "load_config")],
    "cli.write_out": [("cli", "write_out")],
    "cli.report": [("cli", "build_instance_report")],
    "cli.sweep_row": [("cli", "sweep_row")],
}

# layer name -> factory whose returned evaluator is spanned
EVALUATORS = {
    "tensor_shuffle.universal_lift": ("tensor_shuffle", "universal_lift"),
    "tensor_shuffle.couniversal_lift": ("tensor_shuffle", "couniversal_lift"),
}

# the exact solver, spanned only where hopf and braiding call it
SOLVE = ("scalars.solve", "solve_sparse_system", ("hopf", "braiding"))

# metric name -> (layer, "self" seconds or "calls")
LAYER_METRICS = {
    "scalars.solve_s": ("scalars.solve", "self"),
    "scalars.solve_calls": ("scalars.solve", "calls"),
    "scalars.rank_s": ("scalars.rank", "self"),
    "scalars.invert_s": ("scalars.invert", "self"),
    "scalars.matmul_s": ("scalars.matmul", "self"),
    "clifford.build_s": ("clifford.build", "self"),
    "clifford.builds": ("clifford.build", "calls"),
    "hopf.solve_antipode_s": ("hopf.solve_antipode", "self"),
    "hopf.solve_antipode_calls": ("hopf.solve_antipode", "calls"),
    "hopf.convolution_s": ("hopf.convolution", "self"),
    "hopf.convolution_calls": ("hopf.convolution", "calls"),
    "braiding.solve_sigma_s": ("braiding.solve_sigma", "self"),
    "braiding.solve_sigma_calls": ("braiding.solve_sigma", "calls"),
    "braiding.compatibility_defect_s": ("braiding.compatibility_defect", "self"),
    "braiding.check_braided_s": ("braiding.check_braided", "self"),
    "braiding.check_braid_equation_s": ("braiding.check_braid_equation", "self"),
    "braiding.check_braid_equation_calls": ("braiding.check_braid_equation", "calls"),
    "braiding.check_min_polynomial_s": ("braiding.check_min_polynomial", "self"),
    "tensor_shuffle.word_ops_s": ("tensor_shuffle.word_ops", "self"),
    "tensor_shuffle.universal_lift_s": ("tensor_shuffle.universal_lift", "self"),
    "tensor_shuffle.couniversal_lift_s": ("tensor_shuffle.couniversal_lift", "self"),
    "tensor_shuffle.compose_s": ("tensor_shuffle.compose", "self"),
    "tensor_shuffle.compose_calls": ("tensor_shuffle.compose", "calls"),
    "tensor_shuffle.symmetrizer_s": ("tensor_shuffle.symmetrizer", "self"),
    "tensor_shuffle.zero_braid_check_s": ("tensor_shuffle.zero_braid_check", "self"),
    "exterior.s": ("exterior", "self"),
    "cli.load_config_s": ("cli.load_config", "self"),
    "cli.write_out_s": ("cli.write_out", "self"),
    "cli.report_self_s": ("cli.report", "self"),
    "cli.sweep_row_self_s": ("cli.sweep_row", "self"),
}

# shape counts summed over the exact solves
SHAPES = ("scalars.rows", "scalars.unknowns", "scalars.nonzeros",
          "scalars.redundant_rows")
BITS = "scalars.solution_bits_max"


def cpu_seconds() -> float:
    """CPU seconds used by this process and its waited-for children.

    On a shared VM the wall clock also counts steal time, which varied
    between 10-second windows several times more than CPU time did
    (README.md, "Timer").  Children are included so that work moved into
    subprocesses still counts."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _resolve(owner, dotted: str):
    """(object holding the attribute, attribute name) for "f" or "Class.f"."""
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _bits(sol) -> int:
    vals = list(sol.particular or ()) + [c for v in sol.nullspace_basis for c in v]
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in vals if v), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, layer, start, end)
        self.stack: list[int] = []
        self.next_id = 0
        self.op = None
        self.active = False
        self.shapes = dict.fromkeys(SHAPES, 0)
        self.bits_max = 0
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _enter(self) -> tuple[int, int | None]:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, layer, start, end):
        self.stack.pop()
        self.spans.append((sid, parent, self.op, layer, start, end))

    def span(self, layer: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        sid, parent = self._enter()
        start = cpu_seconds()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(sid, parent, layer, start, cpu_seconds())

    def wrap(self, fn, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(layer, fn, *args, **kwargs)

        return traced

    def _wrap_factory(self, factory, layer: str):
        tracer = self

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return tracer.wrap(factory(*args, **kwargs), layer)

        return traced_factory

    def _wrap_solve(self, solve, layer: str, rank_fn):
        tracer = self
        signature = inspect.signature(solve)

        @functools.wraps(solve)
        def traced_solve(*args, **kwargs):
            if not tracer.active:
                return solve(*args, **kwargs)
            bound = signature.bind(*args, **kwargs).arguments
            rows, ncols = bound["rows"], bound["ncols"]
            # the shape is read outside the solver's span, in a trace.* span
            snapshot = tracer.span("trace.shape", lambda: [dict(r) for r in rows])
            sol = tracer.span(layer, solve, *args, **kwargs)
            tracer.span("trace.shape", tracer._record_shape, snapshot, ncols, sol, rank_fn)
            return sol

        return traced_solve

    def _record_shape(self, rows, ncols, sol, rank_fn):
        rank = (ncols - sol.dimension if sol.is_consistent else rank_fn(rows, ncols))
        self.shapes["scalars.rows"] += len(rows)
        self.shapes["scalars.unknowns"] += ncols
        self.shapes["scalars.nonzeros"] += sum(1 for r in rows for v in r.values() if v)
        self.shapes["scalars.redundant_rows"] += len(rows) - rank
        self.bits_max = max(self.bits_max, _bits(sol))

    # -- installing -----------------------------------------------------------

    def _replace(self, holders, original, wrapper):
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def install(self, x):
        """Wrap the public functions of the program modules held by ``x``."""
        mods = [mod for name, mod in sys.modules.items()
                if name == "xcliff" or name.startswith("xcliff.")]
        rank_fn = x.scalars.sparse_rank  # unwrapped, for the shapes of solves
        for layer, targets in SPANS.items():
            for mod_name, dotted in targets:
                owner, attr = _resolve(getattr(x, mod_name), dotted)
                original = vars(owner)[attr]
                # a function is replaced in every module holding it, a method on its class
                holders = mods if isinstance(owner, types.ModuleType) else [owner]
                self._replace(holders, original, self.wrap(original, layer))
        for layer, (mod_name, attr) in EVALUATORS.items():
            original = getattr(getattr(x, mod_name), attr)
            self._replace(mods, original, self._wrap_factory(original, layer))
        layer, attr, callers = SOLVE
        original = getattr(x.scalars, attr)
        self._replace([getattr(x, m) for m in callers], original,
                      self._wrap_solve(original, layer, rank_fn))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> tuple[dict, dict]:
        """Self seconds and call counts per layer."""
        nested = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                nested[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for sid, _, _, layer, start, end in self.spans:
            self_s[layer] += (end - start) - nested[sid]
            calls[layer] += 1
        return self_s, calls

    def metrics(self) -> dict:
        """{metric: (value, unit)} for every per-layer metric but the overhead."""
        self_s, calls = self.layer_totals()
        out = {name: (calls[layer], "count") if kind == "calls" else (self_s[layer], "s")
               for name, (layer, kind) in LAYER_METRICS.items()}
        out.update((name, (value, "count")) for name, value in self.shapes.items())
        out[BITS] = (self.bits_max, "bits")
        return out

    def spans_json(self) -> dict:
        return {"fields": ["id", "parent", "op", "layer", "start_s", "end_s"],
                "spans": [list(s) for s in self.spans]}
