"""Per-layer tracing from outside the program.

Tracer wraps every public function of the layer modules (cli, core,
spectral, _kernels as "kernels", similarity, pipeline) and rebinds each
wrapper in every hfgdm module namespace that bound the original, so calls
made through `from .x import f` names are seen too. Each wrapped call is a
span; a span's self time is its duration minus that of its direct child
spans. fixtures and errors do no measurable work and are left alone.

Two layers get counts beyond calls, taken at the layer boundary:
kernels counts the matrices diagonalised (the leading dimensions of the
first array argument, so a batched solver reports in the same unit) and
how many of them are distinct within one operation; similarity counts the
distinct unordered pairs of relations passed to pair_similarity.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

import numpy as np

LAYERS = {
    "hfgdm.cli": "cli",
    "hfgdm.core": "core",
    "hfgdm.spectral": "spectral",
    "hfgdm._kernels": "kernels",
    "hfgdm.similarity": "similarity",
    "hfgdm.pipeline": "pipeline",
}

PER_LAYER = {
    "kernels.solves": "count",
    "kernels.distinct": "count",
    "kernels.ms": "ms",
    "spectral.calls": "count",
    "spectral.self_ms": "ms",
    "similarity.pair.calls": "count",
    "similarity.pair.distinct": "count",
    "similarity.ideal.calls": "count",
    "similarity.self_ms": "ms",
    "core.make_hfpr.calls": "count",
    "core.make_hfpr.ms": "ms",
    "core.random_hfpr.self_ms": "ms",
    "pipeline.run.calls": "count",
    "pipeline.aggregate.calls": "count",
    "pipeline.self_ms": "ms",
    "cli.parse_input.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.out_bytes": "bytes",
}


def _matrices(args):
    """The square matrices in the first array argument of a solver call."""
    for a in args:
        if isinstance(a, np.ndarray) and a.ndim >= 2:
            return a.reshape((-1,) + a.shape[-2:])
    return ()


def _relation_key(h) -> int:
    return hash(np.ascontiguousarray(h.values).tobytes())


class Tracer:
    """Spans and counts for the operations run between install and remove.

    Call begin_op and end_op around each operation; spans of the first
    keep_ops operations are kept whole for the trace file, the rest only
    as per-function totals.
    """

    def __init__(self, keep_ops: int = 1):
        self.keep_ops = keep_ops
        self.names: list[str] = []      # "layer.function" per function id
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        self.spans: list[tuple] = []    # (fid, start, end, parent, op)
        self.ops = 0
        self.solves = 0
        self.distinct_matrices = 0
        self.distinct_pairs = 0
        self.out_bytes = 0
        self._stack: list[list] = []    # [fid, start, child_ns, span index]
        self._kernel_depth = 0
        self._op_matrices: set = set()
        self._op_pairs: set = set()
        self._rebound: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == modname
                        and not name.startswith("_")):
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        for modname, module in list(sys.modules.items()):
            if modname != "hfgdm" and not modname.startswith("hfgdm."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))

    def remove(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, fn, layer: str):
        fid = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        self.calls.append(0)
        self.incl_ns.append(0)
        self.self_ns.append(0)
        stack = self._stack
        if layer == "kernels":
            on_enter = self._enter_kernel
        elif fn.__name__ == "pair_similarity":
            on_enter = self._enter_pair
        else:
            on_enter = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            keep = self.ops < self.keep_ops
            if keep:
                span = len(self.spans)
                self.spans.append(None)
            else:
                span = -1
            frame = [fid, 0, 0, span]
            stack.append(frame)
            in_kernel = on_enter(args) if on_enter is not None else False
            frame[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                if in_kernel:
                    self._kernel_depth -= 1
                stack.pop()
                dur = end - frame[1]
                self.calls[fid] += 1
                self.incl_ns[fid] += dur
                self.self_ns[fid] += dur - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                if keep:
                    self.spans[span] = (fid, frame[1], end,
                                        parent[3] if parent else -1,
                                        self.ops)

        return wrapper

    def _enter_kernel(self, args) -> bool:
        """Count the matrices of an outermost solver call; nested ones
        are the same solve seen again."""
        if not self._kernel_depth:
            for m in _matrices(args):
                self.solves += 1
                self._op_matrices.add((m.shape, hash(
                    np.ascontiguousarray(m).tobytes())))
        self._kernel_depth += 1
        return True

    def _enter_pair(self, args) -> bool:
        if len(args) >= 2:
            a, b = _relation_key(args[0]), _relation_key(args[1])
            self._op_pairs.add((min(a, b), max(a, b)))
        return False

    # -- operations ---------------------------------------------------

    def begin_op(self) -> None:
        self._op_matrices.clear()
        self._op_pairs.clear()

    def end_op(self, out_bytes: int) -> None:
        self.distinct_matrices += len(self._op_matrices)
        self.distinct_pairs += len(self._op_pairs)
        self.out_bytes += out_bytes
        self.ops += 1

    # -- results ------------------------------------------------------

    def _sum(self, values, layer: str, name: str | None = None,
             exclude: str | None = None) -> int:
        total = 0
        for fid, full in enumerate(self.names):
            fl, fn = full.split(".", 1)
            if fl == layer and (name is None or fn == name) and fn != exclude:
                total += values[fid]
        return total

    def per_layer(self) -> dict[str, float]:
        """Per-operation figures for each name in PER_LAYER."""
        ops = self.ops or 1
        ms = 1e-6 / ops
        s = self._sum
        return {
            "kernels.solves": self.solves / ops,
            "kernels.distinct": self.distinct_matrices / ops,
            "kernels.ms": s(self.self_ns, "kernels") * ms,
            "spectral.calls": s(self.calls, "spectral") / ops,
            "spectral.self_ms": s(self.self_ns, "spectral") * ms,
            "similarity.pair.calls":
                s(self.calls, "similarity", "pair_similarity") / ops,
            "similarity.pair.distinct": self.distinct_pairs / ops,
            "similarity.ideal.calls":
                s(self.calls, "similarity", "ideal_similarity") / ops,
            "similarity.self_ms": s(self.self_ns, "similarity") * ms,
            "core.make_hfpr.calls": s(self.calls, "core", "make_hfpr") / ops,
            "core.make_hfpr.ms": s(self.incl_ns, "core", "make_hfpr") * ms,
            "core.random_hfpr.self_ms":
                s(self.self_ns, "core", "random_hfpr") * ms,
            "pipeline.run.calls": s(self.calls, "pipeline", "run") / ops,
            "pipeline.aggregate.calls":
                s(self.calls, "pipeline", "aggregate_hfpr") / ops,
            "pipeline.self_ms": s(self.self_ns, "pipeline") * ms,
            "cli.parse_input.self_ms":
                s(self.self_ns, "cli", "parse_input") * ms,
            "cli.main.self_ms":
                s(self.self_ns, "cli", exclude="parse_input") * ms,
            "cli.out_bytes": self.out_bytes / ops,
        }

    def functions(self) -> list[dict]:
        """Per-function totals over all traced operations."""
        return [{"name": name, "calls": self.calls[fid],
                 "incl_ms": self.incl_ns[fid] * 1e-6,
                 "self_ms": self.self_ns[fid] * 1e-6}
                for fid, name in enumerate(self.names) if self.calls[fid]]

    def kept_spans(self) -> list[dict]:
        """The kept spans, times in microseconds from the first start."""
        spans = [s for s in self.spans if s is not None]
        t0 = min((s[1] for s in spans), default=0)
        return [{"name": self.names[fid], "start_us": (a - t0) / 1e3,
                 "end_us": (b - t0) / 1e3, "parent": parent, "op": op}
                for fid, a, b, parent, op in spans]
