"""Per-layer tracing of the tdmc engine from outside the program.

Each traced function is rebound, on every loaded ``tdmc`` module that holds
it, to a wrapper that records a span (name, start, end, parent span,
operation id).  Calls made inside a module resolve through that module's
globals, so they are caught as well; no source file of the engine changes.
Spans stay in memory until ``write_spans`` is called at the end of the run.

Self time is a span's duration minus the durations of its child spans.
Total time adds a span only when no span of the same function encloses it,
so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Engine module -> traced public functions.  The names are the per-layer
# metric prefixes ``<module>.<function>``; ``cli`` only formats text.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "groups": (
        "subgroups_up_to_conjugacy",
        "closure",
        "orbit_decomposition",
        "double_cosets",
    ),
    "linalg": ("smith_form_mod", "solve_mod", "kernel_mod"),
    "cohomology": (
        "cohomology_cstar",
        "cohomology_mod",
        "solve_trivialization",
        "is_trivial_over_cstar",
        "small_generating_set",
        "is_cocycle",
    ),
    "twisted_algebra": ("projective_irrep_count",),
    "modcat": (
        "double_context",
        "classify_pairs",
        "transport_pair",
        "pair_from_coords",
        "module_rank_double",
        "bimodule_rank",
        "fiber_functors",
        "is_fiber_functor",
    ),
    "verification": ("census_labels",),
}


def _cells(args, kwargs, result) -> int:
    """Sum of m*n over the matrices handed to the Smith form."""
    m, n = np.atleast_2d(np.asarray(args[0])).shape
    return m * n


def _table_key(*extra_positions: int):
    """Key of a cohomology call: the group's multiplication table plus the
    degree and, for cohomology_mod, the modulus."""

    def key(args, kwargs, result):
        G = args[0]
        return (G.mul.shape, G.mul.tobytes()) + tuple(args[i] for i in extra_positions)

    return key


# Extra counters recorded at the same boundaries as the spans.
# "sum": add the returned number; "distinct": count distinct returned keys.
COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "linalg.smith_form_mod.cells": ("sum", _cells),
    "cohomology.cohomology_cstar.distinct": ("distinct", _table_key(1)),
    "cohomology.cohomology_mod.distinct": ("distinct", _table_key(1, 2)),
    "cohomology.solve_trivialization.solved": (
        "sum",
        lambda args, kwargs, result: int(result is not None),
    ),
    "modcat.is_fiber_functor.hits": ("sum", lambda args, kwargs, result: int(bool(result))),
}


class Tracer:
    """Span recorder for one process.  ``install`` after importing tdmc,
    ``uninstall`` before running anything that should not be counted."""

    def __init__(self) -> None:
        self.op = 0
        self.names: List[str] = []
        self.spans: List[Optional[Tuple[int, float, float, int, int]]] = []
        self._open: List[int] = []
        self._child_time: List[float] = []
        self._active: List[int] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self._sums: Dict[str, int] = {}
        self._keys: Dict[str, set] = {}
        self._restore: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        import tdmc

        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "tdmc" or name.startswith("tdmc."))
        ]
        for module, funcs in LAYERS.items():
            home = getattr(tdmc, module)
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{module}.{func}", original)
                for mod in modules:
                    if getattr(mod, func, None) is original:
                        self._restore.append((mod, func, original))
                        setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._restore):
            setattr(mod, func, original)
        self._restore.clear()

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        idx = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self._active.append(0)
        counters = [
            (metric, kind, probe)
            for metric, (kind, probe) in COUNTERS.items()
            if metric.startswith(qualname + ".")
        ]
        for metric, kind, _ in counters:
            if kind == "sum":
                self._sums[metric] = 0
            else:
                self._keys[metric] = set()
        spans, open_, child_time, active = (
            self.spans,
            self._open,
            self._child_time,
            self._active,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(sid)
            child_time.append(0.0)
            active[idx] += 1
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                dur = end - start
                open_.pop()
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dur
                active[idx] -= 1
                self.calls[idx] += 1
                self.self_s[idx] += dur - inner
                if not active[idx]:
                    self.total_s[idx] += dur
                spans[sid] = (idx, start, end, parent, self.op)
                for metric, kind, probe in counters:
                    value = probe(args, kwargs, result)
                    if kind == "sum":
                        self._sums[metric] += value
                    else:
                        self._keys[metric].add(value)

        return traced

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
            out[f"{name}.total_s"] = self.total_s[idx]
        out.update(self._sums)
        out.update({metric: len(keys) for metric, keys in self._keys.items()})
        return out

    def write_spans(self, path: str) -> None:
        """One CSV line per span; times in ns from the first span's start."""
        done = [s for s in self.spans if s is not None]
        t0 = min((s[1] for s in done), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                idx, start, end, parent, op = span
                fh.write(
                    f"{sid},{parent},{op},{self.names[idx]},"
                    f"{round((start - t0) * 1e9)},{round((end - t0) * 1e9)}\n"
                )
