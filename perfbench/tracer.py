"""Per-layer spans, taken from outside the package.

The tracer wraps public functions of ``credalchoice`` modules.  A module
that did ``from .worlds import build_world_space`` holds its own binding,
so each function is rebound in *every* ``credalchoice`` module namespace
that holds it, and every binding is put back on exit.  Spans stay in
memory: name, start, end, parent span, op id, an optional size of the
result (vertices, worlds, models), and whether the call raised.  Nothing
inside ``src/`` is changed.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# module -> public functions traced.  Metric names are "<module>.<function>".
TARGETS: dict[str, tuple[str, ...]] = {
    "lp": ("solve_lp", "feasible_point", "enumerate_vertices_eq"),
    "logic": ("ground", "check_acyclic", "stable_model"),
    "worlds": ("build_world_space", "coherent_partial_choices"),
    "inference": (
        "credal_bounds_strong_extension",
        "outer_bound",
        "credal_bounds_single_space",
        "proxy_query_value",
    ),
    "psat": ("bisect_bounds", "psat_decide", "enumerate_models", "build_psat_instance", "inner_point"),
    "ranking": ("evaluate", "pairwise_query", "build_ranking_theory", "parse_rankings"),
    "theory": ("parse_ccl", "validate_theory"),
}

# Result sizes recorded on spans, summed into count metrics.
SIZES = {
    "lp.enumerate_vertices_eq": ("lp.vertices", len),
    "worlds.build_world_space": ("worlds.worlds_built", lambda ws: len(ws.worlds)),
    "psat.enumerate_models": ("psat.models", len),
}

NAME, START, END, PARENT, OP, SIZE, RAISED = range(7)


class Tracer:
    """Context manager that installs the wrappers and restores the bindings."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # id stamped on new spans
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "credalchoice" or n.startswith("credalchoice.")
        ]
        for mod_name, functions in TARGETS.items():
            home = sys.modules.get(f"credalchoice.{mod_name}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue  # gone from the package: its metrics read zero
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        size = SIZES.get(name, (None, None))[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, True]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[RAISED] = False
            finally:
                span[END] = perf_counter()
                stack.pop()
            if size is not None:
                try:
                    span[SIZE] = size(result)
                except (AttributeError, TypeError):
                    pass  # the result no longer exposes the size; the count reads low
            return result

        return wrapper


def layer_totals(spans: list[list], ops: set) -> dict[str, float]:
    """Calls, self time and counts over the spans whose op id is in ``ops``.

    Self time is a span's duration minus the durations of its children.
    ``inference.combos`` is, per completed strong-extension call, the
    product of the vertex counts enumerated beneath it.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = {}
    combos: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[OP] not in ops:
            continue
        name = s[NAME]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (s[END] - s[START]) - child_time[i]
        if name in SIZES and s[SIZE] is not None:
            metric = SIZES[name][0]
            out[metric] = out.get(metric, 0) + s[SIZE]
        if name == "lp.enumerate_vertices_eq" and s[SIZE] is not None:
            j = s[PARENT]
            while j >= 0 and spans[j][NAME] != "inference.credal_bounds_strong_extension":
                j = spans[j][PARENT]
            if j >= 0:
                combos[j] = combos.get(j, 1) * s[SIZE]
    # a strong extension that raised (a cap) walked no combination
    out["inference.combos"] = sum(n for j, n in combos.items() if not spans[j][RAISED])
    return out
