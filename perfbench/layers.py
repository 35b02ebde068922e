"""Per-layer timing of polygonspace, installed from outside the package.

``Tracer.install`` rebinds each traced public function in every
``polygonspace`` module namespace that holds it, so calls between modules,
calls inside a module and calls from the CLI all pass through the wrapper;
methods are wrapped on their class.  A wrapper times each call as a span
nested in the span of the traced call that made it, and adds the span to
its function's call count and self time (the span's duration minus the part
covered by the traced calls it made).  Spans are summed per function as they
end rather than kept, since one round makes up to ~10^4 traced calls.
Times are raw seconds.  Nothing under ``src/`` changes, and an untraced run
wraps nothing.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

# (module, attribute) pairs; "Class.method" names a method.
TRACED = (
    ("chambers", "signature"),
    ("chambers", "adjacent_representative"),
    ("chambers", "representative"),
    ("chambers", "segment_crossings"),
    ("chambers", "nudge_within_chamber"),
    ("chambers", "enumerate_chambers"),
    ("exactlp", "maximize"),
    ("volume", "volume_polynomial"),
    ("apolar", "catalecticant_rank"),
    ("apolar", "annihilator_generators"),
    ("apolar", "is_zero_class"),
    ("apolar", "poincare_pairing"),
    ("ratpoly", "rank_and_kernel"),
    ("ratpoly", "MultiPoly.apply_operator"),
    ("ratpoly", "MultiPoly.differentiate"),
    ("wallcross", "betti_via_path"),
    ("wallcross", "crossing_report"),
    ("wallcross", "validate_chamber"),
    ("cli", "run"),
)


# Layers a set-up calls (queries builds its volume polynomials there),
# reported from one traced set-up under a "setup." prefix.
SETUP_METRICS = (
    "chambers.signature.calls", "chambers.signature.self_s",
    "volume.volume_polynomial.builds", "volume.volume_polynomial.hits",
    "volume.volume_polynomial.self_s", "volume.terms_built",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, attr in TRACED:
        key = f"{module}.{attr.split('.')[-1]}"
        if key == "volume.volume_polynomial":
            names += [f"{key}.builds", f"{key}.hits", f"{key}.self_s", "volume.terms_built"]
        elif key == "cli.run":
            names += ["cli.run.calls", "cli.self_s", "cli.stdout_bytes"]
        else:
            names += [f"{key}.calls", f"{key}.self_s"]
        if key == "ratpoly.rank_and_kernel":
            names.append(f"{key}.max_cells")
    names += ["chambers.degenerate_walls", "chambers.lp_fallbacks", "trace.overhead_ratio"]
    return names + [f"setup.{name}" for name in SETUP_METRICS]


def metric_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("max_cells"):
        return "cells"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


class Tracer:
    """Span recorder for one process; ``install`` once, read ``totals``."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.max_cells = 0
        self._stack: list[float] = []  # child time of each open span
        self._in_crossing = 0

    def reset(self) -> None:
        for key in self.calls:
            self.calls[key] = 0
            self.self_s[key] = 0.0
        self.counters.clear()
        self.max_cells = 0

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        calls.setdefault(key, 0)
        self_s.setdefault(key, 0.0)
        before, after = self._hooks(key, fn)

        def traced(*args: Any, **kwargs: Any) -> Any:
            token = before(args) if before else None
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after:
                    after(token, None, exc)
                raise
            finally:
                span = perf_counter() - start
                child = stack.pop()
                calls[key] += 1
                self_s[key] += span - child
                if stack:
                    stack[-1] += span
            if after:
                after(token, result, None)
            return result

        return functools.wraps(fn)(traced)

    def _hooks(self, key: str, fn: Callable[..., Any]):
        """Counters recorded at a boundary: (before(args) -> token, after(token, result, exc))."""
        if key == "volume.volume_polynomial":
            info = fn.cache_info  # the lru_cache of the original function

            def before(args):
                return info().misses

            def after(misses, result, exc):
                if exc is None and info().misses > misses:
                    self.count("volume.volume_polynomial.builds")
                    self.count("volume.terms_built", len(result.v.terms()))
                elif exc is None:
                    self.count("volume.volume_polynomial.hits")

            return before, after
        if key == "chambers.adjacent_representative":
            def before(args):
                self._in_crossing += 1

            def after(token, result, exc):
                self._in_crossing -= 1
                if type(exc).__name__ == "DegenerateWall":
                    self.count("chambers.degenerate_walls")

            return before, after
        if key == "exactlp.maximize":
            def before(args):
                if self._in_crossing:
                    self.count("chambers.lp_fallbacks")

            return before, None
        if key == "ratpoly.rank_and_kernel":
            def before(args):
                rows = args[0]
                self.max_cells = max(self.max_cells, len(rows) * len(rows[0]) if rows else 0)

            return before, None
        return None, None

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if isinstance(m, ModuleType) and (name == "polygonspace" or name.startswith("polygonspace."))
        ]
        for module, attr in TRACED:
            owner = sys.modules[f"polygonspace.{module}"]
            key = f"{module}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(key, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(key, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapped)

    def totals(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round, keyed as ``metric_names`` lists them."""
        out: dict[str, float] = {}
        for key, calls in self.calls.items():
            if key == "volume.volume_polynomial":
                out[f"{key}.self_s"] = self.self_s[key] / rounds
            elif key == "cli.run":
                out["cli.run.calls"] = calls / rounds
                out["cli.self_s"] = self.self_s[key] / rounds
            else:
                out[f"{key}.calls"] = calls / rounds
                out[f"{key}.self_s"] = self.self_s[key] / rounds
        for name in (
            "volume.volume_polynomial.builds", "volume.volume_polynomial.hits",
            "volume.terms_built", "cli.stdout_bytes",
            "chambers.degenerate_walls", "chambers.lp_fallbacks",
        ):
            out[name] = self.counters.get(name, 0) / rounds
        out["ratpoly.rank_and_kernel.max_cells"] = self.max_cells
        return out
