"""Spans and work counters around the public layer entry points of stanley_lab.

The tracer wraps functions from outside the library: it rebinds every module
attribute that holds a wrapped function (``from .x import f`` copies the
binding, so ``sdepth.search_partition`` and ``constructions.search_partition``
are two attributes of one function) and wraps ``MonomialIdeal.__pow__`` at the
class.  ``restore`` puts every original binding back.

Spans are kept in memory as (name, start, end, parent) and written out when
the run ends.  A layer's self time is its span time minus the time of its
child spans.

Only layer entry points are wrapped.  Tiny helpers such as ``divides`` run
millions of times per pass; wrapping them would make the traced run measure
the tracer.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "stanley_lab"

# Span name for each wrapped function, by defining module and attribute.
# The four public certificate generators share one layer name.
TARGETS = {
    ("monomials", "members_in_box"): "monomials.members_in_box",
    ("graphs", "enumerate_trees"): "graphs.enumerate_trees",
    ("graphs", "enumerate_labeled_graphs"): "graphs.enumerate_labeled_graphs",
    ("stanley", "verify"): "stanley.verify",
    ("sdepth", "build_poset"): "sdepth.build_poset",
    ("sdepth", "search_partition"): "sdepth.search_partition",
    ("sdepth", "sdepth_exact"): "sdepth.sdepth_exact",
    ("depth", "homology_profile"): "depth.homology_profile",
    ("depth", "rank_int"): "depth.rank_int",
    ("bounds", "module_for"): "bounds.module_for",
    ("bounds", "stanley_verdict"): "bounds.stanley_verdict",
    ("constructions", "decompose_layer"): "constructions.decompose",
    ("constructions", "decompose_s_mod_power"): "constructions.decompose",
    ("constructions", "decompose_power_tree"): "constructions.decompose",
    ("constructions", "decompose_power_general"): "constructions.decompose",
    ("sweeps", "run_sweep"): "sweeps.run_sweep",
}
POW_NAME = "monomials.pow"

# Work counters of each layer, with the direction in which each is better.
LAYER_COUNTERS = {
    "sdepth.search_partition": {"nodes": "lower", "found": "higher", "none": "higher", "exceeded": "lower"},
    "sdepth.build_poset": {"elements": "lower"},
    "sdepth.sdepth_exact": {"exact": "higher"},
    "depth.homology_profile": {"box_points": "lower"},
    "depth.rank_int": {"entries": "lower", "max_entries": "lower"},
    "stanley.verify": {"spaces": "lower", "invalid": "lower"},
    "constructions.decompose": {"oracle_calls": "lower", "reverifications": "lower"},
    "graphs.enumerate_trees": {},
    "graphs.enumerate_labeled_graphs": {},
    "monomials.members_in_box": {"points": "lower"},
    "monomials.pow": {},
    "bounds.stanley_verdict": {"oracle_fallbacks": "lower"},
    "bounds.module_for": {},
    "sweeps.run_sweep": {},
}

# Every per-layer metric: name -> (unit, better).
LAYER_METRICS = {
    metric: spec
    for layer, counters in LAYER_COUNTERS.items()
    for metric, spec in [
        (f"{layer}.calls", ("count", "lower")),
        (f"{layer}.self_s", ("s", "lower")),
        *((f"{layer}.{name}", ("count", better)) for name, better in counters.items()),
    ]
}
LAYER_METRICS["trace.wall_s"] = ("s", "lower")
LAYER_METRICS["trace.overhead_s"] = ("s", "lower")


def _box_volume(corner) -> int:
    return math.prod(c + 1 for c in corner)


class Tracer:
    """Records spans and counters while installed; restores bindings on exit."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        depth_mod = modules[f"{PACKAGE}.depth"]
        counters = {
            "monomials.members_in_box": self._count_members,
            "stanley.verify": self._count_verify,
            "sdepth.build_poset": self._count_poset,
            "sdepth.search_partition": self._count_search,
            "sdepth.sdepth_exact": self._count_sdepth,
            "depth.homology_profile": self._make_count_profile(depth_mod.scan_corner),
            "depth.rank_int": self._count_rank,
            "bounds.stanley_verdict": self._count_verdict,
        }
        for (mod_name, attr), span_name in TARGETS.items():
            original = getattr(modules[f"{PACKAGE}.{mod_name}"], attr)
            wrapped = self._wrap(span_name, original, counters.get(span_name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapped)
        ideal_cls = modules[f"{PACKAGE}.monomials"].MonomialIdeal
        original_pow = ideal_cls.__dict__["__pow__"]
        self._saved.append((ideal_cls, "__pow__", original_pow))
        ideal_cls.__pow__ = self._wrap(POW_NAME, original_pow, None)

    def restore(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = f"{name}.calls"

        if inspect.isgeneratorfunction(fn):
            # A generator runs in slices, each inside its consumer: one span per
            # resumption keeps the nesting, and one call per generator made.
            def generator_wrapper(*args, **kwargs):
                counts[calls_key] += 1
                inner = fn(*args, **kwargs)
                while True:
                    index = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(index)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        spans[index] = (name, start, perf_counter(), parent)
                        stack.pop()
                    yield item

            generator_wrapper.__wrapped__ = fn
            return generator_wrapper

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            counts[calls_key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters (run after the span closes, from arguments and results) ---

    def _count_members(self, args, kwargs, result) -> None:
        corner = args[1] if len(args) > 1 else kwargs["corner"]
        self.counts["monomials.members_in_box.points"] += _box_volume(corner)

    def _count_verify(self, args, kwargs, result) -> None:
        dec = args[0] if args else kwargs["dec"]
        self.counts["stanley.verify.spaces"] += len(dec.spaces)
        self.counts["stanley.verify.invalid"] += not result.valid

    def _count_poset(self, args, kwargs, result) -> None:
        self.counts["sdepth.build_poset.elements"] += len(result.elements)

    def _count_search(self, args, kwargs, result) -> None:
        self.counts["sdepth.search_partition.nodes"] += result.nodes
        self.counts[f"sdepth.search_partition.{result.status}"] += 1

    def _count_sdepth(self, args, kwargs, result) -> None:
        self.counts["sdepth.sdepth_exact.exact"] += bool(result.exact)

    def _make_count_profile(self, scan_corner):
        def count(args, kwargs, result) -> None:
            module = args[0] if args else kwargs["module"]
            self.counts["depth.homology_profile.box_points"] += _box_volume(
                scan_corner(module)
            )

        return count

    def _count_rank(self, args, kwargs, result) -> None:
        rows = args[0] if args else kwargs["rows"]
        entries = len(rows) * (len(rows[0]) if rows else 0)
        self.counts["depth.rank_int.entries"] += entries
        key = "depth.rank_int.max_entries"
        self.counts[key] = max(self.counts[key], entries)

    def _count_verdict(self, args, kwargs, result) -> None:
        self.counts["bounds.stanley_verdict.oracle_fallbacks"] += "sdepth" in result.oracle

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Calls, self time and counters per layer, summed over all spans.

        ``oracle_calls`` and ``reverifications`` are the searches and the
        verifier calls made inside a certificate generator's span.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_decompose = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_decompose[i] = in_decompose[parent] or (
                    spans[parent][0] == "constructions.decompose"
                )
        totals: dict[str, float] = {name: 0 for name in LAYER_METRICS}
        for key, value in self.counts.items():
            totals[key] = value
        for i, (name, start, end, _) in enumerate(spans):
            totals[f"{name}.self_s"] += end - start - child_time[i]
            if in_decompose[i]:
                if name == "sdepth.search_partition":
                    totals["constructions.decompose.oracle_calls"] += 1
                elif name == "stanley.verify":
                    totals["constructions.decompose.reverifications"] += 1
        return totals

    def write_spans(self, path) -> None:
        """Write every span as [name, start, end, parent] JSON, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
