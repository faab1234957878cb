"""Span tracing of the supermolien layers, installed from outside the package.

The tracer wraps every public function of the layer modules, plus the
methods named in METHODS, and rebinds each wrapper at every ``supermolien``
module namespace that binds the original, so calls between modules and
within one module both pass through it. One wrapper per function means a
call is counted once, whichever name it was reached through.

Each call records a span (name, parent, start, end) in flat arrays kept in
memory; self times and per-layer metrics are computed from them after the
traced pass. A few functions also record a work count from their arguments
(``ARG_COUNTERS``) or their result (``RESULT_COUNTERS``); those counts
repeat exactly for the same inputs.

The wrapper's own bookkeeping, counters included, runs outside the span's
clock readings, so its cost lands in the self time of the calling span, or
in the unwrapped remainder for a call made outside any span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYER_MODULES = (
    "superalgebra",
    "shuffle",
    "molien",
    "linalg",
    "series",
    "groups",
    "symfunc",
    "wreath_series",
)
METHODS = (("linalg", "EchelonSelector", "offer"),)


class _IdentityCheck:
    """Whether a graded element is the identity, remembered per element
    object: a group's elements are built once and applied many times."""

    def __init__(self):
        self._seen: dict[int, tuple[object, bool]] = {}

    def __call__(self, g) -> bool:
        hit = self._seen.get(id(g))
        if hit is None or hit[0] is not g:
            hit = (g, all(_is_identity_matrix(m) for m in (g.g0, g.g1)))
            self._seen[id(g)] = hit
        return hit[1]


def _is_identity_matrix(m) -> bool:
    n = m.nrows
    return all(m.entries[k] == (k // n == k % n) for k in range(n * n))


# Work counters: span name -> (counter suffix, f(args) -> int), counted
# before the call, or (counter suffix, f(result) -> int), counted after it.
ARG_COUNTERS = {
    "superalgebra.super_mul": ("term_pairs", lambda a: len(a[0].terms) * len(a[1].terms)),
    "molien.super_molien": ("labels", lambda a: a[0].order),
    "linalg.charpoly_det": ("dim_sum", lambda a: a[0].nrows),
    "linalg.matrix_rank": ("cells", lambda a: a[0].nrows * a[0].ncols),
}
RESULT_COUNTERS = {
    "superalgebra.bidegree_basis": ("monomials", len),
    "shuffle.closure_battery": ("pairs", lambda r: r[0]),
    "shuffle.invariant_basis": ("elements", lambda r: len(r.elements)),
    "linalg.EchelonSelector.offer": ("accepted", bool),
    "groups.build_wreath": ("labels", len),
}


# Per-layer metrics reported by the traced run, as (span name, metric, unit).
# "calls" and "self_s" come from the spans; other metrics are work counts
# recorded by the tracer, or ratios of them.
PER_LAYER = (
    ("superalgebra.apply_wreath", "calls", "count"),
    ("superalgebra.apply_wreath", "self_s", "s"),
    ("superalgebra.apply_graded_element", "calls", "count"),
    ("superalgebra.apply_graded_element", "self_s", "s"),
    ("superalgebra.apply_graded_element", "identity_share", "ratio"),
    ("superalgebra.apply_row_permutation", "calls", "count"),
    ("superalgebra.apply_row_permutation", "self_s", "s"),
    ("superalgebra.super_mul", "calls", "count"),
    ("superalgebra.super_mul", "self_s", "s"),
    ("superalgebra.super_mul", "term_pairs", "count"),
    ("superalgebra.bidegree_basis", "monomials", "count"),
    ("shuffle.shuffle_product", "calls", "count"),
    ("shuffle.shuffle_product", "self_s", "s"),
    ("shuffle.is_wreath_invariant", "calls", "count"),
    ("shuffle.is_wreath_invariant", "self_s", "s"),
    ("shuffle.invariant_basis", "calls", "count"),
    ("shuffle.invariant_basis", "self_s", "s"),
    ("shuffle.invariant_basis", "projections_per_element", "ratio"),
    ("shuffle.closure_battery", "pairs", "count"),
    ("shuffle.degree_one_generation_rank", "self_s", "s"),
    ("molien.reynolds_project", "calls", "count"),
    ("molien.reynolds_project", "self_s", "s"),
    ("molien.invariant_dimension_bruteforce", "calls", "count"),
    ("molien.invariant_dimension_bruteforce", "self_s", "s"),
    ("molien.super_molien", "calls", "count"),
    ("molien.super_molien", "labels", "count"),
    ("molien.super_molien", "self_s", "s"),
    ("linalg.charpoly_det", "calls", "count"),
    ("linalg.charpoly_det", "self_s", "s"),
    ("linalg.charpoly_det", "dim_sum", "count"),
    ("linalg.matrix_rank", "calls", "count"),
    ("linalg.matrix_rank", "self_s", "s"),
    ("linalg.matrix_rank", "cells", "count"),
    ("linalg.EchelonSelector.offer", "calls", "count"),
    ("linalg.EchelonSelector.offer", "self_s", "s"),
    ("linalg.EchelonSelector.offer", "accept_ratio", "ratio"),
    ("series.series_inv", "calls", "count"),
    ("series.series_inv", "self_s", "s"),
    ("series.series_mul", "calls", "count"),
    ("series.series_mul", "self_s", "s"),
    ("series.series_pow_int", "calls", "count"),
    ("series.series_pow_int", "self_s", "s"),
    ("groups.build_wreath", "calls", "count"),
    ("groups.build_wreath", "labels", "count"),
    ("groups.build_wreath", "self_s", "s"),
    ("symfunc.cycle_index", "self_s", "s"),
    ("symfunc.plethystic_substitute", "self_s", "s"),
    ("wreath_series.wreath_hilbert_direct", "self_s", "s"),
    ("wreath_series.wreath_hilbert_plethysm", "self_s", "s"),
    ("wreath_series.collated_product_series", "self_s", "s"),
)
# Ratio metrics: numerator counter, denominator counter or "calls".
# Largest share of the traced pass that may lie outside every span. The
# cases' own code takes under 0.1% of a full pass and under 1% of the small
# passes in the tests, so more than this means layer work ran without a
# span: a call from a case that the tracer did not rebind.
MAX_UNWRAPPED_SHARE = 0.05
RATIOS = {
    "identity_share": ("identity_calls", "calls"),
    "projections_per_element": ("projections", "elements"),
    "accept_ratio": ("accepted", "calls"),
}


def _counter(name: str, table: dict):
    """(count key, count function) of span ``name`` in ``table``, or Nones."""
    if name not in table:
        return None, None
    suffix, count = table[name]
    return f"{name}.{suffix}", count


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: array = array("i")
        self.parents: array = array("i")
        self.starts: array = array("q")
        self.ends: array = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._is_identity = _IdentityCheck()

    # -- installation ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        arg_key, arg_count = _counter(name, ARG_COUNTERS)
        result_key, result_count = _counter(name, RESULT_COUNTERS)
        # Substitutions by the identity, for identity_share, and
        # reynolds_project calls made inside invariant_basis, for
        # projections_per_element.
        counts_identity = name == "superalgebra.apply_graded_element"
        counts_projections = name == "molien.reynolds_project"
        identity_key = f"{name}.identity_calls"
        is_identity = self._is_identity
        stack, open_spans, counts = self._stack, self._open, self.counts
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_count is not None:
                counts[arg_key] += arg_count(args)
            if counts_identity and is_identity(args[0]):
                counts[identity_key] += 1
            if counts_projections and open_spans["shuffle.invariant_basis"]:
                counts["shuffle.invariant_basis.projections"] += 1
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            open_spans[name] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                open_spans[name] -= 1
            if result_count is not None:
                counts[result_key] += result_count(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions and rebind them across the package."""
        modules = {
            mod_name: mod
            for mod_name, mod in sys.modules.items()
            if mod_name == "supermolien" or mod_name.startswith("supermolien.")
        }
        wrappers = {}
        for layer in LAYER_MODULES:
            mod = modules[f"supermolien.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[f"supermolien.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls and self nanoseconds.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because the process is one thread.
        """
        n = len(self.starts)
        child_ns = [0] * n
        for idx in range(n):
            parent = self.parents[idx]
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        out: dict[str, dict] = {}
        for idx in range(n):
            name = self.names[self.name_ids[idx]]
            row = out.setdefault(name, {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += self.ends[idx] - self.starts[idx] - child_ns[idx]
        return out

    def nesting_errors(self) -> int:
        """Spans that end before they start or stick out of their parent."""
        starts, ends, parents = self.starts, self.ends, self.parents
        errors = 0
        for idx in range(len(starts)):
            parent = parents[idx]
            if starts[idx] > ends[idx] or (
                parent >= 0 and not starts[parent] <= starts[idx] <= ends[idx] <= ends[parent]
            ):
                errors += 1
        return errors

    def layer_metrics(self, traced_total_s: float, untraced_total_s: float) -> dict:
        """The PER_LAYER metrics plus trace.overhead_ratio, as reported."""
        agg = self.aggregate()
        metrics = {}
        for span, metric, unit in PER_LAYER:
            row = agg.get(span, {"calls": 0, "self_ns": 0})
            if metric == "calls":
                value = row["calls"]
            elif metric == "self_s":
                value = row["self_ns"] / 1e9
            elif metric in RATIOS:
                num, den = RATIOS[metric]
                numerator = self.counts.get(f"{span}.{num}", 0)
                denominator = row["calls"] if den == "calls" else self.counts.get(f"{span}.{den}", 0)
                value = numerator / denominator if denominator else 0.0
            else:
                value = self.counts.get(f"{span}.{metric}", 0)
            metrics[f"{span}.{metric}"] = {"value": value, "unit": unit}
        metrics["trace.overhead_ratio"] = {
            "value": traced_total_s / untraced_total_s,
            "unit": "ratio",
        }
        return metrics

    def report(self, traced_total_s: float, untraced_total_s: float) -> dict:
        """Top spans by self time, and the consistency check.

        The self times add up to the time covered by root spans, and the
        unwrapped remainder is the rest of the traced pass. The check holds
        when every span nests inside its parent and the remainder stays
        within MAX_UNWRAPPED_SHARE of the pass, so that layer work run
        outside any span makes it fail."""
        agg = self.aggregate()
        total_ns = round(traced_total_s * 1e9)
        self_sum_ns = sum(row["self_ns"] for row in agg.values())
        unwrapped_ns = total_ns - self_sum_ns
        nesting_errors = self.nesting_errors()
        unwrapped_share = unwrapped_ns / total_ns
        top = sorted(agg.items(), key=lambda kv: kv[1]["self_ns"], reverse=True)[:12]
        return {
            "traced_total_s": traced_total_s,
            "untraced_total_s": untraced_total_s,
            "overhead_ratio": traced_total_s / untraced_total_s,
            "spans": len(self.starts),
            "top_self_s": [
                {"span": name, "self_s": row["self_ns"] / 1e9, "calls": row["calls"]}
                for name, row in top
            ],
            "self_sum_s": self_sum_ns / 1e9,
            "unwrapped_s": unwrapped_ns / 1e9,
            "unwrapped_share": unwrapped_share,
            "nesting_errors": nesting_errors,
            "consistent": nesting_errors == 0 and 0 <= unwrapped_share <= MAX_UNWRAPPED_SHARE,
            "layers": {
                name: {"calls": row["calls"], "self_s": row["self_ns"] / 1e9}
                for name, row in sorted(agg.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }

    def spans_json(self) -> dict:
        """Compact column form of every span, for writing out after the run."""
        return {
            "names": self.names,
            "columns": ["name_id", "parent", "start_ns", "end_ns"],
            "name_id": self.name_ids.tolist(),
            "parent": self.parents.tolist(),
            "start_ns": self.starts.tolist(),
            "end_ns": self.ends.tolist(),
        }
