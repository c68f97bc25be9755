"""In-process tracing of qmtop through timing wrappers, and the per-layer
metrics computed from the spans.

`Tracer.install` replaces each public function named in `WRAPPED` with a
wrapper that records a span (name, start, end, parent).  `from ... import`
copies names, so every attribute of every loaded qmtop module that holds
the original function is replaced, and `uninstall` puts them all back.
Spans stay in memory until `write`.  Generator functions get one span per
resumption, so their self time counts only the work done inside them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, function) -> what the wrapper counts besides calls, as
# f(args, result) -> {counter: amount}.
WRAPPED = {
    ("core", "parse_document"): lambda a, r: {"parse_bytes": len(a[0])},
    ("core", "serialize"): lambda a, r: {"serialize_bytes": len(r)},
    # The kernels scan 2^(n(n-1)) relations and 2^(2^n) families.
    ("_kernels", "preorder_rows"):
        lambda a, r: {"kernel.candidates": 1 << a[0] * (a[0] - 1), "kernel.accepted": len(r)},
    ("_kernels", "closed_family_masks"):
        lambda a, r: {"kernel.candidates": 1 << (1 << a[0]), "kernel.accepted": len(r)},
    ("topology", "enumerate_topologies"): None,
    ("topology", "enumerate_preorders"): None,
    ("topology", "alexandrov_topology"): None,
    ("topology", "generate_from_subbase"): None,
    ("topology", "check_topology"): None,
    ("topology", "is_t0"): None,
    ("topology", "is_t1"): None,
    ("topology", "is_t2"): None,
    ("qmetric", "to_topology"): None,
    ("qmetric", "check_quasifamily"): None,
    ("qmetric", "sep_metric"): None,
    ("qmetric", "right_converges"): None,
    ("qmetric", "left_converges"): None,
    ("qmetric", "is_right_cauchy"): None,
    ("qmetric", "product_converges"): None,
    ("qmetric", "stat_converges"): None,
    ("representation", "canonical_family"): None,
    ("representation", "roundtrip"): None,
    ("representation", "discrepancy_pairs"): None,
    ("representation", "find_discrepancy"): None,
    ("representation", "_family_candidates"): None,
    ("continuity", "check_value_semigroup"): None,
    ("continuity", "check_positives"): None,
    ("_tails", "tail_types"): None,
    ("_tails", "evaluate_range"): lambda a, r: {"scan_positions": a[1]},
    ("_tails", "assert_tail_consistent"): None,
    ("cli", "main"): None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer._resume(fn(*args, **kwargs), name)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                index = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                if counter is not None:
                    for key, amount in counter(args, result).items():
                        tracer.counts[key] += amount
                return result
        wrapper.__perfbench_original__ = fn
        return wrapper

    def _resume(self, gen, name: str):
        while True:
            index = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(index)
            self.counts[name + ".yields"] += 1
            yield item

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: sys.modules[name] for name in list(sys.modules)
                   if name == "qmtop" or name.startswith("qmtop.")}
        for (module, attr), counter in WRAPPED.items():
            original = getattr(modules[f"qmtop.{module}"], attr)
            wrapper = self.wrap(original, f"{module}.{attr}", counter)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time per span name.

        Inclusive time counts only the outermost span of each name, so
        recursion through the same function is not counted twice; self time
        is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        return inclusive, own

    def group_time(self, names: set[str]) -> float:
        """Time inside any of the named functions, counting nested ones once."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def metrics(self) -> dict[str, float]:
        inc, own = self.layer_times()
        calls, counts = self.calls, self.counts
        candidates = counts["kernel.candidates"]
        return {
            "cli.self_s": own["cli.main"],
            "core.parse_s": own["core.parse_document"],
            "core.parse_calls": calls["core.parse_document"],
            "core.parse_bytes": counts["parse_bytes"],
            "core.serialize_s": inc["core.serialize"],
            "core.serialize_calls": calls["core.serialize"],
            "core.serialize_bytes": counts["serialize_bytes"],
            "_kernels.enum_s": inc["_kernels.preorder_rows"] + inc["_kernels.closed_family_masks"],
            "_kernels.candidates": candidates,
            "_kernels.accept_ratio": counts["kernel.accepted"] / candidates if candidates else 0.0,
            "topology.enumerate_self_s": own["topology.enumerate_topologies"]
            + own["topology.enumerate_preorders"],
            "topology.alexandrov_s": inc["topology.alexandrov_topology"],
            "topology.alexandrov_calls": calls["topology.alexandrov_topology"],
            "topology.closure_s": inc["topology.generate_from_subbase"],
            "topology.closure_calls": calls["topology.generate_from_subbase"],
            "topology.check_s": inc["topology.check_topology"],
            "topology.check_calls": calls["topology.check_topology"],
            "topology.separation_s": self.group_time(
                {"topology.is_t0", "topology.is_t1", "topology.is_t2"}),
            "qmetric.to_topology_self_s": own["qmetric.to_topology"],
            "qmetric.to_topology_calls": calls["qmetric.to_topology"],
            "qmetric.check_s": inc["qmetric.check_quasifamily"],
            "qmetric.sep_s": inc["qmetric.sep_metric"],
            "qmetric.converge_s": self.group_time(
                {"qmetric.right_converges", "qmetric.left_converges",
                 "qmetric.is_right_cauchy", "qmetric.product_converges"}),
            "qmetric.stat_s": inc["qmetric.stat_converges"],
            "representation.candidates": counts["representation._family_candidates.yields"],
            "representation.pairs_self_s": own["representation.discrepancy_pairs"],
            "representation.search_self_s": own["representation.find_discrepancy"],
            "representation.roundtrip_self_s": own["representation.roundtrip"],
            "representation.canonical_s": inc["representation.canonical_family"],
            "continuity.check_s": self.group_time(
                {"continuity.check_value_semigroup", "continuity.check_positives"}),
            "continuity.check_calls": calls["continuity.check_value_semigroup"]
            + calls["continuity.check_positives"],
            "_tails.tail_types_s": inc["_tails.tail_types"],
            "_tails.scan_s": self.group_time(
                {"_tails.evaluate_range", "_tails.assert_tail_consistent"}),
            "_tails.scan_positions": counts["scan_positions"],
            "trace.spans": len(self.spans),
        }
