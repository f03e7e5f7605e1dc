"""In-memory span tracer wrapped around kitespec's module boundaries.

The tracer replaces the names one kitespec module imports from another
(``das.enumerate_graphs``, ``bounds.charpoly``, ``cli.parse_graph_spec``, ...),
the ``IntPolynomial`` arithmetic methods, and the module functions the CLI and
the benchmark call by attribute.  Each call becomes a span
``[name, parent, start, end]``; a generator gets one span per ``next``.
Nothing inside kitespec changes, and ``uninstall`` restores every original.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from time import perf_counter

# (module, attribute, span name); the span name's first part is the layer.
BINDINGS = [
    ("das", "charpoly", "charpoly.charpoly"),
    ("das", "kite_charpoly", "charpoly.kite_charpoly"),
    ("das", "walk_count", "charpoly.walk_count"),
    ("das", "triangle_count", "graph.triangle_count"),
    ("das", "encode_graph6", "graph.encode_graph6"),
    ("das", "make_kite", "graph.make_kite"),
    ("das", "canonical_form", "enumeration.canonical_form"),
    ("das", "verify_theorem31", "das.verify_theorem31"),
    ("das", "verify_theorem42", "das.verify_theorem42"),
    ("das", "find_cospectral_mates", "das.find_cospectral_mates"),
    ("enumeration", "cache_store", "enumeration.cache_store"),
    ("enumeration", "cache_load", "enumeration.cache_load"),
    ("enumeration", "canonical_form", "enumeration.canonical_form"),
    ("enumeration", "enumerate_cached", "enumeration.enumerate_cached"),
    ("enumeration", "encode_graph6", "graph.encode_graph6"),
    ("enumeration", "decode_graph6", "graph.decode_graph6"),
    ("enumeration", "triangle_count", "graph.triangle_count"),
    ("enumeration", "is_connected", "graph.is_connected"),
    ("graph", "encode_graph6", "graph.encode_graph6"),
    ("graph", "decode_graph6", "graph.decode_graph6"),
    ("charpoly", "charpoly", "charpoly.charpoly"),
    ("bounds", "charpoly", "charpoly.charpoly"),
    ("bounds", "eigenvalues", "bounds.eigenvalues"),
    ("bounds", "spectral_radius", "bounds.spectral_radius"),
    ("bounds", "kite_radius_bounds", "bounds.kite_radius_bounds"),
    ("bounds", "kite_clique_bound", "bounds.kite_clique_bound"),
    ("bounds", "verify_lemma41_inequality", "bounds.verify_lemma41_inequality"),
    ("cli", "main", "cli.main"),
    ("cli", "charpoly", "charpoly.charpoly"),
    ("cli", "are_cospectral", "charpoly.are_cospectral"),
    ("cli", "clique_number", "graph.clique_number"),
    ("cli", "encode_graph6", "graph.encode_graph6"),
    ("cli", "is_connected", "graph.is_connected"),
    ("cli", "make_kite", "graph.make_kite"),
    ("cli", "parse_graph_spec", "graph.parse_graph_spec"),
    ("cli", "triangle_count", "graph.triangle_count"),
    ("cli", "cache_store", "enumeration.cache_store"),
]
GENERATORS = [
    ("das", "enumerate_graphs"),
    ("enumeration", "enumerate_graphs"),
    ("cli", "enumerate_graphs"),
]
POLY_METHODS = [
    ("__add__", "add"), ("__sub__", "sub"), ("__neg__", "neg"),
    ("__mul__", "mul"), ("__rmul__", "mul"), ("shift", "shift"),
    ("pow", "pow"), ("__pow__", "pow"), ("__call__", "eval"),
    ("derivative", "derivative"),
]
LAYERS = ("graph", "polynomial", "charpoly", "bounds", "enumeration", "das", "cli")
GEN_SPAN = "enumeration.enumerate_graphs"


class Tracer:
    """Wraps kitespec's boundaries while installed and keeps every span.

    ``chain=K`` makes the ``das`` module's unpartitioned enumeration walk the
    public partitions ``(0, K) .. (K-1, K)`` one after the other, so a
    single-process search reports the time each partition takes.
    """

    def __init__(self, ks, chain: int = 0):
        self.ks = ks
        self.chain = chain
        self.spans: list[list] = []
        self.partition_s: list[float] = []
        self.yields = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _call(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return traced

    def _generator(self, fn, chain: int):
        spans, stack = self.spans, self._stack
        done = object()

        def traced(constraints, partition=None):
            parts = [(k, chain) for k in range(chain)] if chain and partition is None else [partition]
            for part in parts:
                it = fn(constraints, part)
                first = None
                while True:
                    rec = [GEN_SPAN, stack[-1] if stack else -1, 0.0, 0.0]
                    stack.append(len(spans))
                    spans.append(rec)
                    rec[2] = perf_counter()
                    first = first or rec[2]
                    try:
                        item = next(it, done)
                    finally:
                        rec[3] = perf_counter()
                        stack.pop()
                    if item is done:
                        break
                    self.yields += 1
                    yield item
                if chain and partition is None:
                    self.partition_s.append(rec[3] - first)

        return traced

    def _patch(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        ks = self.ks
        for module, attr, name in BINDINGS:
            owner = getattr(ks, module)
            self._patch(owner, attr, self._call(name, getattr(owner, attr)))
        for module, attr in GENERATORS:
            owner = getattr(ks, module)
            chain = self.chain if module == "das" else 0
            self._patch(owner, attr, self._generator(getattr(owner, attr), chain))
        poly = ks.polynomial.IntPolynomial
        for attr, short in POLY_METHODS:
            self._patch(poly, attr, self._call(f"polynomial.{short}", getattr(poly, attr)))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with path.open("w") as out:
            for name, parent, t0, t1 in self.spans:
                out.write(json.dumps([name, parent, round(t0 - origin, 9), round(t1 - origin, 9)]))
                out.write("\n")


class SpanStats:
    """Inclusive and self time per span name and per layer."""

    def __init__(self, spans: list[list]):
        child = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        for k, (name, parent, t0, t1) in enumerate(spans):
            dur = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.durations.setdefault(name, []).append(dur)
            self.layer_self[name.split(".", 1)[0]] += dur - child[k]

    def s(self, *names: str) -> float:
        return sum(self.total.get(name, 0.0) for name in names)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)


# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = {
    "enumeration.gen_s": "s",
    "enumeration.classes_per_s": "1/s",
    "enumeration.canonical_form_us.p50": "us",
    "enumeration.canonical_form_us.p99": "us",
    "enumeration.partition_s.max_over_mean": "ratio",
    "das.parallel_efficiency": "ratio",
    "enumeration.cache_store_s": "s",
    "enumeration.cache_load_s": "s",
    "enumeration.cache_bytes": "bytes",
    "das.classes_scanned": "count",
    "das.prefilter_survivors": "count",
    "das.survivor_ratio": "ratio",
    "graph.triangle_count.calls": "count",
    "graph.triangle_count.s": "s",
    "graph.parse_graph_spec.s": "s",
    "graph.graph6.s": "s",
    "graph.clique_number.s": "s",
    "charpoly.calls": "count",
    "charpoly.us_per_call": "us",
    "charpoly.kite_charpoly.s": "s",
    "polynomial.mul.calls": "count",
    "polynomial.mul.s": "s",
    "bounds.spectral_radius.calls": "count",
    "bounds.spectral_radius.s": "s",
    "bounds.eigenvalues.s": "s",
    "bounds.lemma41.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace_overhead_pct": "%",
}


def percentile(values: list[float], k: int) -> float:
    """The k-th percentile (inclusive method); 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def layer_metrics(tracer: Tracer, *, overhead_pct: float, report=None,
                  verdict_s: float = 0.0, workers: int = 0, cache_bytes: int = 0) -> dict:
    """Every PER_LAYER metric from one traced run.  ``report`` is the
    traced search's SearchReport; a layer the workload bypasses reads 0."""
    st = SpanStats(tracer.spans)
    gen_s = st.s(GEN_SPAN)
    canon_us = [d * 1e6 for d in st.durations.get("enumeration.canonical_form", [])]
    parts = tracer.partition_s
    scanned = report.classes_scanned if report else 0
    survivors = report.prefilter_survivors if report else 0
    charpoly_calls = st.n("charpoly.charpoly")
    values = {
        "enumeration.gen_s": gen_s,
        "enumeration.classes_per_s": tracer.yields / gen_s if gen_s else 0.0,
        "enumeration.canonical_form_us.p50": percentile(canon_us, 50),
        "enumeration.canonical_form_us.p99": percentile(canon_us, 99),
        "enumeration.partition_s.max_over_mean": max(parts) * len(parts) / sum(parts) if parts else 0.0,
        "das.parallel_efficiency": sum(parts) / (workers * verdict_s) if parts and verdict_s else 0.0,
        "enumeration.cache_store_s": st.s("enumeration.cache_store"),
        "enumeration.cache_load_s": st.s("enumeration.cache_load"),
        "enumeration.cache_bytes": cache_bytes,
        "das.classes_scanned": scanned,
        "das.prefilter_survivors": survivors,
        "das.survivor_ratio": survivors / scanned if scanned else 0.0,
        "graph.triangle_count.calls": st.n("graph.triangle_count"),
        "graph.triangle_count.s": st.s("graph.triangle_count"),
        "graph.parse_graph_spec.s": st.s("graph.parse_graph_spec"),
        "graph.graph6.s": st.s("graph.encode_graph6", "graph.decode_graph6"),
        "graph.clique_number.s": st.s("graph.clique_number"),
        "charpoly.calls": charpoly_calls,
        "charpoly.us_per_call": st.s("charpoly.charpoly") * 1e6 / charpoly_calls if charpoly_calls else 0.0,
        "charpoly.kite_charpoly.s": st.s("charpoly.kite_charpoly"),
        "polynomial.mul.calls": st.n("polynomial.mul"),
        "polynomial.mul.s": st.s("polynomial.mul"),
        "bounds.spectral_radius.calls": st.n("bounds.spectral_radius"),
        "bounds.spectral_radius.s": st.s("bounds.spectral_radius"),
        "bounds.eigenvalues.s": st.s("bounds.eigenvalues"),
        "bounds.lemma41.s": st.s("bounds.verify_lemma41_inequality"),
        **{f"{layer}.self_s": st.layer_self[layer] for layer in LAYERS},
        "trace_overhead_pct": overhead_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
