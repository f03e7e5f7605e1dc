"""The three workloads: inputs from a seed, one timed iteration, and the
check of each output against references that do not go through the code
under test.

Each workload object holds its generated inputs.  ``iteration`` returns the
latency of every request it made plus its outputs; ``verify`` runs once
the timing and the memory reading are done and returns
``(attempted, failed)``.  ``tail_q`` is the fixed quantile that
``latency_tail_ms`` reports, or None for the median.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import statistics
from collections import Counter
from math import comb
from pathlib import Path
from time import perf_counter

import reference as ref
from spans import Tracer, layer_metrics

DAS_VERDICT = "DAS-confirmed-at-scale"
# Classes of the search space that share the kite's triangle count, as the
# seed commit's prefilter reports them (no independent count is at hand).
DAS_SURVIVORS = {5: 5, 7: 3}
OVERHEAD_PAIRS = 3


def _overhead_pct(ks, run_slice) -> float:
    """Median over pairs of back-to-back untraced and traced runs of the same
    slice (order alternating) of traced / untraced wall time, as a percent
    above 1; pairing keeps slow spells of a shared machine out of the ratio."""
    ratios = []
    for k in range(OVERHEAD_PAIRS):
        walls = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            tracer = Tracer(ks).install() if traced else None
            t0 = perf_counter()
            run_slice()
            walls[traced] = perf_counter() - t0
            if tracer:
                tracer.uninstall()
        ratios.append(walls[True] / walls[False])
    return 100.0 * (statistics.median(ratios) - 1.0)


class DasSearch:
    """``verify_theorem42(p, workers=2)``: every graph on p + 2 vertices with
    (p^2 - p + 4) / 2 edges, split over two worker processes."""

    name = "das-p7-w2"
    workers = 2
    # two searches a run (about twice run_seconds), so one slow spell of
    # the shared cores weighs less
    min_requests = 2
    tail_q = None

    def __init__(self, tiny: bool, plant_wrong: bool, workdir: Path):
        self.p = 5 if tiny else 7
        self.survivors = DAS_SURVIVORS[self.p] + (1 if plant_wrong else 0)

    def make_inputs(self, ks, rng) -> None:
        target = ks.graph.make_kite(p=self.p, q=2)
        self.n, self.m = target.n, target.edge_count()

    def describe(self) -> dict:
        return {"p": self.p, "q": 2, "n": self.n, "m": self.m, "workers": self.workers}

    def iteration(self, ks, index: int):
        t0 = perf_counter()
        report = ks.das.verify_theorem42(self.p, workers=self.workers)
        return [perf_counter() - t0], [report]

    def verify(self, ks, reports) -> tuple[int, int]:
        classes = ref.graph_counts_by_edges(self.n)[self.m]
        failed = 0
        for r in reports:
            ok = (
                r.verdict == DAS_VERDICT
                and r.mates == []
                and (r.n, r.m, r.t) == (self.n, self.m, comb(self.p, 3))
                and r.classes_scanned == classes
                and r.prefilter_survivors == self.survivors
            )
            failed += not ok
        return len(reports), failed

    def traced(self, ks, seed: int, out_dir: Path) -> tuple[dict, int, int]:
        """Untraced 2-worker verdict, the traced search in one process with
        the two public partitions walked in turn, and the tracing cost
        measured on the next smaller order."""
        lat, reports = self.iteration(ks, 0)
        overhead = _overhead_pct(ks, lambda: ks.das.verify_theorem42(self.p - 1, workers=1))
        tracer = Tracer(ks, chain=self.workers)
        with tracer:
            report = ks.das.verify_theorem42(self.p, workers=1)
        tracer.write(out_dir / f"{self.name}-seed{seed}.jsonl")
        attempted, failed = self.verify(ks, reports + [report])
        metrics = layer_metrics(tracer, overhead_pct=overhead, report=report,
                                verdict_s=lat[0], workers=self.workers)
        return metrics, attempted, failed


class Census:
    """``enumerate_cached(EnumConstraints(8))`` twice in a fresh cache
    directory (a miss that stores, then a hit that loads), then
    ``canonical_form`` of every class."""

    name = "census-n8"
    min_requests = 1
    tail_q = None

    def __init__(self, tiny: bool, plant_wrong: bool, workdir: Path):
        self.n = 6 if tiny else 8
        self.extra = 1 if plant_wrong else 0
        self.workdir = workdir

    def make_inputs(self, ks, rng) -> None:
        self.constraints = ks.enumeration.EnumConstraints(self.n)

    def describe(self) -> dict:
        return {"n": self.n, "passes": ["cold", "warm", "canonical_form"]}

    def _cycle(self, ks, constraints, cache: Path):
        enum = ks.enumeration
        t0 = perf_counter()
        cold = enum.enumerate_cached(constraints, cache)
        t1 = perf_counter()
        warm = enum.enumerate_cached(constraints, cache)
        t2 = perf_counter()
        keys = [enum.canonical_form(g) for g in cold]
        t3 = perf_counter()
        return t3 - t0, (cold, warm, keys, t1 - t0, t2 - t1, t3 - t2)

    def iteration(self, ks, index: int):
        cache = self.workdir / f"census-{index}"
        try:
            wall, out = self._cycle(ks, self.constraints, cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        cold_s, warm_s, sweep_s = out[3:]
        print(f"census pass: cold {cold_s:.4f} s, warm {warm_s:.4f} s, canonical_form {sweep_s:.4f} s")
        return [wall], [_summary(*out[:3])]

    def verify(self, ks, summaries) -> tuple[int, int]:
        expected = sum(ref.graph_counts_by_edges(self.n)) + self.extra
        failed = 0
        for classes, orders, distinct_keys, warm_equals_cold in summaries:
            ok = (
                classes == expected
                and orders == {self.n}
                and distinct_keys == classes
                and warm_equals_cold
            )
            failed += not ok
        return len(summaries), failed

    def traced(self, ks, seed: int, out_dir: Path) -> tuple[dict, int, int]:
        small = ks.enumeration.EnumConstraints(self.n - 1)
        slices = itertools.count()

        def run_slice():
            cache = self.workdir / f"slice-{next(slices)}"
            self._cycle(ks, small, cache)
            shutil.rmtree(cache, ignore_errors=True)

        overhead = _overhead_pct(ks, run_slice)
        cache = self.workdir / "traced"
        tracer = Tracer(ks)
        with tracer:
            _, out = self._cycle(ks, self.constraints, cache)
        cache_bytes = sum(f.stat().st_size for f in cache.rglob("*") if f.is_file())
        shutil.rmtree(cache, ignore_errors=True)
        tracer.write(out_dir / f"{self.name}-seed{seed}.jsonl")
        attempted, failed = self.verify(ks, [_summary(*out[:3])])
        metrics = layer_metrics(tracer, overhead_pct=overhead, cache_bytes=cache_bytes)
        return metrics, attempted, failed


def _summary(cold, warm, keys) -> tuple[int, set[int], int, bool]:
    """What the census check needs, so a run need not keep every pass's
    graphs: class count, orders seen, distinct canonical keys, and whether
    the warm stream equals the cold one graph for graph (same order, same
    adjacency rows)."""
    return (
        len(cold),
        {g.n for g in cold},
        len(set(keys)),
        [(g.n, g.rows) for g in warm] == [(g.n, g.rows) for g in cold],
    )


# -- cli-mix -------------------------------------------------------------------

# Queries of each kind in every block.  No record of real use exists, so the
# mix is an assumption: the seven commands the workload covers and the
# malformed specs get equal shares.  "malformed" sends a bad spec to
# charpoly, spectrum or invariants and must exit with code 1.
KINDS = ("charpoly", "spectrum", "cospectral", "invariants", "bounds",
         "kite-census", "lemma41-check", "malformed")
PER_KIND = 12
FAMILIES = {"kite": 35, "gnp": 35, "path": 10, "cycle": 10, "complete": 10}
GNP_PER_ORDER = 8
BLOCKS = 20
TRACED_BLOCKS = 2


class CliMix:
    """A closed loop with one client: seeded in-process calls of
    ``kitespec.cli.main([... "--format", "json" ...])``, stdout captured."""

    name = "cli-mix"
    tail_q = 0.99

    def __init__(self, tiny: bool, plant_wrong: bool, workdir: Path):
        self.orders = range(6, 11) if tiny else range(10, 23)
        self.census_n = 12 if tiny else 30
        self.lemma_p = 12 if tiny else 50
        self.blocks_wanted = 1 if tiny else BLOCKS
        self.min_requests = 0 if tiny else 1000
        self.malformed_rc = 0 if plant_wrong else 1
        self.refs: dict = {}

    # inputs

    def make_inputs(self, ks, rng: random.Random) -> None:
        self.rng = rng
        self.bases = {("gnp", n, k): (n, ref.gnp_edges(rng, n))
                      for n in self.orders for k in range(GNP_PER_ORDER)}
        kinds = [kind for kind in KINDS for _ in range(PER_KIND)]
        self.blocks = []
        for _ in range(self.blocks_wanted):
            rng.shuffle(kinds)
            self.blocks.append([self._query(kind) for kind in kinds])

    def _graph(self, n: int | None = None):
        """(spec, key, n) of a graph from the family mix."""
        rng = self.rng
        family = rng.choices(list(FAMILIES), weights=list(FAMILIES.values()))[0]
        n = n or rng.choice(self.orders)
        if family == "kite":
            p = rng.randrange(3, n)
            return f"kite:{p},{n - p}", ("kite", p, n - p), n
        if family in ("path", "complete"):
            return f"{family}:{n}", (family, n), n
        key = ("cycle", n) if family == "cycle" else ("gnp", n, rng.randrange(GNP_PER_ORDER))
        return self._g6(key), key, n

    def _base(self, key):
        if key not in self.bases:
            family, *args = key
            make_edges = {"kite": ref.kite_edges, "path": ref.path_edges,
                       "cycle": ref.cycle_edges, "complete": ref.complete_edges}[family]
            self.bases[key] = (sum(args) if family == "kite" else args[0], make_edges(*args))
        return self.bases[key]

    def _g6(self, key) -> str:
        """A freshly relabelled graph6 spec of a base graph."""
        n, edges = self._base(key)
        perm = list(range(n))
        self.rng.shuffle(perm)
        return "g6:" + ref.graph6(n, ref.relabel(edges, perm))

    def _query(self, kind: str):
        """(argv, check, n) for one query; ``check`` is what verify needs."""
        rng = self.rng
        head = ["--format", "json"]
        if kind in ("charpoly", "spectrum", "invariants"):
            spec, key, n = self._graph()
            return head + [kind, spec], (kind, key), n
        if kind == "cospectral":
            n = rng.choice(self.orders)
            roll = rng.random()
            if roll < 0.4:
                key = ("gnp", n, rng.randrange(GNP_PER_ORDER))
                a, b, same = self._g6(key), self._g6(key), True
            elif roll < 0.6:
                # H + K_{1,4} against H + (C_4 + K_1): cospectral, not isomorphic
                h = ref.gnp_edges(rng, n - 5)
                star = [(n - 5, n - 5 + k) for k in range(1, 5)]
                c4 = [(n - 4 + k, n - 4 + (k + 1) % 4) for k in range(4)]
                a = "g6:" + ref.graph6(n, h + star)
                b = "g6:" + ref.graph6(n, h + c4)
                same = True
            else:
                a, key_a, _ = self._graph(n)
                b, key_b, _ = self._graph(n)
                same = (key_a, key_b)
            return head + ["cospectral", a, b], ("cospectral", same), n
        if kind == "bounds":
            n = rng.choice(self.orders)
            p = rng.randrange(3, n)
            return head + ["bounds", "--p", str(p), "--q", str(n - p)], ("bounds", p, n - p), n
        if kind == "kite-census":
            return head + ["kite-census", "--max-n", str(self.census_n)], (kind,), self.census_n
        if kind == "lemma41-check":
            return head + ["lemma41-check", "--max-p", str(self.lemma_p)], (kind,), self.lemma_p
        command = rng.choice(["charpoly", "spectrum", "invariants"])
        bad = rng.randrange(3)
        if bad == 0:
            spec = self._g6(("gnp", rng.choice(self.orders), 0))
            spec = spec[:-1] if rng.random() < 0.5 else spec[:-1] + " "
            n = ord(spec[3]) - 63
        elif bad == 1:
            n = 25
            spec = rng.choice(["path:25", "complete:25", "kite:20,5",
                               "g6:" + chr(25 + 63) + "?" * 50])
        else:
            n = rng.choice(self.orders)
            spec = f"{rng.choice(['cycle', 'star', 'wheel'])}:{n}"
        return head + [command, spec], ("malformed",), n

    def describe(self) -> dict:
        queries = [q for block in self.blocks for q in block]
        commands = Counter(check[0] for _, check, _ in queries)
        return {
            "queries_per_block": len(self.blocks[0]),
            "blocks": len(self.blocks),
            "command_share": {k: round(v / len(queries), 4) for k, v in sorted(commands.items())},
            "n_histogram": dict(sorted(Counter(n for _, _, n in queries).items())),
            "malformed_share": round(commands["malformed"] / len(queries), 4),
        }

    # timing

    def iteration(self, ks, index: int):
        main = ks.cli.main
        block = self.blocks[index % len(self.blocks)]
        lat, outs = [], []
        for argv, check, _ in block:
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            lat.append(perf_counter() - t0)
            outs.append((check, rc, out.getvalue()))
        return lat, outs

    # verification

    def _charpoly(self, ks, key) -> list[str]:
        if ("poly", key) not in self.refs:
            if key[0] == "kite":
                poly = ks.charpoly.kite_charpoly(key[1], key[2])
            else:
                n, edges = self._base(key)
                poly = ks.charpoly.charpoly_interpolated(ks.graph.from_edges(n, edges))
            self.refs[("poly", key)] = [str(c) for c in poly.coeffs]
        return self.refs[("poly", key)]

    def _spectrum(self, key) -> list[float]:
        if ("eig", key) not in self.refs:
            self.refs[("eig", key)] = ref.eigenvalues(*self._base(key))
        return self.refs[("eig", key)]

    def _check(self, ks, check, rc: int, text: str) -> bool:
        kind = check[0]
        if kind == "malformed":
            return rc == self.malformed_rc and text == ""
        if rc != 0:
            return False
        out = json.loads(text)
        if kind == "charpoly":
            return out["coefficients"] == self._charpoly(ks, check[1])
        if kind == "spectrum":
            want = self._spectrum(check[1])
            return len(out["eigenvalues"]) == len(want) and all(
                abs(a - b) <= 1e-6 for a, b in zip(out["eigenvalues"], want))
        if kind == "cospectral":
            same = check[1]
            if same is not True:
                same = self._charpoly(ks, same[0]) == self._charpoly(ks, same[1])
            return out["cospectral"] is same
        if kind == "invariants":
            key = check[1]
            n, edges = self._base(key)
            rows = ref.neighbor_masks(n, edges)
            ok = (
                out["n"] == n and out["m"] == len(edges)
                and out["triangles"] == ref.triangles(n, edges)
                and out["clique_number"] == ref.clique_number(n, edges)
                and out["degree_sequence"] == sorted((r.bit_count() for r in rows), reverse=True)
                and out["connected"] == ref.connected(n, edges)
                and abs(out["spectral_radius"] - self._spectrum(key)[0]) <= 1e-8
            )
            if key[0] == "kite":
                lower, upper = ref.kite_radius_bounds(key[1])
                ok = ok and (
                    abs(out["radius_lower_bound"] - lower) <= 1e-12
                    and abs(out["radius_upper_bound"] - upper) <= 1e-12
                    and lower < out["spectral_radius"] < upper
                    and out["clique_lower_bound"] == key[1] - 2 * key[2] + 1
                )
            return ok
        if kind == "bounds":
            _, p, q = check
            lower, upper = ref.kite_radius_bounds(p)
            rho = self._spectrum(("kite", p, q))[0]
            return (
                abs(out["lower"] - lower) <= 1e-12 and abs(out["upper"] - upper) <= 1e-12
                and abs(out["spectral_radius"] - rho) <= 1e-8
                and lower < out["spectral_radius"] < upper
                and out["sandwich_holds"] is True
            )
        if kind == "kite-census":
            return out["all_distinct"] is True and [
                (r["n"], r["kite_count"], r["all_distinct"]) for r in out["rows"]
            ] == [(n, n - 3, True) for n in range(4, self.census_n + 1)]
        if kind == "lemma41-check":
            return out["checks"] == ref.lemma41_check_count(self.lemma_p) and out["violations"] == []
        return False

    def verify(self, ks, outputs) -> tuple[int, int]:
        failed = sum(not self._check(ks, check, rc, text) for check, rc, text in outputs)
        return len(outputs), failed

    def traced(self, ks, seed: int, out_dir: Path) -> tuple[dict, int, int]:
        overhead = _overhead_pct(ks, lambda: self.iteration(ks, 0))
        tracer = Tracer(ks)
        outs = []
        with tracer:
            for index in range(min(TRACED_BLOCKS, len(self.blocks))):
                outs += self.iteration(ks, index)[1]
        tracer.write(out_dir / f"{self.name}-seed{seed}.jsonl")
        attempted, failed = self.verify(ks, outs)
        return layer_metrics(tracer, overhead_pct=overhead), attempted, failed


WORKLOADS = {w.name: w for w in (DasSearch, Census, CliMix)}
