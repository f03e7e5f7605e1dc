"""Command-line front end.

Commands: charpoly, spectrum, cospectral, invariants, kite-census,
das-verify, bounds, enumerate, lemma41-check.  Exit status 0 on success,
1 on usage errors, 2 when a check contradicts a claimed theorem (a mate
search finds a mate, two kite polynomials collide, the radius sandwich or
the clique-bound inequality fails), so the CLI is a scriptable regression
gate.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import bounds as bounds_mod
from . import das
from .charpoly import are_cospectral, charpoly, kite_charpoly
from .enumeration import EnumConstraints, enumerate_cached
# cache_store, enumerate_graphs and make_kite are unused here, but the
# benchmark's tracer wraps them in ``cli``
from .enumeration import cache_store, enumerate_graphs  # noqa: F401
from .graph import (  # noqa: F401
    _check_order,
    clique_number,
    encode_graph6,
    is_connected,
    make_kite,
    parse_graph_spec,
    triangle_count,
)

CACHE_DIR_ENV = "KITESPEC_CACHE_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THEOREM_CONTRADICTED = 2


def _emit_csv(rows) -> str:
    rows = list(rows)
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _print(args, *, json_payload, csv_rows, text: str):
    if args.format == "json":
        out = json.dumps(json_payload, indent=1)
    elif args.format == "csv":
        out = _emit_csv(csv_rows)
    else:
        out = text
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # the reader stopped early (``| head``), which is no usage error: the
        # rest goes to devnull, so the exit-time flush cannot fail either,
        # and the command's own exit code stands
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# -- commands -------------------------------------------------------------


def cmd_charpoly(args) -> int:
    g, _ = parse_graph_spec(args.spec)
    poly = charpoly(g)
    _print(
        args,
        json_payload={"spec": args.spec, "coefficients": poly.to_json()},
        csv_rows=[{"power": k, "coefficient": str(c)} for k, c in enumerate(poly.coeffs)],
        text=poly.pretty(),
    )
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g, _ = parse_graph_spec(args.spec)
    # + 0.0 drops the sign the solver's last bits give a rounded zero
    vals = [round(v, 12) + 0.0 for v in bounds_mod.eigenvalues(g)]
    _print(
        args,
        json_payload={"spec": args.spec, "eigenvalues": vals},
        csv_rows=[{"index": k, "eigenvalue": v} for k, v in enumerate(vals)],
        text=" ".join(f"{v:.6f}" for v in vals),
    )
    return EXIT_OK


def cmd_cospectral(args) -> int:
    g, _ = parse_graph_spec(args.spec_a)
    h, _ = parse_graph_spec(args.spec_b)
    same = are_cospectral(g, h)
    _print(
        args,
        json_payload={"a": args.spec_a, "b": args.spec_b, "cospectral": same},
        csv_rows=[{"a": args.spec_a, "b": args.spec_b, "cospectral": same}],
        text="cospectral" if same else "not cospectral",
    )
    return EXIT_OK


def cmd_invariants(args) -> int:
    g, kp = parse_graph_spec(args.spec)
    m = g.edge_count()
    if not g.n:
        rho = None
    elif kp is not None:
        # the pendant recurrence owns a kite's polynomial: no Berkowitz
        rho = round(bounds_mod.largest_root(kite_charpoly(kp.p, kp.q)), 10)
    else:
        rho = round(bounds_mod.spectral_radius(g), 10)
    info = {
        "spec": args.spec,
        "graph6": encode_graph6(g),
        "n": g.n,
        "m": m,
        "triangles": triangle_count(g),
        "clique_number": clique_number(g),
        "degree_sequence": g.degree_sequence(),
        "connected": is_connected(g),
        "spectral_radius": rho,
    }
    # the sandwich and the clique bound hold for q >= 1 only
    if kp is not None and kp.p >= 3 and kp.q >= 1:
        lower, upper = bounds_mod.kite_radius_bounds(kp.p)
        info["radius_lower_bound"] = lower
        info["radius_upper_bound"] = upper
        info["clique_lower_bound"] = bounds_mod.kite_clique_bound(kp.p, kp.q)
    text = "\n".join(f"{k}: {v}" for k, v in info.items())
    _print(
        args,
        json_payload=info,
        csv_rows=[{k: json.dumps(v) if isinstance(v, list) else v for k, v in info.items()}],
        text=text,
    )
    return EXIT_OK


def cmd_kite_census(args) -> int:
    rows = das.verify_theorem31(args.max_n)
    payload = {
        "max_n": args.max_n,
        "rows": [
            {"n": r.n, "kite_count": r.kite_count, "all_distinct": r.all_distinct}
            for r in rows
        ],
        "all_distinct": all(r.all_distinct for r in rows),
    }
    text = "\n".join(
        f"n={r.n}: {r.kite_count} kites, {'all distinct' if r.all_distinct else 'COLLISION'}"
        for r in rows
    )
    _print(args, json_payload=payload, csv_rows=payload["rows"], text=text or "no kites in range")
    return EXIT_OK if payload["all_distinct"] else EXIT_THEOREM_CONTRADICTED


def cmd_das_verify(args) -> int:
    p, q = args.p, args.q
    if q == 2:
        report = das.verify_theorem42(p, workers=args.workers)
    elif q > 2:
        report = das.conjecture43_evidence(p, q, workers=args.workers)
    else:
        raise ValueError("das-verify needs q >= 2")
    payload = report.to_json()
    text = (
        f"Kite_{{{p},{q}}}: scanned {report.classes_scanned} classes "
        f"({report.prefilter_survivors} past prefilter), verdict {report.verdict}"
        + (f", mates: {', '.join(report.mates)}" if report.mates else "")
    )
    _print(
        args,
        json_payload=payload,
        csv_rows=[{k: v for k, v in payload.items() if not isinstance(v, (dict, list))}],
        text=text,
    )
    return EXIT_THEOREM_CONTRADICTED if report.mates else EXIT_OK


def cmd_bounds(args) -> int:
    lower, upper = bounds_mod.kite_radius_bounds(args.p)
    payload = {"p": args.p, "lower": lower, "upper": upper}
    text = f"{lower:.9f} < rho(Kite_{{{args.p},q}}) < {upper:.9f}"
    holds = True
    if args.q is not None:
        if args.q < 1:
            raise ValueError("the radius sandwich needs q >= 1")
        _check_order(args.p + args.q)  # the kite must fit the graph cap
        rho = bounds_mod.largest_root(kite_charpoly(args.p, args.q))
        holds = lower < rho < upper
        payload.update(q=args.q, spectral_radius=rho, sandwich_holds=holds)
        text += f"; rho(Kite_{{{args.p},{args.q}}}) = {rho:.10f} ({'ok' if holds else 'VIOLATED'})"
    _print(
        args,
        json_payload=payload,
        csv_rows=[payload],
        text=text,
    )
    return EXIT_OK if holds else EXIT_THEOREM_CONTRADICTED


def cmd_enumerate(args) -> int:
    graphs = enumerate_cached(EnumConstraints(args.n, args.edges), args.cache_dir)
    if args.connected:
        graphs = [g for g in graphs if is_connected(g)]
    lines = [encode_graph6(g) for g in graphs]
    payload = {"n": args.n, "count": len(lines), "graphs": lines}
    text = "\n".join(lines) if lines else "(none)"
    _print(args, json_payload=payload, csv_rows=[{"graph6": line} for line in lines], text=text)
    return EXIT_OK


def cmd_lemma41_check(args) -> int:
    # only csv prints a row per case; json and text need the violations
    cases, records = bounds_mod.verify_lemma41_inequality(args.max_p, every_case=args.format == "csv")
    violations = [c for c in records if not c.holds]
    payload = {
        "max_p": args.max_p,
        "checks": cases,
        "violations": [c.to_json() for c in violations],
    }
    text = f"{cases} inequality checks, {len(violations)} violations"
    _print(args, json_payload=payload, csv_rows=(c.to_json() for c in records), text=text)
    return EXIT_OK if not violations else EXIT_THEOREM_CONTRADICTED


# -- argument parsing ------------------------------------------------------


def _positive(kind):
    """argparse type: ``kind(raw)``, rejected unless it is > 0."""
    def convert(raw: str):
        value = kind(raw)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {raw!r}")
        return value
    convert.__name__ = kind.__name__  # argparse names the type in its errors
    return convert


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` keeps no state between
    calls, so ``main`` reuses it instead of paying for it on every call."""
    parser = argparse.ArgumentParser(
        prog="kitespec",
        description="Exact spectral toolkit for kite graphs: polynomials, "
        "cospectrality, bounds, and exhaustive DAS verification.",
    )
    parser.add_argument("--cache-dir", default=None, help=f"graph cache directory (env {CACHE_DIR_ENV})")
    parser.add_argument("--workers", type=_positive(int), default=1, help="enumeration worker count")
    parser.add_argument("--format", choices=["json", "csv", "text"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("charpoly", help="exact characteristic polynomial of a graph spec")
    s.add_argument("spec")
    s.set_defaults(func=cmd_charpoly)

    s = sub.add_parser("spectrum", help="numerical eigenvalues of a graph spec")
    s.add_argument("spec")
    s.set_defaults(func=cmd_spectrum)

    s = sub.add_parser("cospectral", help="exact cospectrality decision for two specs")
    s.add_argument("spec_a")
    s.add_argument("spec_b")
    s.set_defaults(func=cmd_cospectral)

    s = sub.add_parser("invariants", help="structural invariant panel for a graph spec")
    s.add_argument("spec")
    s.set_defaults(func=cmd_invariants)

    s = sub.add_parser("kite-census", help="pairwise distinctness of kite polynomials")
    s.add_argument("--max-n", type=int, required=True)
    s.set_defaults(func=cmd_kite_census)

    s = sub.add_parser("das-verify", help="exhaustive cospectral-mate search for a kite")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.set_defaults(func=cmd_das_verify)

    s = sub.add_parser("bounds", help="spectral-radius sandwich for a kite clique size")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--q", type=int, default=None)
    s.set_defaults(func=cmd_bounds)

    s = sub.add_parser("enumerate", help="isomorph-free enumeration as graph6 lines")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--edges", type=int, default=None)
    s.add_argument("--connected", action="store_true")
    s.set_defaults(func=cmd_enumerate)

    s = sub.add_parser("lemma41-check", help="exact-rational clique-bound inequality sweep")
    s.add_argument("--max-p", type=int, required=True)
    s.set_defaults(func=cmd_lemma41_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    args.cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or None
    try:
        return args.func(args)
    except (ValueError, OSError, bounds_mod.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
