"""Command-line harness: placement experiments, theorem sweeps, opinion dumps.

Exit codes: 0 success / verified, 1 usage or input error, 2 verification
counterexample found. Output is a deterministic function of the arguments.
"""
from __future__ import annotations

import argparse
import json
import sys
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from . import graphs, verify
from .diversity import SNAP_TOL, BinHistogram, bin_opinions, max_diversity
from .dynamics import steady_state
from .errors import OpdivError
from .placement import (
    brute_force_best,
    exact_engine,
    predict_cycle,
    predict_path,
    predict_y_tree,
    y_tree_structure,
)

DEFAULT_BOUNDS = {"paths": 15, "cycles": 15, "ytrees": 5, "trees-R2": 12, "appendix": 12}
# the smallest bound at which each suite checks at least one instance
MIN_BOUNDS = {"paths": 4, "cycles": 4, "ytrees": 1, "trees-R2": 5, "appendix": 5}
SNAP_HELP = f"bin-boundary snap tolerance, in [0, 1/(2R)) (default {SNAP_TOL:g})"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.exit(f"error: {message}")


def _load_graph(args) -> graphs.Graph:
    if args.gen:
        return graphs.generate(args.gen)
    try:
        with open(args.graph) as fh:
            return graphs.read_edge_list(fh.read())
    except OSError as exc:
        raise OpdivError(f"cannot read graph file {args.graph}: {exc}") from exc


def _resolve_r(spec: str, n: int) -> int:
    if spec == "nf":
        return n - 2
    r = int(spec)
    if r < 2:
        raise OpdivError(f"--R must be 'nf' or an integer >= 2, got {spec}")
    return r


def _detect_topology(g: graphs.Graph):
    """Classify as ('path'|'cycle'|'ytree', canonical node order) or None."""
    if g.is_cycle():
        return "cycle", None
    if g.is_tree() and max(g.degree(v) for v in range(1, g.n + 1)) <= 2:
        start = min(v for v in range(1, g.n + 1) if g.degree(v) == 1)
        return "path", list(graphs.rooted_tree(g, start).order)
    try:
        y_tree_structure(g)
        return "ytree", None
    except OpdivError:
        return None


def _prediction(g: graphs.Graph, l0: int, R: int):
    """Predictor output mapped to the graph's actual labels, or None."""
    detected = _detect_topology(g)
    if detected is None:
        return None
    kind, order = detected
    r_spec = 2 if R == 2 else ("nf" if R == g.n - 2 else None)
    if kind == "ytree":
        if g.degree(l0) != 1 or r_spec != "nf":
            return None
        return kind, predict_y_tree(g, l0)
    if r_spec is None:
        return None
    if kind == "cycle":
        order = graphs.cycle_order(g, l0)
        pred = predict_cycle(g.n, r_spec)
    else:
        pred = predict_path(g.n, order.index(l0) + 1, r_spec)
    return kind, frozenset(order[i - 1] for i in pred)


def _bounds(n_f: int, R: int) -> dict:
    if R not in (2, n_f):
        return {}
    return {m: max_diversity(n_f, R, m) for m in ("simpson", "shannon")}


def cmd_place(args) -> int:
    g = _load_graph(args)
    if not 1 <= args.l0 <= g.n:
        raise OpdivError(f"--l0 {args.l0} outside 1..{g.n}")
    R = _resolve_r(args.R, g.n)
    result = brute_force_best(g, args.l0, R, snap_tol=args.snap_tol)
    bounds = _bounds(g.n - 2, R)
    prediction = _prediction(g, args.l0, R)
    if prediction:
        kind, pred = prediction
        agrees = pred <= result.argmax_simpson and pred <= result.argmax_shannon

    if args.format == "json":
        payload = {
            "R": result.R,
            "scores": {
                str(v): {"simpson": s.simpson, "shannon": s.shannon}
                for v, s in sorted(result.scores.items())
            },
            "argmax_simpson": sorted(result.argmax_simpson),
            "argmax_shannon": sorted(result.argmax_shannon),
            "l0": args.l0,
            "max_diversity": bounds,
        }
        if prediction:
            payload["prediction"] = {"topology": kind, "nodes": sorted(pred), "agrees": agrees}
        out = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["l1,simpson,shannon"]
        lines.extend(
            f"{v},{s.simpson:.12g},{s.shannon:.12g}" for v, s in sorted(result.scores.items())
        )
        out = "\n".join(lines) + "\n"
    else:
        parts = [_table(result)]
        parts.append(f"argmax simpson: {sorted(result.argmax_simpson)}\n")
        parts.append(f"argmax shannon: {sorted(result.argmax_shannon)}\n")
        for measure, bound in bounds.items():
            attained = max(getattr(s, measure) for s in result.scores.values())
            parts.append(
                f"max {measure}: attained {_round3(attained)}, bound {_round3(bound)}\n"
            )
        if prediction:
            parts.append(f"predicted optimal ({kind}): {sorted(pred)}\n")
            parts.append(f"prediction agrees with brute force: {'yes' if agrees else 'NO'}\n")
        out = "".join(parts)
    _emit(out, args.out)
    return 0


def _table(result) -> str:
    """Aligned text table of a `PlacementResult`, one candidate per row, 3 decimals, half-up."""
    rows = [("l1", "simpson", "shannon")]
    rows.extend(
        (str(v), _round3(s.simpson), _round3(s.shannon)) for v, s in sorted(result.scores.items())
    )
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
    ) + "\n"


def _round3(x: float) -> str:
    return str(Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def cmd_verify(args) -> int:
    bound = args.bound if args.bound is not None else DEFAULT_BOUNDS[args.suite]
    if bound < MIN_BOUNDS[args.suite]:
        raise OpdivError(
            f"--bound for {args.suite} must be at least {MIN_BOUNDS[args.suite]}, got {bound}"
        )
    counterexamples = verify.SUITES[args.suite](bound)
    lines = []
    if args.suite == "paths":
        lines.append("Theorem 2 audit (stated R=2 placement vs. brute force):")
        lines.extend("  " + line for line in verify.audit_theorem2(bound))
        lines.append("")
    for c in counterexamples:
        lines.append(f"COUNTEREXAMPLE: {c}")
    lines.append(
        f"{args.suite} (bound {bound}): {len(counterexamples)} counterexample(s)"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 2 if counterexamples else 0


def cmd_dump(args) -> int:
    g = _load_graph(args)
    lc = graphs.single_pair(args.l0, args.l1)
    lc.validate(g)
    R = _resolve_r(args.R, g.n)
    x = steady_state(g, lc)
    engine = exact_engine(g)
    if engine is None:
        h = bin_opinions(x, R, snap_tol=args.snap_tol)
    else:  # the exact count row that `place` scores, rather than the binned floats
        row = engine(g, args.l0, np.array([args.l1 - 1]), R, args.snap_tol)[0]
        h = BinHistogram(R=R, counts=tuple(row.tolist()))
    _emit(_opinions_csv(x) + _histogram_json(h) + "\n", args.out)
    return 0


def _opinions_csv(x) -> str:
    """An `OpinionVector` as `node,opinion` rows by ascending node, 12 significant digits."""
    return "node,opinion\n" + "".join(f"{v},{o:.12g}\n" for v, o in sorted(x.values.items()))


def _histogram_json(h: BinHistogram) -> str:
    return json.dumps({"R": h.R, "n_f": h.n_f, "counts": list(h.counts)})


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_graph_source(p: _Parser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-list file (header `n <count>`, then `u v` lines)")
    src.add_argument("--gen", help="generator spec: path:N, cycle:N, or ytree:A,B,C")


def build_parser() -> _Parser:
    parser = _Parser(prog="opdiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place", help="brute-force 1-leader placement scores")
    _add_graph_source(p)
    p.add_argument("--l0", type=int, required=True, help="0-leader node")
    p.add_argument("--R", default="nf", help="bin count: 2, nf, or an integer (default nf)")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--snap-tol", type=float, default=SNAP_TOL, dest="snap_tol", help=SNAP_HELP)
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("verify", help="sweep a graph family against the predictors")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--bound", type=int, help="size bound (max n, or max arm length for ytrees)")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump", help="emit steady-state opinions (CSV) and histogram (JSON)")
    _add_graph_source(p)
    p.add_argument("--l0", type=int, required=True, help="0-leader node")
    p.add_argument("--l1", type=int, required=True, help="1-leader node")
    p.add_argument("--R", default="nf", help="bin count: 2, nf, or an integer (default nf)")
    p.add_argument("--snap-tol", type=float, default=SNAP_TOL, dest="snap_tol", help=SNAP_HELP)
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.set_defaults(func=cmd_dump)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OpdivError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
