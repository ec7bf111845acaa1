"""The benchmark's three workloads: inputs made from a seed, one call per
operation, and a check of every output against bench/oracle.py.

Each workload is a closed loop with one client: the next operation starts when
the previous one returns. A round is the workload's fixed list of operations;
every round of a run repeats the same list, so per-round counts are exact.
"""
from __future__ import annotations

import contextlib
import heapq
import io
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import oracle

SCORE_TOL = 1e-12  # candidate scores and query histograms vs. the exact oracle
VALUE_TOL = 1e-9  # opinions and resistances
BOUNDARY_MARGIN = 1e-7  # non-tree opinions this close to k/R leave the bin undecided


@dataclass
class Check:
    """Outcome of one operation's output check.

    A score or histogram that differs from the exact oracle is counted in
    `wrong`. It fails the operation only when opdiv 0.1.0's known binning
    defect (oracle.seed_bin) does not explain it either; an argmax set that is
    off because of explained wrong scores is counted in `argmax_wrong`.
    """

    ok: bool  # the gated answer is right
    checked: int = 0  # scores or histograms compared with the exact oracle
    wrong: int = 0  # of those, how many differ by more than SCORE_TOL
    argmax_wrong: int = 0  # place: argmax sets that differ from the exact ones
    note: str = ""


@dataclass
class Op:
    kind: str  # latency class, e.g. "n300" or "trees-R2"
    args: tuple
    data: dict = field(default_factory=dict)  # what the check needs


def prufer_tree(n: int, rng: random.Random) -> list:
    """Edges of a uniform random labelled tree on n >= 3 nodes."""
    seq = [rng.randrange(1, n + 1) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def add_random_edges(n: int, edges: list, k: int, rng: random.Random) -> list:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    out = list(edges)
    while len(out) < len(edges) + k:
        u, v = rng.sample(range(1, n + 1), 2)
        key = (min(u, v), max(u, v))
        if key not in present:
            present.add(key)
            out.append(key)
    return out


def write_edge_list(path: Path, n: int, edges: list) -> None:
    path.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def _run_cli(argv: list) -> tuple:
    import opdiv.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = opdiv.cli.main(argv)
    return rc, buf.getvalue()


class PlaceTable:
    """`opdiv place --format json` on paths, cycles and Prüfer trees, N in
    {100, 200, 300}, R in {2, nf}: the O(n^4) full score table."""

    name = "place-table"
    SIZES = (100, 200, 300)

    def setup(self, seed: int, workdir: Path) -> list:
        rng = random.Random(seed)
        ops = []
        for N in self.SIZES:
            chain = [(i, i + 1) for i in range(1, N)]
            tree_file = workdir / f"tree-{N}.edges"
            tree = prufer_tree(N, rng)
            write_edge_list(tree_file, N, tree)
            families = {
                "path": (["--gen", f"path:{N}"], chain),
                "cycle": (["--gen", f"cycle:{N}"], chain + [(N, 1)]),
                "tree": (["--graph", str(tree_file)], tree),
            }
            for family, (source, edges) in families.items():
                l0 = rng.randrange(1, N + 1)
                for R in ("2", "nf"):
                    argv = ["place", *source, "--l0", str(l0), "--R", R, "--format", "json"]
                    r = 2 if R == "2" else N - 2
                    ops.append(Op(f"n{N}", (argv,), {"n": N, "edges": edges, "l0": l0, "R": r}))
        rng.shuffle(ops)
        return ops

    def run(self, argv):
        return _run_cli(argv)

    def check(self, op: Op, output) -> Check:
        rc, text = output
        if rc != 0:
            return Check(False, note=f"exit code {rc}")
        payload = json.loads(text)
        got = {int(v): (s["simpson"], s["shannon"]) for v, s in payload["scores"].items()}
        exact = self._table(op, oracle.exact_bin)
        if payload["R"] != op.data["R"] or set(got) != set(exact["scores"]):
            return Check(False, note="wrong R or candidate set")
        wrong = [v for v in got if not _same_scores(got[v], exact["scores"][v])]
        argmax = (set(payload["argmax_simpson"]), set(payload["argmax_shannon"]))
        argmax_wrong = int(not _same_optimum(got, argmax, exact))
        ok = not argmax_wrong
        if wrong:
            model = self._table(op, oracle.seed_bin)
            explained = all(_same_scores(got[v], model["scores"][v]) for v in wrong)
            ok = explained and (ok or _same_optimum(got, argmax, model))
        note = "" if ok else "scores, argmax set or optimum differ"
        return Check(ok, len(got), len(wrong), argmax_wrong, note)

    @staticmethod
    def _table(op: Op, bin_of) -> dict:
        d = op.data
        key = bin_of.__name__
        if key not in d:
            d[key] = oracle.placement_table(d["n"], d["edges"], d["l0"], d["R"], bin_of)
        return d[key]


def _same_scores(got: tuple, want: tuple) -> bool:
    return (abs(got[0] - float(want[0])) <= SCORE_TOL
            and abs(got[1] - want[1]) <= SCORE_TOL)


def _same_optimum(got: dict, argmax: tuple, table: dict) -> bool:
    """Both argmax sets and both attained optima equal the table's."""
    best = (float(max(s for s, _ in table["scores"].values())),
            max(h for _, h in table["scores"].values()))
    return (
        argmax == (table["argmax_simpson"], table["argmax_shannon"])
        and abs(max(s for s, _ in got.values()) - best[0]) <= SCORE_TOL
        and abs(max(h for _, h in got.values()) - best[1]) <= SCORE_TOL
    )


class VerifySweep:
    """`opdiv verify <suite>` for all five suites at their default bounds:
    thousands of graphs with n <= 15, dominated by Python graph code."""

    name = "verify-sweep"
    SUITES = ("paths", "cycles", "ytrees", "trees-R2", "appendix")

    def setup(self, seed: int, workdir: Path) -> list:
        ops = [Op(s, (["verify", s],)) for s in self.SUITES]
        random.Random(seed).shuffle(ops)
        return ops

    def run(self, argv):
        return _run_cli(argv)

    def check(self, op: Op, output) -> Check:
        rc, text = output
        lines = text.splitlines()
        last = re.compile(rf"{re.escape(op.kind)} \(bound \d+\): 0 counterexample\(s\)")
        ok = (
            rc == 0
            and bool(lines)
            and last.fullmatch(lines[-1]) is not None
            and not any(line.startswith("COUNTEREXAMPLE") for line in lines)
        )
        return Check(ok, note="" if ok else f"exit code {rc}: {lines[-1:]}")


@dataclass
class Query:
    graph: object  # opdiv.Graph
    adj: list
    tree: bool
    l0: int
    l1: int
    R: int
    resistance: bool


class PairQuery:
    """Single-pair library queries steady_state -> bin_opinions -> indices on
    random trees and sparse non-tree graphs (tree plus ~10% edges), n in
    [200, 400]; every 10th query also asks for every follower's resistance
    to the leader set."""

    name = "pair-query"
    SIZES = tuple(range(200, 401, 10))
    PER_GRAPH = 30  # queries per graph per round
    RESISTANCE_PER_GRAPH = 3  # of those, how many also ask for resistances

    def setup(self, seed: int, workdir: Path) -> list:
        import opdiv

        rng = random.Random(seed)
        plain, flagged = [], []
        for n in self.SIZES:
            tree = prufer_tree(n, rng)
            for is_tree, edges in ((True, tree), (False, add_random_edges(n, tree, round(0.1 * n), rng))):
                path = workdir / f"{'tree' if is_tree else 'graph'}-{n}.edges"
                write_edge_list(path, n, edges)
                g = opdiv.read_edge_list(path.read_text())
                adj = oracle.adjacency(n, edges)
                for i in range(self.PER_GRAPH):
                    l0, l1 = rng.sample(range(1, n + 1), 2)
                    q = Query(g, adj, is_tree, l0, l1, 2 if i % 2 else n - 2,
                              i < self.RESISTANCE_PER_GRAPH)
                    (flagged if q.resistance else plain).append(q)
        rng.shuffle(plain)
        rng.shuffle(flagged)
        ops = []
        for i in range(len(plain) + len(flagged)):
            q = flagged.pop() if i % 10 == 9 else plain.pop()
            ops.append(Op("query", (q,)))
        return ops

    def run(self, q: Query):
        import opdiv

        lc = opdiv.single_pair(q.l0, q.l1)
        x = opdiv.steady_state(q.graph, lc)
        h = opdiv.bin_opinions(x, q.R)
        scores = (opdiv.simpson_index(h), opdiv.shannon_index(h))
        if not q.resistance:
            return x, h, scores, None, None
        gi = opdiv.grounded_inverse(q.graph, lc)
        r = {u: opdiv.leader_set_resistance(gi, u) for u in x.values}
        return x, h, scores, gi, r

    def check(self, op: Op, output) -> Check:
        (q,) = op.args
        x, h, (simpson, shannon), gi, r = output
        values = x.values
        if q.tree:
            exact = self._exact(op)
            if set(values) != set(exact["x"]) or any(
                abs(values[v] - want) > VALUE_TOL for v, want in exact["x"].items()
            ):
                return Check(False, note="opinion differs from a/D")
            expected, model = exact["hist"], exact["seed_hist"]
        else:
            err = oracle.harmonic_error(q.adj, values, q.l0, q.l1)
            if not err <= VALUE_TOL:
                return Check(False, note=f"steady-state equations off by {err:.3e}")
            expected = model = None
            if oracle.boundary_margin(values, q.R) > BOUNDARY_MARGIN:
                expected = model = oracle.float_histogram(values, q.R)
        if gi is not None and not self._resistances_ok(op, gi, r):
            return Check(False, note="resistance differs")
        if expected is None:
            return Check(True)
        got = (tuple(h.counts), (simpson, shannon))
        if _same_histogram(got, expected):
            return Check(True, 1)
        if _same_histogram(got, model):
            return Check(True, 1, 1)
        return Check(False, 1, 1, note="histogram or scores differ")

    @staticmethod
    def _exact(op: Op) -> dict:
        """Exact opinions, histograms and resistances of a tree query, made once."""
        if "x" not in op.data:
            (q,) = op.args
            opinions = oracle.exact_opinions(len(q.adj) - 1, q.adj, q.l0, q.l1)
            op.data.update(
                x={v: a / D for v, (a, D) in opinions.items()},
                hist=oracle.histogram(opinions, q.R),
                seed_hist=oracle.histogram(opinions, q.R, oracle.seed_bin),
                r={u: float(v) for u, v in oracle.tree_resistances(q.adj, q.l0, q.l1).items()},
            )
        return op.data

    def _resistances_ok(self, op: Op, gi, r: dict) -> bool:
        (q,) = op.args
        followers = set(range(1, len(q.adj))) - {q.l0, q.l1}
        if set(r) != followers or set(gi.follower_index) != followers:
            return False
        if q.tree:
            exact = self._exact(op)["r"]
            return all(abs(r[u] - exact[u]) <= VALUE_TOL * max(1.0, exact[u]) for u in followers)
        if not oracle.inverse_error(q.adj, gi.inv, gi.follower_index) <= VALUE_TOL:
            return False
        return all(abs(r[u] - gi.inv[i, i]) <= VALUE_TOL for u, i in gi.follower_index.items())


def _same_histogram(got: tuple, counts: tuple) -> bool:
    counts_got, scores = got
    return counts_got == counts and _same_scores(scores, (oracle.simpson(counts), oracle.shannon(counts)))


WORKLOADS = {w.name: w for w in (PlaceTable(), VerifySweep(), PairQuery())}
