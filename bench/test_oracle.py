"""The benchmark's oracle against exact rational elimination on small graphs.

    python3 -m pytest bench/test_oracle.py
"""
import random
from fractions import Fraction

import pytest

import oracle
from workloads import add_random_edges, prufer_tree


def grounded_system(n: int, edges, l0: int, l1: int):
    """Followers, the grounded Laplacian Lff and the right-hand side -Lfl x_l, exactly."""
    followers = [v for v in range(1, n + 1) if v not in (l0, l1)]
    row = {v: i for i, v in enumerate(followers)}
    lff = [[Fraction(0)] * len(followers) for _ in followers]
    rhs = [Fraction(0)] * len(followers)
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if a in row:
                lff[row[a]][row[a]] += 1
                if b in row:
                    lff[row[a]][row[b]] -= 1
                elif b == l1:
                    rhs[row[a]] += 1
    return followers, lff, rhs


def solve(matrix, rhs):
    """Gauss-Jordan elimination over the rationals."""
    m = len(rhs)
    a = [row[:] + [b] for row, b in zip(matrix, rhs)]
    for c in range(m):
        p = next(r for r in range(c, m) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for r in range(m):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[r][m] for r in range(m)]


def small_graphs():
    rng = random.Random(7)
    for n in range(3, 9):
        yield f"path{n}", n, [(i, i + 1) for i in range(1, n)]
        yield f"cycle{n}", n, [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    for n in range(4, 13):
        yield f"tree{n}", n, prufer_tree(n, rng)


def random_pairs(n, rng, k=6):
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    return rng.sample(pairs, min(k, len(pairs)))


@pytest.mark.parametrize("name,n,edges", list(small_graphs()))
def test_opinions_bins_and_scores_are_exact(name, n, edges):
    adj = oracle.adjacency(n, edges)
    rng = random.Random(n)
    for l0, l1 in random_pairs(n, rng):
        followers, lff, rhs = grounded_system(n, edges, l0, l1)
        x = dict(zip(followers, solve(lff, rhs)))
        got = oracle.exact_opinions(n, adj, l0, l1)
        assert {v: Fraction(a, D) for v, (a, D) in got.items()} == x
        for R in {2, 3, max(2, n - 2)}:
            counts = [0] * R
            for value in x.values():
                counts[min(int(value * R), R - 1)] += 1
            assert oracle.histogram(got, R) == tuple(counts)
            c = tuple(counts)
            nf = len(followers)
            if nf >= 2:
                assert oracle.simpson(c) == 1 - Fraction(sum(k * (k - 1) for k in c), nf * (nf - 1))


@pytest.mark.parametrize("name,n,edges", [g for g in small_graphs() if g[0].startswith(("path", "tree"))])
def test_tree_resistance_is_the_grounded_inverse_diagonal(name, n, edges):
    adj = oracle.adjacency(n, edges)
    rng = random.Random(n + 100)
    for l0, l1 in random_pairs(n, rng, 4):
        followers, lff, _ = grounded_system(n, edges, l0, l1)
        want = {}
        for i, u in enumerate(followers):
            e = [Fraction(int(j == i)) for j in range(len(followers))]
            want[u] = solve(lff, e)[i]
        assert oracle.tree_resistances(adj, l0, l1) == want


def test_placement_table_argmax_matches_exact_scores():
    rng = random.Random(3)
    for n in (6, 9, 12):
        edges = prufer_tree(n, rng)
        table = oracle.placement_table(n, edges, 1, 2)
        best = max(s for s, _ in table["scores"].values())
        assert table["argmax_simpson"] == {v for v, (s, _) in table["scores"].items() if s == best}


def test_harmonic_check_accepts_exact_and_rejects_perturbed():
    rng = random.Random(11)
    for n in (6, 9, 12):
        edges = add_random_edges(n, prufer_tree(n, rng), 3, rng)
        adj = oracle.adjacency(n, edges)
        followers, lff, rhs = grounded_system(n, edges, 1, n)
        x = {v: float(o) for v, o in zip(followers, solve(lff, rhs))}
        assert oracle.harmonic_error(adj, x, 1, n) < 1e-12
        x[followers[0]] += 1e-6
        assert oracle.harmonic_error(adj, x, 1, n) > 1e-7
        del x[followers[0]]
        assert oracle.harmonic_error(adj, x, 1, n) == float("inf")


def test_seed_bin_reproduces_the_known_cycle_defect():
    # cycle:100, l0 = 1, l1 = 3, R = 98: the long arc puts 97 followers at
    # i/98; exactly, every follower has a bin of its own.
    n, R = 100, 98
    adj = oracle.adjacency(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
    opinions = oracle.exact_opinions(n, adj, 1, 3)
    assert float(oracle.simpson(oracle.histogram(opinions, R))) == pytest.approx(0.99979, abs=5e-6)
    defective = oracle.histogram(opinions, R, oracle.seed_bin)
    assert float(oracle.simpson(defective)) == pytest.approx(0.99832, abs=5e-6)
