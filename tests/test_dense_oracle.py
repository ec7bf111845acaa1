"""`dense_counts` against an exact rational oracle off trees and cycles.

The oracle knows nothing of opdiv: it builds the Laplacian from the edge list,
inverts it grounded at node 1 by Gauss–Jordan elimination over `Fraction`s,
and moves the ground to l0 exactly, G_l0(u, v) = X(u, v) − X(u, l0) −
X(l0, v) + X(l0, l0) for X the node-1 inverse padded with zeros at node 1.
The opinion of follower v for the pair (l0, l1) is G_l0(v, l1) / G_l0(l1, l1),
binned by min(⌊(x + snap_tol)·R⌋, R − 1) with snap_tol taken as the exact
value of the float. Simpson's argmax minimises Σ c(c − 1) and Shannon's
minimises Π c^c, both compared as integers.
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from opdiv import brute_force_best, build_graph
from opdiv.diversity import SNAP_TOL
from opdiv.placement import dense_counts, exact_engine


def exact_inverse(A):
    """Inverse of a nonsingular square matrix of Fractions, by Gauss–Jordan elimination."""
    n = len(A)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        M[col] = [x / M[col][col] for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def green_at_node_1(n, edges):
    """X: the inverse of L grounded at node 1, padded with zeros at node 1 (0-based row 0)."""
    L = [[Fraction(0)] * n for _ in range(n)]
    for u, v in edges:
        L[u - 1][u - 1] += 1
        L[v - 1][v - 1] += 1
        L[u - 1][v - 1] -= 1
        L[v - 1][u - 1] -= 1
    inv = exact_inverse([row[1:] for row in L[1:]])
    return [[Fraction(0)] * n] + [[Fraction(0)] + row for row in inv]


def exact_opinions(X, l0):
    """{l1: opinions of the other followers, in node order} for every candidate l1 ≠ l0."""
    n, s = len(X), l0 - 1
    table = {}
    for c in range(n):
        if c != s:
            column = [X[v][c] - X[v][s] - X[s][c] + X[s][s] for v in range(n)]
            table[c + 1] = [column[v] / column[c] for v in range(n) if v not in (s, c)]
    return table


def exact_counts(opinions, R, snap_tol):
    """Bin counts of exact opinions, ⌊(x + snap_tol)·R⌋ in integers as ⌊R(pb + aq) / qb⌋."""
    counts, (a, b) = [0] * R, float(snap_tol).as_integer_ratio()
    for x in opinions:
        p, q = x.numerator, x.denominator
        counts[min(R * (p * b + a * q) // (q * b), R - 1)] += 1
    return counts


def connected_graph(rng):
    """A seeded random spanning tree on 6–12 nodes plus 1–4 extra edges."""
    n = rng.randint(6, 12)
    labels = rng.sample(range(1, n + 1), n)
    edges = {tuple(sorted((labels[i], labels[rng.randrange(i)]))) for i in range(1, n)}
    target = len(edges) + rng.randint(1, 4)
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    return n, sorted(edges)


def chorded_cycle(n, chords):
    return n, sorted({tuple(sorted((i, i % n + 1))) for i in range(1, n + 1)} | set(chords))


def grid(rows, cols):
    node = lambda r, c: r * cols + c + 1
    edges = [(node(r, c), node(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(node(r, c), node(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return rows * cols, edges


def graphs():
    rng = random.Random(2018)
    out = {f"random{i}": connected_graph(rng) for i in range(8)}
    out["cycle9+1"] = chorded_cycle(9, [(1, 5)])
    out["cycle12+2"] = chorded_cycle(12, [(2, 8), (4, 11)])
    out["cycle10+sym"] = chorded_cycle(10, [(1, 6)])
    out["grid3x3"] = grid(3, 3)
    out["grid3x4"] = grid(3, 4)
    # a cactus: triangles 1-2-3 and 3-4-5, square 5-6-7-8, pendant 9 on node 7
    out["cactus"] = 9, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5),
                        (5, 6), (6, 7), (7, 8), (5, 8), (7, 9)]
    return out


@pytest.mark.parametrize("n,edges", graphs().values(), ids=graphs().keys())
def test_dense_counts_and_argmax_sets_are_exact(n, edges):
    g = build_graph(n, edges)
    assert exact_engine(g) is None  # neither a tree nor a cycle: the dense engine serves it
    X = green_at_node_1(n, edges)
    for l0 in range(1, n + 1):
        F = np.flatnonzero(np.arange(n) != l0 - 1)
        opinions = exact_opinions(X, l0)
        for R in sorted({2, 5, n - 2}):
            want = {v: exact_counts(x, R, SNAP_TOL) for v, x in opinions.items()}
            got = dense_counts(g, l0, F, R, SNAP_TOL)
            assert {v: row.tolist() for v, row in zip((F + 1).tolist(), got)} == want
            pairs = {v: sum(c * (c - 1) for c in row) for v, row in want.items()}
            powers = {v: math.prod(c**c for c in row) for v, row in want.items()}
            result = brute_force_best(g, l0, R)
            assert result.argmax_simpson == {v for v in want if pairs[v] == min(pairs.values())}
            assert result.argmax_shannon == {v for v in want if powers[v] == min(powers.values())}
