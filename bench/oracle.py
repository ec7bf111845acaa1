"""Exact answers for the benchmark's output checks, computed without opdiv.

With one 0-leader l0 and one 1-leader l1 on a tree, every follower opinion is
a/D with D = d(l0, l1) and a = (d(l0, v) + D - d(l1, v)) / 2, the distance from
l0 to the point where v meets the l0-l1 path. On a cycle the opinions run i/L
along each arc of length L between the leaders. Both are integer ratios, so
bins, histograms, Simpson indices and argmax sets follow exactly. On other
graphs the oracle checks a solution through its defining equations instead:
each follower is the mean of its neighbours, leaders pinned at 0 and 1.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np

# The package's argmax tie tolerance (opdiv.placement.TIE_TOL). On the
# benchmark's inputs distinct exact scores are far more than this apart.
TIE_TOL = 1e-9


def adjacency(n: int, edges) -> list:
    """Neighbour lists indexed 1..n (index 0 unused)."""
    adj = [[] for _ in range(n + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_distances(adj: list, src: int) -> list:
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_tree(n: int, adj: list) -> bool:
    return sum(len(ns) for ns in adj) == 2 * (n - 1)


def is_cycle(n: int, adj: list) -> bool:
    return n >= 3 and all(len(adj[v]) == 2 for v in range(1, n + 1))


def cycle_positions(adj: list, l0: int) -> list:
    """Position of each node walking the cycle from l0 (l0 itself at 0)."""
    n = len(adj) - 1
    pos = [0] * (n + 1)
    prev, cur = l0, adj[l0][0]
    for p in range(1, n):
        pos[cur] = p
        prev, cur = cur, next(w for w in adj[cur] if w != prev)
    return pos


def tree_opinions(dist0: list, dist1: list, l0: int, l1: int) -> dict:
    """Follower -> (a, D) with opinion a/D, from distance tables to l0 and l1."""
    D = dist0[l1]
    return {
        v: ((dist0[v] + D - dist1[v]) // 2, D)
        for v in range(1, len(dist0))
        if v != l0 and v != l1
    }


def cycle_opinions(pos: list, l1: int) -> dict:
    """Follower -> (a, D) on a cycle, from positions measured from l0."""
    n = len(pos) - 1
    q = pos[l1]
    out = {}
    for v in range(1, n + 1):
        p = pos[v]
        if p == 0 or v == l1:
            continue
        out[v] = (p, q) if p < q else (n - p, n - q)
    return out


def exact_opinions(n: int, adj: list, l0: int, l1: int) -> dict:
    """Follower -> (a, D) on a tree or a cycle."""
    if is_tree(n, adj):
        return tree_opinions(bfs_distances(adj, l0), bfs_distances(adj, l1), l0, l1)
    if is_cycle(n, adj):
        return cycle_opinions(cycle_positions(adj, l0), l1)
    raise ValueError("exact opinions are defined here for trees and cycles only")


def exact_bin(a: int, D: int, R: int) -> int:
    """0-based bin of the opinion a/D: bins are [i/R, (i+1)/R), the last closed."""
    return min(R * a // D, R - 1)


def seed_bin(a: int, D: int, R: int) -> int:
    """0-based bin that opdiv 0.1.0 gives the exact opinion a/D (a known defect).

    It snaps an opinion within 1e-9 of a boundary to the float k/R and takes
    floor((k/R)*R), which is k-1 for some (k, R): an opinion exactly on an
    interior boundary can land one bin low. Off-boundary opinions a/D with
    D <= n are at least 1/(D*R) from any boundary, far outside the snap.
    """
    k, rem = divmod(R * a, D)
    if rem == 0 and 0 < k < R:
        return math.floor((k / R) * R)
    return min(k, R - 1)


def histogram(opinions: dict, R: int, bin_of=exact_bin) -> tuple:
    """Bin counts c_1..c_R of exact opinions a/D."""
    counts = [0] * R
    for a, D in opinions.values():
        counts[bin_of(a, D, R)] += 1
    return tuple(counts)


def simpson(counts) -> Fraction:
    n_f = sum(counts)
    return 1 - Fraction(sum(c * (c - 1) for c in counts), n_f * (n_f - 1))


def shannon(counts) -> float:
    n_f = sum(counts)
    return -math.fsum((c / n_f) * math.log(c / n_f) for c in counts if c > 0) + 0.0


def placement_table(n: int, edges, l0: int, R: int, bin_of=exact_bin) -> dict:
    """Scores of every candidate l1 on a tree or cycle, and both argmax sets.

    Returns {"scores": {l1: (simpson Fraction, shannon float)},
    "argmax_simpson": set, "argmax_shannon": set}.
    """
    adj = adjacency(n, edges)
    if is_tree(n, adj):
        dist0 = bfs_distances(adj, l0)

        def opinions(l1):
            return tree_opinions(dist0, bfs_distances(adj, l1), l0, l1)
    elif is_cycle(n, adj):
        pos = cycle_positions(adj, l0)

        def opinions(l1):
            return cycle_opinions(pos, l1)
    else:
        raise ValueError("placement table is defined here for trees and cycles only")
    scores = {}
    for l1 in range(1, n + 1):
        if l1 != l0:
            h = histogram(opinions(l1), R, bin_of)
            scores[l1] = (simpson(h), shannon(h))
    best_s = max(s for s, _ in scores.values())
    best_h = max(h for _, h in scores.values())
    return {
        "scores": scores,
        "argmax_simpson": {v for v, (s, _) in scores.items() if best_s - s <= TIE_TOL},
        "argmax_shannon": {v for v, (_, h) in scores.items() if h >= best_h - TIE_TOL},
    }


def tree_resistances(adj: list, l0: int, l1: int) -> dict:
    """Follower u -> exact r(u, {l0, l1}) = h + a(D - a)/D on a tree.

    h = d(u, pi(u)) where pi(u) is the point at which u meets the l0-l1 path
    and a = d(l0, pi(u)): the path to pi(u) in series with the two arms of
    the leader path in parallel.
    """
    dist0, dist1 = bfs_distances(adj, l0), bfs_distances(adj, l1)
    D = dist0[l1]
    out = {}
    for u in range(1, len(adj)):
        if u in (l0, l1):
            continue
        h = (dist0[u] + dist1[u] - D) // 2
        a = dist0[u] - h
        out[u] = h + Fraction(a * (D - a), D)
    return out


def harmonic_error(adj: list, x: dict, l0: int, l1: int) -> float:
    """Largest violation of the steady-state equations by follower opinions x.

    Each follower must equal the mean of its neighbours (l0 pinned at 0, l1 at
    1) and lie in [0, 1]; every follower must be present. Returns inf when the
    follower set is wrong.
    """
    followers = set(range(1, len(adj))) - {l0, l1}
    if set(x) != followers:
        return math.inf
    value = dict(x)
    value[l0], value[l1] = 0.0, 1.0
    worst = 0.0
    for v in followers:
        xv = value[v]
        worst = max(worst, -xv, xv - 1.0)
        mean = math.fsum(value[w] for w in adj[v]) / len(adj[v])
        worst = max(worst, abs(xv - mean))
    return worst


def boundary_margin(x: dict, R: int) -> float:
    """Smallest distance of any opinion to an interior bin boundary k/R."""
    margin = math.inf
    for v in x.values():
        k = min(max(round(v * R), 1), R - 1)
        margin = min(margin, abs(v - k / R))
    return margin


def float_histogram(x: dict, R: int) -> tuple:
    """Bin counts of float opinions that are clear of every interior boundary."""
    counts = [0] * R
    for v in x.values():
        counts[min(max(math.floor(v * R), 0), R - 1)] += 1
    return tuple(counts)


def inverse_error(adj: list, inv, follower_index: dict) -> float:
    """max |Lff @ inv - I| with Lff built from the edge list, rows ordered by
    follower_index (follower -> row), so inv's diagonal is r(u, leader set)."""
    m = len(follower_index)
    if inv.shape != (m, m):
        return math.inf
    lff = np.zeros((m, m))
    for u, i in follower_index.items():
        lff[i, i] = len(adj[u])
        for w in adj[u]:
            j = follower_index.get(w)
            if j is not None:
                lff[i, j] = -1.0
    return float(np.max(np.abs(lff @ inv - np.eye(m))))
