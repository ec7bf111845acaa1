"""Spans around calls into opdiv's public functions, installed from outside.

A module-level function in opdiv is reached through every name it is bound
to: its defining module, each module that imported it with `from ... import`,
and the package namespace. `Tracer.install` replaces the function at every one
of those binding sites with a timing wrapper and `Tracer.remove` puts the
originals back. No file of the package changes. Build a Tracer while no other
one is installed.

Spans are folded into per-name totals as they close: the number of calls, the
inclusive time, and the self time (duration minus the time of child spans).
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# span name -> (defining module, function name). Several functions may share
# one span name; "diversity.score" covers every scoring entry point.
TARGETS = {
    "cli.main": [("opdiv.cli", "main")],
    "graphs.laplacian_blocks": [("opdiv.graphs", "laplacian_blocks")],
    "graphs.tree_path": [("opdiv.graphs", "tree_path")],
    "graphs.partition_followers": [("opdiv.graphs", "partition_followers")],
    "dynamics.steady_state": [("opdiv.dynamics", "steady_state")],
    "diversity.bin_opinions": [("opdiv.diversity", "bin_opinions")],
    "diversity.score": [
        ("opdiv.diversity", "score"),
        ("opdiv.diversity", "simpson_index"),
        ("opdiv.diversity", "shannon_index"),
    ],
    "placement.brute_force_best": [("opdiv.placement", "brute_force_best")],
    "placement.check_balanced_tree_placement": [
        ("opdiv.placement", "check_balanced_tree_placement")
    ],
    "resistance.grounded_inverse": [("opdiv.resistance", "grounded_inverse")],
    "verify.paths": [("opdiv.verify", "verify_paths")],
    "verify.cycles": [("opdiv.verify", "verify_cycles")],
    "verify.ytrees": [("opdiv.verify", "verify_ytrees")],
    "verify.trees-R2": [("opdiv.verify", "verify_trees_r2")],
    "verify.appendix": [("opdiv.verify", "verify_appendix")],
    "verify.audit_theorem2": [("opdiv.verify", "audit_theorem2")],
}


class Tracer:
    """Per-name span totals for the calls made while it is installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)  # work counts taken at span boundaries
        self._child_s = []  # per open span: time covered by its children
        self._patches = self._binding_sites()  # (namespace dict, name, original, wrapper)

    def span(self, name: str, fn, count=None):
        """Wrap fn in a span; count(args, result) adds work counts when it returns."""
        clock = time.perf_counter
        child_s = self._child_s

        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = child_s.pop()
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - inner
                if child_s:
                    child_s[-1] += dur
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def _binding_sites(self) -> list:
        importlib.import_module("opdiv.cli")  # every module that binds a target
        modules = [m for k, m in sys.modules.items() if k == "opdiv" or k.startswith("opdiv.")]
        patches = []
        for name, sites in TARGETS.items():
            for module_name, attr in sites:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self.span(name, original, COUNTERS.get(attr))
                for module in modules:
                    ns = vars(module)
                    patches.extend((ns, key, original, wrapper)
                                   for key, value in ns.items() if value is original)
        return patches

    def install(self) -> None:
        for ns, key, _, wrapper in self._patches:
            ns[key] = wrapper

    def remove(self) -> None:
        for ns, key, original, _ in self._patches:
            ns[key] = original

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def _count_candidates(counts, args, result):
    counts["placement.candidates"] += len(result.scores)


def _count_certified(counts, args, result):
    counts["placement.check_balanced_tree_placement.certified"] += bool(result)


COUNTERS = {
    "brute_force_best": _count_candidates,
    "check_balanced_tree_placement": _count_certified,
}
