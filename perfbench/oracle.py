"""Output oracle for the benchmark: the properties every solve must have.

The checks run on plain arrays the benchmark captured from its own inputs
(edge endpoints, CSR color lists) and on the solver's outputs.  They are
written here from the paper's statements, not taken from
``repro.core.validation``, so a fault shared by the solver and the
program's own validator cannot pass unseen.

Each check returns a list of human-readable violations; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np


def delta_plus_one_lists(n: int, eu: np.ndarray, ev: np.ndarray):
    """CSR lists of the (Δ+1)-coloring reduction (Observation 4.1): node
    ``v`` may take any color in ``0..deg(v)``.  Returns ``(offsets,
    values)``."""
    deg = np.bincount(np.concatenate([eu, ev]), minlength=n).astype(np.int64)
    sizes = deg + 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    values = np.arange(offsets[-1], dtype=np.int64) - np.repeat(offsets[:-1], sizes)
    return offsets, values


def check_coloring(
    n: int,
    eu: np.ndarray,
    ev: np.ndarray,
    list_offsets: np.ndarray,
    list_values: np.ndarray,
    colors,
) -> list[str]:
    """Complete, proper and in-list.

    ``eu``/``ev`` are the edge endpoints; node ``v``'s list is
    ``list_values[list_offsets[v]:list_offsets[v + 1]]``."""
    colors = np.asarray(colors)
    if colors.shape != (n,):
        return [f"coloring has shape {colors.shape}, expected ({n},)"]
    problems = []
    uncolored = np.flatnonzero(colors < 0)
    if uncolored.size:
        problems.append(
            f"{uncolored.size} uncolored node(s), first {int(uncolored[0])}"
        )
    clash = np.flatnonzero(colors[eu] == colors[ev])
    if clash.size:
        e = int(clash[0])
        problems.append(
            f"{clash.size} monochromatic edge(s), first "
            f"({int(eu[e])}, {int(ev[e])}) with color {int(colors[eu[e]])}"
        )
    sizes = np.diff(list_offsets)
    owner = np.repeat(np.arange(n), sizes)
    hit = np.bincount(owner[list_values == colors[owner]], minlength=n)
    off_list = np.flatnonzero((hit == 0) & (colors >= 0))
    if off_list.size:
        v = int(off_list[0])
        problems.append(
            f"{off_list.size} node(s) colored outside their list, first "
            f"{v} with color {int(colors[v])}"
        )
    return problems


def max_passes(n: int) -> int:
    """Theorem 1.1's pass bound: each pass colors ≥ 1/8 of the active
    nodes, so ⌈log_{8/7} n⌉ + 2 passes suffice."""
    return math.ceil(math.log(max(2, n)) / math.log(8 / 7)) + 2


def check_passes(n: int, passes, avoid_mis: bool = False, left_over: int = 0) -> list[str]:
    """Lemma 2.1 progress: every pass colors at least 1/8 of its active
    nodes (1/4 with the avoid-MIS accuracy boost), and the pass count stays
    within :func:`max_passes`.  ``passes`` is a sequence of ``(active,
    colored)`` pairs in pass order.

    The pairs must also agree with each other: the first pass starts with
    all ``n`` nodes active, each pass starts with the nodes the one before
    left uncolored, and the last leaves exactly ``left_over`` (the nodes an
    endgame colors after the passes, 0 without one)."""
    floor = 4 if avoid_mis else 8
    problems = []
    if len(passes) > max_passes(n):
        problems.append(f"{len(passes)} passes exceed the bound {max_passes(n)}")
    remaining = n
    for index, (active, colored) in enumerate(passes):
        if active != remaining:
            problems.append(
                f"pass {index} starts with {active} active nodes, but "
                f"{remaining} are uncolored"
            )
        if not 0 <= colored <= active:
            problems.append(f"pass {index} colored {colored} of {active} active nodes")
        if floor * colored < active:
            problems.append(
                f"pass {index} colored {colored} of {active} active nodes, "
                f"below 1/{floor}"
            )
        remaining = active - colored
    if remaining != left_over:
        problems.append(
            f"the passes leave {remaining} nodes uncolored, expected {left_over}"
        )
    return problems


def check_decomposition(
    n: int, eu: np.ndarray, ev: np.ndarray, cluster_nodes, cluster_classes
) -> list[str]:
    """Clusters partition V, and no edge joins two distinct clusters of the
    same class (Definition 3.1 (iii))."""
    problems = []
    owner = np.full(n, -1, dtype=np.int64)
    cover = np.zeros(n, dtype=np.int64)
    for index, nodes in enumerate(cluster_nodes):
        nodes = np.asarray(nodes, dtype=np.int64)
        np.add.at(cover, nodes, 1)
        owner[nodes] = index
    if (cover != 1).any():
        v = int(np.flatnonzero(cover != 1)[0])
        problems.append(
            f"clusters do not partition V: node {v} lies in {int(cover[v])} clusters"
        )
        return problems
    classes = np.asarray(cluster_classes, dtype=np.int64)
    cu, cv = owner[eu], owner[ev]
    bad = np.flatnonzero((cu != cv) & (classes[cu] == classes[cv]))
    if bad.size:
        e = int(bad[0])
        problems.append(
            f"{bad.size} edge(s) join same-class clusters, first "
            f"({int(eu[e])}, {int(ev[e])}) in class {int(classes[cu[e]])}"
        )
    return problems


def check_same_result(response, reference) -> list[str]:
    """Determinism: a served response equals the standalone solve of the
    same instance — colors, per-category round ledger and pass history."""
    problems = []
    if not np.array_equal(response.colors, reference.colors):
        problems.append("served colors differ from the standalone solve")
    if response.rounds.breakdown() != reference.rounds.breakdown():
        problems.append("served round ledger differs from the standalone solve")
    served = [(p.active_before, p.colored) for p in response.passes]
    alone = [(p.active_before, p.colored) for p in reference.passes]
    if served != alone:
        problems.append("served pass history differs from the standalone solve")
    return problems
