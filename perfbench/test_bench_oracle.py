"""The benchmark's oracle rejects broken outputs and accepts good ones.

    PYTHONPATH=src python -m pytest perfbench/test_bench_oracle.py -q
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402


def _cycle(n: int):
    eu = np.arange(n, dtype=np.int64)
    ev = (eu + 1) % n
    return np.minimum(eu, ev), np.maximum(eu, ev)


@pytest.fixture
def cycle6():
    n = 6
    eu, ev = _cycle(n)
    offsets, values = oracle.delta_plus_one_lists(n, eu, ev)
    colors = np.array([0, 1, 0, 1, 0, 1])
    return n, eu, ev, offsets, values, colors


def test_accepts_a_proper_in_list_coloring(cycle6):
    assert oracle.check_coloring(*cycle6) == []


def test_delta_plus_one_lists_are_zero_to_degree():
    eu, ev = np.array([0, 0]), np.array([1, 2])
    offsets, values = oracle.delta_plus_one_lists(3, eu, ev)
    assert offsets.tolist() == [0, 3, 5, 7]
    assert values.tolist() == [0, 1, 2, 0, 1, 0, 1]


def test_rejects_a_neighbour_color_taken_over(cycle6):
    n, eu, ev, offsets, values, colors = cycle6
    colors = colors.copy()
    colors[1] = colors[0]  # node 1 takes its neighbour's color
    problems = oracle.check_coloring(n, eu, ev, offsets, values, colors)
    assert any("monochromatic" in p for p in problems)


def test_rejects_swapped_colors_that_leave_a_list():
    # Path 0-1-2: lists {0,1}, {0,1,2}, {0,1}.  Swapping the colors of
    # nodes 0 and 1 in (0, 2, 1) keeps the coloring proper but puts color
    # 2 on node 0, outside its list.
    eu, ev = np.array([0, 1]), np.array([1, 2])
    offsets, values = oracle.delta_plus_one_lists(3, eu, ev)
    good = np.array([0, 2, 1])
    assert oracle.check_coloring(3, eu, ev, offsets, values, good) == []
    swapped = good[[1, 0, 2]]
    problems = oracle.check_coloring(3, eu, ev, offsets, values, swapped)
    assert any("outside their list" in p for p in problems)


def test_rejects_an_out_of_list_color(cycle6):
    n, eu, ev, offsets, values, colors = cycle6
    colors = colors.copy()
    colors[2] = 5  # proper, but node 2's list is {0, 1, 2}
    problems = oracle.check_coloring(n, eu, ev, offsets, values, colors)
    assert any("outside their list" in p for p in problems)
    assert not any("monochromatic" in p for p in problems)


def test_rejects_an_uncolored_node(cycle6):
    n, eu, ev, offsets, values, colors = cycle6
    colors = colors.copy()
    colors[3] = -1
    problems = oracle.check_coloring(n, eu, ev, offsets, values, colors)
    assert any("uncolored" in p for p in problems)


def test_rejects_a_coloring_of_the_wrong_length(cycle6):
    n, eu, ev, offsets, values, colors = cycle6
    assert oracle.check_coloring(n, eu, ev, offsets, values, colors[:-1])


def test_pass_progress_and_count():
    assert oracle.check_passes(64, [(64, 8), (56, 56)]) == []
    assert oracle.check_passes(64, [(64, 7), (57, 57)])  # below 1/8
    assert oracle.check_passes(64, [(64, 16), (48, 48)], avoid_mis=True) == []
    assert oracle.check_passes(64, [(64, 15), (49, 49)], avoid_mis=True)  # below 1/4
    too_many = [(64, 64)] * (oracle.max_passes(64) + 1)
    assert any("exceed" in p for p in oracle.check_passes(64, too_many))


def test_pass_history_must_add_up():
    # A solver that misreports its progress: each pass must start with the
    # nodes the one before left uncolored, beginning with all n.
    assert any("starts with" in p for p in oracle.check_passes(64, [(64, 8), (50, 50)]))
    assert any("starts with" in p for p in oracle.check_passes(64, [(60, 60)]))
    # The passes must color every node, or leave exactly the endgame's share.
    assert any("uncolored" in p for p in oracle.check_passes(64, [(64, 8), (56, 50)]))
    assert oracle.check_passes(64, [(64, 16), (48, 40)], avoid_mis=True, left_over=8) == []
    assert oracle.check_passes(64, [(64, 16), (48, 48)], avoid_mis=True, left_over=8)
    assert any("uncolored" in p for p in oracle.check_passes(5, []))


def test_decomposition_partition_and_classes():
    # Path 0-1-2-3 cut into clusters {0,1}, {2}, {3}.
    eu, ev = np.array([0, 1, 2]), np.array([1, 2, 3])
    nodes = [np.array([0, 1]), np.array([2]), np.array([3])]
    assert oracle.check_decomposition(4, eu, ev, nodes, [1, 2, 1]) == []
    # Two adjacent clusters ({2} and {3}) in the same class.
    problems = oracle.check_decomposition(4, eu, ev, nodes, [1, 2, 2])
    assert any("same-class" in p for p in problems)
    # Node 3 uncovered, node 2 covered twice.
    overlap = [np.array([0, 1]), np.array([2]), np.array([2])]
    assert any("partition" in p for p in oracle.check_decomposition(4, eu, ev, overlap, [1, 2, 3]))


def _result(colors, ledger, passes):
    return SimpleNamespace(
        colors=np.array(colors),
        rounds=SimpleNamespace(breakdown=lambda: dict(ledger)),
        passes=[SimpleNamespace(active_before=a, colored=c) for a, c in passes],
    )


def test_served_result_must_equal_the_standalone_solve():
    reference = _result([0, 1, 0], {"mis": 3}, [(3, 3)])
    assert oracle.check_same_result(_result([0, 1, 0], {"mis": 3}, [(3, 3)]), reference) == []
    assert oracle.check_same_result(_result([1, 0, 1], {"mis": 3}, [(3, 3)]), reference)
    assert oracle.check_same_result(_result([0, 1, 0], {"mis": 4}, [(3, 3)]), reference)
    assert oracle.check_same_result(_result([0, 1, 0], {"mis": 3}, [(3, 2), (1, 1)]), reference)
