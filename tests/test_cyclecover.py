"""Gadget-graph reduction tests.

The authoritative gate is the exact identity Per(G_f) = 4^{3m} gap(f)
over every single-term polynomial on n <= 5 variables; the gadget
transcription stands or falls with it.  Local gadget semantics are also
pinned directly:

- term gadget: permanent of the solid 4x4 block with the rows and
  columns of each used-placeholder subset removed equals -1 for the
  full subset and +1 for the other seven (hand permutation sums).
- XOR block: internal permanent 0, both-route leftover permanent 0,
  single-route path sums 4 (hand permutation sums).
- node counts 20/21/22 follow from 16m + sum(t_v + 1).

gap = 0 instances double as sign certificates: the permanent vanishes
only because the all-placeholder cover carries weight -1, so a sign
error in the transcription would show up as 2 * 4^{3m} instead of 0.
"""

import itertools

import numpy as np
import pytest

from gapbench import cyclecover as cc
from gapbench.permanents import permanent_naive, permanent_ryser
from gapbench.config import CapExceeded
from gapbench.poly3 import Poly3, gap_bruteforce, parse_poly


def single_term_polys(max_n):
    for n in range(1, max_n + 1):
        for size in (1, 2, 3):
            for term in itertools.combinations(range(n), size):
                yield Poly3.from_terms(n, [term])


# -- node accounting ----------------------------------------------------------


def test_node_counts():
    assert cc.node_count(parse_poly("x1*x2*x3", 3)) == 22
    assert cc.node_count(parse_poly("x1", 1)) == 20
    assert cc.node_count(parse_poly("x1*x2", 2)) == 21


def test_padding():
    assert cc.padded_terms(parse_poly("x1", 1)) == [(0, 0, 0)]
    assert cc.padded_terms(parse_poly("x1*x2", 2)) == [(0, 1, 1)]
    assert cc.padded_terms(parse_poly("x1*x2*x3", 3)) == [(0, 1, 2)]


def test_empty_polynomial_rejected():
    with pytest.raises(ValueError):
        cc.build_graph(Poly3.from_terms(2, []))


# -- frozen reduction examples ------------------------------------------------


def test_reduction_examples():
    assert cc.verify_reduction(parse_poly("x1", 1)).perm == 0
    check = cc.verify_reduction(parse_poly("x1*x2*x3", 3))
    assert (check.perm, check.expected, check.ok) == (384, 384, True)
    check = cc.verify_reduction(parse_poly("x1*x2", 2))
    assert (check.perm, check.expected, check.ok) == (128, 128, True)


def test_reduction_exhaustive_single_term():
    # includes instances with unused variables, e.g. x1 over n = 5; the
    # 25 at n = 5 reach d = 24
    for f in single_term_polys(5):
        check = cc.verify_reduction(f)
        assert check.ok, f"{f}: perm {check.perm} != {check.expected}"


def test_reduction_with_free_variables():
    # x2*x4*x7 over n = 8 leaves five free variables, each doubling the
    # gap: d = 16 + 3*2 + 5 = 27, and gap = 2^8 - 2*2^5 = 192
    f = parse_poly("x2*x4*x7", 8)
    assert cc.node_count(f) == 27
    check = cc.verify_reduction(f)
    assert (check.perm, check.expected, check.ok) == (4**3 * 192, 4**3 * 192, True)


def test_gate_catches_a_sign_error():
    # flipping the term-gadget center loop must break the identity
    f = parse_poly("x1*x2*x3", 3)
    graph = cc.build_graph(f)
    broken = graph.matrix.copy()
    _, c, _, _ = graph.term_nodes[0]
    broken[c, c] = 1
    expected = 4 ** (3 * graph.term_count) * gap_bruteforce(f)
    assert permanent_ryser(broken) != expected


# -- local gadget semantics ---------------------------------------------------

TERM_SOLID = np.array(
    [
        [0, 1, 0, 0],  # v'
        [1, -1, 1, 1],  # c
        [0, 1, 0, 1],  # v
        [0, 2, 1, 0],  # w
    ],
    dtype=np.int64,
)

# placeholder k removes row SLOT_ROWS[k] and column SLOT_COLS[k] when used
SLOT_ROWS = (0, 2, 3)  # v', v, w
SLOT_COLS = (3, 0, 2)  # w, v', v


def test_term_gadget_cover_factors():
    for used in itertools.product((False, True), repeat=3):
        keep_rows = [i for i in range(4) if i not in
                     {SLOT_ROWS[k] for k in range(3) if used[k]}]
        keep_cols = [j for j in range(4) if j not in
                     {SLOT_COLS[k] for k in range(3) if used[k]}]
        sub = TERM_SOLID[np.ix_(keep_rows, keep_cols)]
        factor = permanent_naive(sub)
        assert factor == (-1 if all(used) else 1), used


def test_xor_block_semantics():
    block = np.array(cc._XOR_BLOCK, dtype=np.int64)
    assert permanent_naive(block) == 0  # no route: covers cancel
    assert permanent_naive(block[np.ix_([1, 2], [1, 2])]) == 0  # both routes
    # one route: path sums from a to d and from d to a are both 4
    assert permanent_naive(block[np.ix_([0, 1, 2], [1, 2, 3])]) == 4
    assert permanent_naive(block[np.ix_([1, 2, 3], [0, 1, 2])]) == 4


def test_xor_exclusivity_breaks_graph():
    # removing one gadget's splice edges leaves no valid cover at all
    f = parse_poly("x1*x2", 2)
    graph = cc.build_graph(f)
    for link in graph.xor_links:
        cut = graph.matrix.copy()
        for frm, to in link.external_edges:
            cut[frm, to] = 0
        assert permanent_ryser(cut) == 0


# -- structural bookkeeping ---------------------------------------------------


def test_structure_multi_term():
    f = parse_poly("x1 + x1*x2", 2)  # pads to x1x1x1 and x1x2x2
    graph = cc.build_graph(f)
    assert graph.term_count == 2
    assert graph.node_count == 16 * 2 + (4 + 1) + (2 + 1)
    assert len(graph.xor_links) == 6
    # each variable placeholder consumed exactly once, in chain order
    seen = {j: [] for j in graph.variable_nodes}
    for link in graph.xor_links:
        (_, _), (_, _), (u_from, _), (_, u_to) = link.external_edges
        seen[link.variable].append((u_from, u_to))
    x1 = graph.variable_nodes[0]
    x2 = graph.variable_nodes[1]
    assert seen[0] == [(x1[i], x1[i + 1]) for i in range(4)]
    assert seen[1] == [(x2[i], x2[i + 1]) for i in range(2)]


def test_free_variable_is_weight_two_loop():
    f = parse_poly("x1", 3)
    graph = cc.build_graph(f)
    for j in (1, 2):
        nodes = graph.variable_nodes[j]
        assert len(nodes) == 1
        assert graph.matrix[nodes[0], nodes[0]] == 2


def test_deterministic_matrix():
    f = parse_poly("x1*x2 + x2*x3", 3)
    a = cc.build_graph(f).matrix
    b = cc.build_graph(f).matrix
    assert np.array_equal(a, b)


def test_verify_respects_cap():
    f = parse_poly("x1 + x1*x2", 2)  # 40 nodes, past the default cap
    with pytest.raises(CapExceeded):
        cc.verify_reduction(f)


def test_matrix_json_shape():
    f = parse_poly("x1", 1)
    d = cc.matrix_to_json_dict(cc.build_graph(f))
    assert d["node_count"] == 20
    assert d["term_count"] == 1
    assert len(d["matrix"]) == 20
    assert all(len(row) == 20 for row in d["matrix"])
