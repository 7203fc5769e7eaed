"""Weighted-digraph encoding of the gap of a degree-3 polynomial.

The permanent of an integer matrix equals the total weight of all cycle
covers of the digraph the matrix describes.  This module assembles, for
a polynomial f with m terms, a digraph G_f whose cycle covers group by
variable assignment: each assignment contributes 4^{3m} times -1 if it
satisfies an odd number of terms and +1 otherwise, so

    Per(G_f) = 4^{3m} * gap(f).

Three gadget shapes do the work.  A 4-node term gadget sums to -1 over
its internal covers exactly when all three of its placeholder edges are
routed externally, and to +1 otherwise.  A variable gadget is a chain
whose covers are all-or-nothing on its placeholder edges: the top
2-cycle (variable = 1) leaves the chain to self-loops, the chain path
(variable = 0) uses every placeholder.  Each placeholder pair (one term
side, one variable side) is spliced through a 4-node XOR gadget that
kills covers using both or neither route and multiplies single-route
covers by 4.  Variables with no occurrences get a single node with a
weight-2 loop, the factor a free variable contributes to the gap.

Terms with fewer than three variables are padded by repeating the last
variable, so every term gadget has exactly three placeholder slots and
the XOR count is exactly 3m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_sample_size
from .permanents import permanent_ryser
from .poly3 import Poly3, gap_bruteforce

# internal 4x4 block of the XOR gadget, node order (a, b, c, d);
# routes enter at a or d and exit at the other, each with path sum 4
_XOR_BLOCK = (
    (0, 1, -1, -1),
    (1, -1, 1, 1),
    (0, 1, 1, 2),
    (0, 1, 3, 0),
)


@dataclass(frozen=True)
class XorLink:
    """One placeholder pairing routed through an XOR gadget."""

    nodes: tuple[int, int, int, int]  # (a, b, c, d)
    term_index: int
    slot: int  # 0..2 within the padded term
    variable: int
    # the four splice edges: (X,d), (a,Y) term side; (U,a), (d,U') variable side
    external_edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GadgetGraph:
    node_count: int
    matrix: np.ndarray  # int64 adjacency, entry (i,j) = weight of i -> j
    term_nodes: tuple[tuple[int, int, int, int], ...]  # (v', c, v, w) per term
    variable_nodes: dict[int, tuple[int, ...]]  # variable -> its node indices
    xor_links: tuple[XorLink, ...]
    term_count: int


def padded_terms(f: Poly3) -> list[tuple[int, int, int]]:
    """Terms of f as 3-variable slots, short terms padded by repetition."""
    out = []
    for term in f.terms:
        if len(term) == 1:
            out.append((term[0], term[0], term[0]))
        elif len(term) == 2:
            out.append((term[0], term[1], term[1]))
        else:
            out.append(term)
    return out


def node_count(f: Poly3) -> int:
    """16m plus (t_v + 1) summed over all n variables (t_v = occurrences)."""
    terms = padded_terms(f)
    occ = [0] * f.n
    for term in terms:
        for v in term:
            occ[v] += 1
    return 16 * len(terms) + sum(t + 1 for t in occ)


def build_graph(f: Poly3) -> GadgetGraph:
    """Assemble the gadget digraph for f.  Needs at least one term."""
    terms = padded_terms(f)
    m = len(terms)
    if m == 0:
        raise ValueError("the empty polynomial has no term gadgets")
    # 16 nodes per term gadget and t + 1 per variable occurring t times; the
    # padded terms hold 3m occurrences, so no per-variable count is needed
    total = 16 * m + f.n + 3 * m
    check_sample_size(total * total, "build_graph: matrix entries")
    occ = [0] * f.n
    for term in terms:
        for v in term:
            occ[v] += 1
    mat = np.zeros((total, total), dtype=np.int64)

    # term gadgets first: nodes (v', c, v, w) at 4k..4k+3
    term_nodes = []
    for k in range(m):
        vp, c, v, w = range(4 * k, 4 * k + 4)
        term_nodes.append((vp, c, v, w))
        mat[vp, c] = 1
        mat[c, vp] = 1
        mat[c, c] = -1
        mat[c, v] = 1
        mat[c, w] = 1
        mat[v, c] = 1
        mat[v, w] = 1
        mat[w, v] = 1
        mat[w, c] = 2
    # placeholder slots, fixed order: (v'->w, v->v', w->v)
    term_slots = [
        ((vp, w), (v, vp), (w, v)) for (vp, c, v, w) in term_nodes
    ]

    # variable gadgets next, in variable order
    cursor = 4 * m
    variable_nodes: dict[int, tuple[int, ...]] = {}
    var_slots: dict[int, list[tuple[int, int]]] = {}
    for j in range(f.n):
        t = occ[j]
        nodes = tuple(range(cursor, cursor + t + 1))
        cursor += t + 1
        variable_nodes[j] = nodes
        if t == 0:
            mat[nodes[0], nodes[0]] = 2  # free variable: gap factor 2
            var_slots[j] = []
            continue
        mat[nodes[0], nodes[-1]] = 1  # top 2-cycle: variable = 1
        mat[nodes[-1], nodes[0]] = 1
        for p in nodes[1:-1]:
            mat[p, p] = 1
        var_slots[j] = [(nodes[i], nodes[i + 1]) for i in range(t)]

    # XOR gadgets last: term-major, slot-minor; each consumes the next
    # unconsumed chain placeholder of its variable
    consumed = [0] * f.n
    links = []
    for k, term in enumerate(terms):
        for slot in range(3):
            j = term[slot]
            x_from, x_to = term_slots[k][slot]
            u_from, u_to = var_slots[j][consumed[j]]
            consumed[j] += 1
            a, b, c, d = range(cursor, cursor + 4)
            cursor += 4
            for i in range(4):
                for jj in range(4):
                    if _XOR_BLOCK[i][jj]:
                        mat[a + i, a + jj] = _XOR_BLOCK[i][jj]
            ext = ((x_from, d), (a, x_to), (u_from, a), (d, u_to))
            for frm, to in ext:
                mat[frm, to] = 1
            links.append(
                XorLink(
                    nodes=(a, b, c, d),
                    term_index=k,
                    slot=slot,
                    variable=j,
                    external_edges=ext,
                )
            )

    assert cursor == total
    assert all(consumed[j] == occ[j] for j in range(f.n))
    return GadgetGraph(
        node_count=total,
        matrix=mat,
        term_nodes=tuple(term_nodes),
        variable_nodes=variable_nodes,
        xor_links=tuple(links),
        term_count=m,
    )


@dataclass(frozen=True)
class ReductionCheck:
    perm: int
    expected: int
    ok: bool
    node_count: int


def verify_reduction(f: Poly3) -> ReductionCheck:
    """Compare Per(G_f) with 4^{3m} gap(f), both exact integers."""
    graph = build_graph(f)
    perm = permanent_ryser(graph.matrix)
    expected = 4 ** (3 * graph.term_count) * gap_bruteforce(f)
    return ReductionCheck(
        perm=int(perm),
        expected=int(expected),
        ok=perm == expected,
        node_count=graph.node_count,
    )


def matrix_to_json_dict(graph: GadgetGraph) -> dict:
    return {
        "node_count": graph.node_count,
        "term_count": graph.term_count,
        "matrix": graph.matrix.tolist(),
    }
