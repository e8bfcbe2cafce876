"""Benchmark-owned input generators.

These are deliberate copies of the test-suite fixtures the workloads need, so
that editing the tests can never move the benchmark.  The random sum-network
generator draws from its ``random.Random`` in exactly the same order as the
test helper, so "rand#i (seed 7)" names the same network in both places.
"""

from __future__ import annotations

import random

from sumnet import FieldSpec, LinearCode, MatrixGF
from sumnet.netmodel import Demand, Edge, Network, recover


def _edge(tail: str, head: str) -> Edge:
    return Edge(f"{tail}>{head}", tail, head)


# -- micro multiple-unicast corpus, with its verdicts over GF(2) --------------


def path1() -> Network:
    """One pair, one edge: solvable over every field."""
    return Network("path1", ("w_1", "z_1"), (_edge("w_1", "z_1"),),
                   {"w_1": ("a",)}, {"z_1": recover("a")})


def disc1() -> Network:
    """One pair, no path: unsolvable over every field."""
    return Network("disc1", ("w_1", "z_1"), (), {"w_1": ("a",)}, {"z_1": recover("a")})


def disjoint2() -> Network:
    """Two pairs on disjoint edges: solvable over every field."""
    return Network(
        "disjoint2",
        ("w_1", "w_2", "z_1", "z_2"),
        (_edge("w_1", "z_1"), _edge("w_2", "z_2")),
        {"w_1": ("a",), "w_2": ("b",)},
        {"z_1": recover("a"), "z_2": recover("b")},
    )


def crossed2() -> Network:
    """Two crossed pairs sharing one middle line: solvable with coding."""
    edges = (
        Edge("w_1>mid", "w_1", "mid"),
        Edge("w_2>mid", "w_2", "mid"),
        Edge("mid>out", "mid", "out"),
        Edge("out>z_1", "out", "z_1"),
        Edge("out>z_2", "out", "z_2"),
        Edge("w_1>z_1", "w_1", "z_1"),
        Edge("w_2>z_2", "w_2", "z_2"),
    )
    return Network(
        "crossed2",
        ("w_1", "w_2", "mid", "out", "z_1", "z_2"),
        edges,
        {"w_1": ("a",), "w_2": ("b",)},
        {"z_1": recover("b"), "z_2": recover("a")},
    )


def bottleneck2() -> Network:
    """Two pairs squeezed through one shared unit edge: unsolvable."""
    edges = (
        Edge("w_1>hub_in", "w_1", "hub_in"),
        Edge("w_2>hub_in", "w_2", "hub_in"),
        Edge("hub_in>hub_out", "hub_in", "hub_out"),
        Edge("hub_out>z_1", "hub_out", "z_1"),
        Edge("hub_out>z_2", "hub_out", "z_2"),
    )
    return Network(
        "bottleneck2",
        ("w_1", "w_2", "hub_in", "hub_out", "z_1", "z_2"),
        edges,
        {"w_1": ("x1",), "w_2": ("x2",)},
        {"z_1": recover("x1"), "z_2": recover("x2")},
    )


# (network, its scalar linear verdict over GF(2))
MUN_CORPUS = (
    (path1, "solvable"),
    (disc1, "unsolvable"),
    (disjoint2, "solvable"),
    (crossed2, "solvable"),
    (bottleneck2, "unsolvable"),
)


def bi22() -> Network:
    """Complete bipartite 2x2 sum network."""
    edges = tuple(_edge(f"w_{i}", f"z_{j}") for i in (1, 2) for j in (1, 2))
    return Network(
        "bi22",
        ("w_1", "w_2", "z_1", "z_2"),
        edges,
        {"w_1": ("a",), "w_2": ("b",)},
        {"z_1": Demand("sum"), "z_2": Demand("sum")},
    )


# -- random inputs -------------------------------------------------------------


def random_sum_network(rng: random.Random, max_nodes: int) -> Network:
    """Layered random DAG with 1-2 single-message sources and 1-2 sum terminals."""
    n_nodes = rng.randint(4, max_nodes)
    names = [f"n{i}" for i in range(n_nodes)]
    srcs = names[:rng.randint(1, 2)]
    terms = names[-rng.randint(1, 2):]
    edges = []
    for i, a in enumerate(names):
        if a in terms:
            continue
        for b in names[i + 1:]:
            if b not in srcs and rng.random() < 0.5:
                edges.append(_edge(a, b))
    return Network(
        f"rand{rng.randrange(10**6)}",
        tuple(names),
        tuple(edges),
        {s: (f"m_{s}",) for s in srcs},
        {t: Demand("sum") for t in terms},
    )


def relabel(rng: random.Random, net: Network) -> Network:
    """The same sum network under fresh random node and message ids."""
    ids = rng.sample(range(10_000), len(net.nodes))
    new = {v: f"v{i}" for v, i in zip(net.nodes, ids)}
    return Network(
        net.name,
        tuple(new[v] for v in net.nodes),
        tuple(_edge(new[e.tail], new[e.head]) for e in net.edges),
        {new[s]: (f"m_{new[s]}",) for s in net.sources},
        {new[t]: Demand("sum") for t in net.terminals},
    )


def random_matrix(rng: random.Random, field: FieldSpec, rows: int, cols: int) -> MatrixGF:
    return MatrixGF(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])


def random_invertible(rng: random.Random, field: FieldSpec, k: int) -> MatrixGF:
    """A uniformly random invertible k x k matrix, k <= 2 (checked by determinant)."""
    if k > 2:
        raise ValueError("random_invertible supports k <= 2")
    while True:
        a = random_matrix(rng, field, k, k).tolists()
        det = a[0][0] if k == 1 else a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det % field.p:
            return MatrixGF(field, a)


def random_code(rng: random.Random, net: Network, field: FieldSpec, k: int) -> LinearCode:
    """Uniformly random (k, k) coefficients on every slot the network offers."""
    src, loc, dec = {}, {}, {}
    for e in net.edges:
        if e.tail in net.sources:
            for m in net.sources[e.tail]:
                src[(m, e.id)] = random_matrix(rng, field, k, k)
        else:
            for ein in net.in_edges(e.tail):
                loc[(ein.id, e.id)] = random_matrix(rng, field, k, k)
    for t, d in net.terminals.items():
        for slot in range(len(d.slots())):
            for e in net.in_edges(t):
                dec[(t, e.id, slot)] = random_matrix(rng, field, k, k)
    return LinearCode(field, k, k, src, loc, dec)
