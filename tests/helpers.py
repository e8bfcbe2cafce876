"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import json
import random

import numpy as np

from sumnet import FieldSpec, LinearCode, MatrixGF, NonlinearCode
from sumnet.netmodel import Demand, Edge, Network, recover


# -- micro multiple-unicast corpus -------------------------------------------


def mun_path() -> Network:
    """One pair, one edge: solvable everywhere."""
    return Network(
        "path1",
        ("w_1", "z_1"),
        (Edge("w_1>z_1", "w_1", "z_1"),),
        {"w_1": ("a",)},
        {"z_1": recover("a")},
    )


def mun_disconnected() -> Network:
    """One pair, no path: unsolvable everywhere."""
    return Network("disc1", ("w_1", "z_1"), (), {"w_1": ("a",)}, {"z_1": recover("a")})


def mun_disjoint2() -> Network:
    """Two pairs on disjoint edges: solvable everywhere."""
    return Network(
        "disjoint2",
        ("w_1", "w_2", "z_1", "z_2"),
        (Edge("w_1>z_1", "w_1", "z_1"), Edge("w_2>z_2", "w_2", "z_2")),
        {"w_1": ("a",), "w_2": ("b",)},
        {"z_1": recover("a"), "z_2": recover("b")},
    )


def mun_crossed() -> Network:
    """Two crossed pairs sharing one middle line: needs coding, then solvable."""
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


def sum_bipartite22() -> Network:
    """Complete bipartite 2x2 sum network: solvable everywhere."""
    edges = tuple(
        Edge(f"w_{i}>z_{j}", f"w_{i}", f"z_{j}") for i in (1, 2) for j in (1, 2)
    )
    return Network(
        "bi22",
        ("w_1", "w_2", "z_1", "z_2"),
        edges,
        {"w_1": ("a",), "w_2": ("b",)},
        {"z_1": Demand("sum"), "z_2": Demand("sum")},
    )


def sum_disconnected22() -> Network:
    """z_1 never sees w_2: unsolvable sum network."""
    edges = (
        Edge("w_1>z_1", "w_1", "z_1"),
        Edge("w_1>z_2", "w_1", "z_2"),
        Edge("w_2>z_2", "w_2", "z_2"),
    )
    return Network(
        "dis22",
        ("w_1", "w_2", "z_1", "z_2"),
        edges,
        {"w_1": ("a",), "w_2": ("b",)},
        {"z_1": Demand("sum"), "z_2": Demand("sum")},
    )


def two_message_source() -> Network:
    """t recovers y from a two-message source: solvable, once a's coefficients are set.

    a's two coefficients form one enumerated block, so until it is assigned
    t's relaxed check sees a's messages only as loose rows.
    """
    return Network(
        "two_message_source",
        ("a", "b", "r", "t"),
        (
            Edge("a>t", "a", "t"),
            Edge("b>r", "b", "r"),
            Edge("b>t", "b", "t"),
            Edge("r>t", "r", "t"),
        ),
        {"a": ("x", "y"), "b": ("z",)},
        {"t": recover("y")},
    )


def parallel_pairs(m: int) -> Network:
    """m unicast pairs: w_i feeds r_i over two parallel edges and r_i -> z_i, where z_i recovers x_i.

    Each pair's r_i -> z_i block is one enumerated unit, so the linear search
    walks one bucket per pair.
    """
    edges = []
    for i in range(1, m + 1):
        w, r, z = f"w_{i}", f"r_{i}", f"z_{i}"
        edges += [Edge(f"{w}>{r}", w, r), Edge(f"{w}>{r}#2", w, r), Edge(f"{r}>{z}", r, z)]
    return Network(
        f"pairs{m}",
        tuple(v for i in range(1, m + 1) for v in (f"w_{i}", f"r_{i}", f"z_{i}")),
        tuple(edges),
        {f"w_{i}": (f"x_{i}",) for i in range(1, m + 1)},
        {f"z_{i}": recover(f"x_{i}") for i in range(1, m + 1)},
    )


def parallel_chain(relays: int) -> Network:
    """w -> r_0 -> ... -> r_{relays-1} -> t with two parallel edges per hop, where t recovers x.

    The 2 * relays edges out of the relays are enumerated 1 x 2 blocks, all in
    t's one bucket.
    """
    nodes = ["w"] + [f"r_{i}" for i in range(relays)] + ["t"]
    edges = [Edge(f"{a}>{b}{tag}", a, b) for a, b in zip(nodes, nodes[1:]) for tag in ("", "#2")]
    return Network(f"chain{relays}", tuple(nodes), tuple(edges), {"w": ("x",)}, {"t": recover("x")})


def parallel_fan(width: int) -> Network:
    """w feeds r over ``width`` parallel edges and r -> t, where t recovers x.

    The r -> t block is one 1 x width unit with width - 1 free entries.
    """
    edges = [Edge(f"w>r#{i}", "w", "r") for i in range(width)] + [Edge("r>t", "r", "t")]
    return Network(f"fan{width}", ("w", "r", "t"), tuple(edges), {"w": ("x",)}, {"t": recover("x")})


# -- random generators ---------------------------------------------------------


def random_sum_network(rng: random.Random, max_nodes: int = 10) -> Network:
    """Layered random DAG with sum demands and single-message sources."""
    n_nodes = rng.randint(4, max_nodes)
    names = [f"n{i}" for i in range(n_nodes)]
    n_src = rng.randint(1, 2)
    n_term = rng.randint(1, 2)
    srcs = names[:n_src]
    terms = names[-n_term:]
    edges = []
    for i, a in enumerate(names):
        if a in terms:
            continue
        for b in names[i + 1:]:
            if b in srcs:
                continue
            if rng.random() < 0.5:
                edges.append(Edge(f"{a}>{b}", a, b))
    return Network(
        f"rand{rng.randrange(10**6)}",
        tuple(names),
        tuple(edges),
        {s: (f"m_{s}",) for s in srcs},
        {t: Demand("sum") for t in terms},
    )


def _random_layered(rng: random.Random, name: str, n_src: int, n_relay: int, demands: list[Demand],
                    p: float) -> Network:
    """Sources w_i with message x_i, relays r_i, then terminals z_i with ``demands``; each forward edge with prob. p."""
    srcs = [f"w_{i}" for i in range(1, n_src + 1)]
    terms = [f"z_{i}" for i in range(1, len(demands) + 1)]
    names = srcs + [f"r_{i}" for i in range(1, n_relay + 1)] + terms
    edges = [Edge(f"{a}>{b}", a, b) for i, a in enumerate(names) if a not in terms
             for b in names[i + 1:] if b not in srcs and rng.random() < p]
    return Network(
        f"{name}{rng.randrange(10**6)}",
        tuple(names),
        tuple(edges),
        {s: (f"x_{i}",) for i, s in enumerate(srcs, start=1)},
        dict(zip(terms, demands)),
    )


def random_unicast_network(rng: random.Random, pairs: int = 3, relays: int = 4, p: float = 0.45) -> Network:
    """Multiple-unicast network: terminal z_i recovers source w_i's message x_i."""
    return _random_layered(rng, "mun", pairs, relays, [recover(f"x_{i}") for i in range(1, pairs + 1)], p)


def random_subset_demand_network(rng: random.Random, messages: int = 3, terminals: int = 3, relays: int = 3,
                                 p: float = 0.45) -> Network:
    """Subset-demand network: each terminal recovers a uniformly random nonempty subset of the messages."""
    masks = [rng.randrange(1, 2 ** messages) for _ in range(terminals)]
    demands = [recover(*(f"x_{i + 1}" for i in range(messages) if mask >> i & 1)) for mask in masks]
    return _random_layered(rng, "sub", messages, relays, demands, p)


def rename_ids(rng: random.Random, net: Network) -> Network:
    """The same network with every node, edge and message id replaced by a fresh random one."""
    old = [*net.nodes, *(e.id for e in net.edges), *net.messages()]
    new = dict(zip(old, (f"i{i}" for i in rng.sample(range(10**6), len(old)))))

    def demand(d: Demand) -> Demand:
        return Demand(d.kind, None if d.messages is None else tuple(new.get(m, m) for m in d.messages))

    return Network(
        f"renamed({net.name})",
        tuple(new[v] for v in net.nodes),
        tuple(Edge(new[e.id], new[e.tail], new[e.head]) for e in net.edges),
        {new[s]: tuple(new[m] for m in msgs) for s, msgs in net.sources.items()},
        {new[t]: demand(d) for t, d in net.terminals.items()},
    )


def random_code(rng: random.Random, net: Network, p: int, k: int, n: int) -> LinearCode:
    """Uniformly random coefficients on every slot the network offers."""
    f = FieldSpec(p)

    def rmat(r: int, c: int) -> MatrixGF:
        return MatrixGF(f, [[rng.randrange(p) for _ in range(c)] for _ in range(r)])

    src, loc, dec = {}, {}, {}
    for e in net.edges:
        if e.tail in net.sources:
            for m in net.sources[e.tail]:
                src[(m, e.id)] = rmat(n, k)
        else:
            for ein in net.in_edges(e.tail):
                loc[(ein.id, e.id)] = rmat(n, n)
    for t, d in net.terminals.items():
        for s in range(len(d.slots())):
            for e in net.in_edges(t):
                dec[(t, e.id, s)] = rmat(k, n)
    return LinearCode(f, k, n, src, loc, dec)


# -- independent oracles ---------------------------------------------------------


def array(m: MatrixGF) -> np.ndarray:
    """The entries of ``m`` as a new int64 array, for the numpy oracles."""
    return np.array(m.entries, dtype=np.int64)


def reference_json_text(obj: dict) -> str:
    """The file layout of ``netmodel.json_text``, spelled the slow way: one C-encoder call per
    value and per list item of ``obj`` (a ``reference_code_dict``, ``reference_table_dict`` or ``network_to_dict``)."""
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = []
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, list) and value:
            items = ",\n".join("    " + encode(x) for x in value)
            lines.append(f"  {encode(key)}: [\n{items}\n  ]")
        else:
            lines.append(f"  {encode(key)}: {encode(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _reference_entries(values: dict, names: tuple[str, ...], convert) -> list[dict]:
    """A section's entries, sorted by key, one dict each: the key's parts, then ``convert`` of the value."""
    return [dict(zip(names, (key if isinstance(key, tuple) else (key,)) + (convert(values[key]),)))
            for key in sorted(values)]


def reference_code_dict(code: LinearCode) -> dict:
    """The dict a linear code's file holds, built entry by entry apart from the writer."""
    tolists = MatrixGF.tolists
    return {
        "field": code.field.p, "k": code.k, "n": code.n,
        "source_coeff": _reference_entries(code.source_coeff, ("msg", "edge", "mat"), tolists),
        "local_coeff": _reference_entries(code.local_coeff, ("in", "out", "mat"), tolists),
        "decode_coeff": _reference_entries(code.decode_coeff, ("terminal", "edge", "slot", "mat"), tolists),
    }


def reference_table_dict(code: NonlinearCode) -> dict:
    """The dict a table code's file holds, built entry by entry apart from the writer."""
    return {
        "q": code.q,
        "edge_fn": _reference_entries(code.edge_fn, ("edge", "table"), list),
        "decode_fn": _reference_entries(code.decode_fn, ("terminal", "table"), list),
    }


def dumb_mat_mul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    """Entry-wise product, written without numpy on purpose."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner
    return [
        [sum(a[i][l] * b[l][j] for l in range(inner)) % p for j in range(cols)]
        for i in range(rows)
    ]


def all_edge_paths(net: Network, start: str, goal: str) -> list[list[str]]:
    """Every directed edge-id path from start node to goal node."""
    out: list[list[str]] = []

    def dfs(v: str, acc: list[str]) -> None:
        if v == goal and acc:
            out.append(list(acc))
        for e in net.out_edges(v):
            acc.append(e.id)
            dfs(e.head, acc)
            acc.pop()

    dfs(start, [])
    return out


def path_product(code: LinearCode, path: list[str], msg: str, terminal: str | None = None, slot: int = 0) -> np.ndarray:
    """The gain of ``msg`` along ``path``, through the decoder at ``terminal`` if given, as numpy products."""
    p = code.field.p
    g = array(code.source(msg, path[0]))
    for a, b in zip(path, path[1:]):
        g = (array(code.local(a, b)) @ g) % p
    return g if terminal is None else (array(code.decode(terminal, path[-1], slot)) @ g) % p


def transfer_by_path_enumeration(net: Network, code: LinearCode) -> np.ndarray:
    """Transfer matrix as an explicit sum of path gains (exponential; tests only)."""
    p, k = code.field.p, code.k
    msgs = net.messages()
    rows = []
    for t in sorted(net.terminals):
        for slot in range(len(net.terminals[t].slots())):
            blocks = []
            for m in msgs:
                s = net.message_source(m)
                total = np.zeros((k, k), dtype=np.int64)
                for path in all_edge_paths(net, s, t):
                    total = (total + path_product(code, path, m, t, slot)) % p
                blocks.append(total)
            rows.append(np.concatenate(blocks, axis=1))
    return np.concatenate(rows, axis=0)
