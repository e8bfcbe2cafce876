import random
from itertools import combinations

import pytest

from sumnet.netmodel import (
    CycleDetected,
    Demand,
    DuplicateMessageId,
    DanglingEndpoint,
    Edge,
    Network,
    NetworkError,
    SourceHasInEdge,
    UnknownNode,
    build_network,
    connectivity,
    min_cut,
    min_source_terminal_cut,
    network_from_json,
    network_to_json,
    reachable,
    recover,
    reverse_network,
)
from sumnet.families import FAMILIES, FamilySpec, bottleneck_mun, generate, s_m, s_m_star
from sumnet.transforms import c1, c2, c3

from helpers import mun_crossed, mun_path, random_sum_network, sum_bipartite22, two_message_source


def test_build_single_edge_sum():
    net = build_network(
        {
            "name": "tiny",
            "nodes": ["s", "t"],
            "edges": [{"id": "e", "tail": "s", "head": "t"}],
            "sources": {"s": ["x"]},
            "terminals": {"t": {"kind": "sum"}},
        }
    )
    assert net.topo_order() == ("s", "t")
    assert net.messages() == ("x",)


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        Network("c", ("a", "b"), (Edge("e1", "a", "b"), Edge("e2", "b", "a")), {}, {})


def test_dangling_endpoint():
    with pytest.raises(DanglingEndpoint):
        Network("d", ("a",), (Edge("e", "a", "ghost"),), {}, {})


def test_source_with_in_edge_rejected():
    with pytest.raises(SourceHasInEdge):
        Network("s", ("a", "b"), (Edge("e", "a", "b"),), {"b": ("x",)}, {})


def test_duplicate_message_rejected():
    with pytest.raises(DuplicateMessageId):
        Network("m", ("a", "b"), (), {"a": ("x",), "b": ("x",)}, {})


def test_recover_unknown_message_rejected():
    with pytest.raises(NetworkError):
        Network("r", ("a", "b"), (), {"a": ("x",)}, {"b": recover("nope")})


def test_malformed_demands_and_networks_rejected():
    for kind, messages, match in (("both", None, "unknown demand kind 'both'"),
                                  ("recover", (), "recover demand needs at least one message")):
        with pytest.raises(NetworkError, match=match):
            Demand(kind, messages)
    bad = {
        "duplicate node id": (("a", "a", "b"), {"a": ("x",)}, {"b": recover("x")}),
        "source node 'c' not declared": (("a", "b"), {"c": ("x",)}, {}),
        "terminal node 'c' not declared": (("a", "b"), {"a": ("x",)}, {"c": recover("x")}),
        "source 'a' generates no messages": (("a", "b"), {"a": ()}, {}),
        "node 'a' is both source and terminal": (("a", "b"), {"a": ("x",)}, {"a": Demand("sum")}),
    }
    for match, (nodes, sources, terminals) in bad.items():
        with pytest.raises(NetworkError, match=match):
            Network("bad", nodes, (), sources, terminals)
    with pytest.raises(NetworkError, match="unknown message 'nope'"):
        mun_path().message_source("nope")


def test_stored_orders_match_their_derivations():
    # The accessors return orders stored at construction; each must equal the
    # derivation from the fields, written out here.
    rng = random.Random(7)
    nets = [random_sum_network(rng, max_nodes=8) for _ in range(200)]
    nets += [generate(FamilySpec(f, 0 if f == "component" else 4)) for f in FAMILIES]
    nets += [mun_path(), mun_crossed(), sum_bipartite22(), two_message_source()]
    nets += [c1(mun_crossed())[0], c2(bottleneck_mun(2))[0], c3(s_m(3))[0], c3(sum_bipartite22())[0]]
    nets += [reverse_network(net) for net in nets[200:] if net.name not in ("component", "two_message_source")]
    nets += [network_from_json(network_to_json(net)) for net in nets]
    for net in nets:
        assert net.source_nodes() == tuple(sorted(net.sources))
        assert net.terminal_nodes() == tuple(sorted(net.terminals))
        assert net.messages() == tuple(m for v in sorted(net.sources) for m in net.sources[v])
        for m in net.messages():
            assert net.message_source(m) == next(v for v, ms in net.sources.items() if m in ms)
    # Equality reads the fields only: the same fields in another dict order make an equal network.
    net = nets[-1]
    shuffled = Network(net.name, net.nodes[::-1], net.edges[::-1], dict(reversed(net.sources.items())),
                       dict(reversed(net.terminals.items())))
    assert shuffled == net and shuffled.messages() == net.messages()
    assert network_from_json(network_to_json(net)) == net
    assert Network("other", net.nodes, net.edges, net.sources, net.terminals) != net


def test_topo_chain_and_isolated():
    chain = Network("ch", ("a", "b", "c"), (Edge("1", "a", "b"), Edge("2", "b", "c")), {}, {})
    assert chain.topo_order() == ("a", "b", "c")
    iso = Network("iso", ("b", "a"), (), {}, {})
    assert iso.topo_order() == ("a", "b")
    # A node's level is its longest distance: b is one edge from d, and two by way of c.
    skip = Network("sk", ("a", "b", "c", "d"),
                   (Edge("1", "d", "c"), Edge("2", "d", "b"), Edge("3", "c", "b"), Edge("4", "b", "a")), {}, {})
    assert skip.topo_order() == ("d", "c", "b", "a")


def test_topo_s4_layering():
    net = s_m(4)
    pos = {v: i for i, v in enumerate(net.topo_order())}
    for i in (1, 2, 3):
        for j in (1, 2, 3, 4):
            assert pos[f"s_{j}"] < pos[f"u_{i}"]
        assert pos[f"u_{i}"] < pos[f"v_{i}"]
        for j in (1, 2, 3, 4):
            assert pos[f"v_{i}"] < pos[f"t_{j}"]


def test_min_cut_basics():
    net = mun_path()
    assert min_cut(net, "w_1", "z_1") == 1
    assert min_cut(net, "z_1", "w_1") == 0
    with pytest.raises(NetworkError):
        min_cut(net, "w_1", "w_1")


def test_min_cut_parallel_edges():
    net = Network(
        "par",
        ("a", "b"),
        (Edge("e1", "a", "b"), Edge("e2", "a", "b")),
        {},
        {},
    )
    assert min_cut(net, "a", "b") == 2


def test_min_cut_cancels_flow_on_a_used_edge():
    # Shortest augmenting paths first route s>a, a>b, b>t; the second path
    # s>c, c>b must then walk a>b backwards to reach a>d, d>t.
    names = ("s>a", "s>c", "a>b", "a>d", "c>b", "b>t", "d>t")
    net = Network("cancel", tuple("sabcdt"), tuple(Edge(x, x[0], x[2]) for x in names), {}, {})
    assert min_cut(net, "s", "t") == 2


def _closure(edges, start):
    """Nodes reachable from start, by fixed-point iteration over the edge list."""
    seen = {start}
    while True:
        more = {b for a, b in edges if a in seen} - seen
        if not more:
            return seen
        seen |= more


def _random_dag(rng: random.Random, n_nodes: int, n_edges: int) -> Network:
    """A DAG on nodes v0..v{n-1}, edges forward in index order, parallel edges allowed."""
    names = tuple(f"v{i}" for i in range(n_nodes))
    edges = []
    for i in range(n_edges):
        a, b = sorted(rng.sample(range(n_nodes), 2))
        edges.append(Edge(f"e{i}", names[a], names[b]))
    return Network("dag", names, tuple(edges), {}, {})


def test_min_cut_and_reachable_match_brute_force():
    # min_cut is the fewest edges whose removal disconnects t from s
    # (Menger); reachable is the transitive closure.  Augmenting paths that
    # cancel flow are rare on such DAGs; the case above pins that step.
    rng = random.Random(5)
    for _ in range(400):
        net = _random_dag(rng, rng.randint(5, 8), rng.randint(6, 14))
        pairs = [(e.tail, e.head) for e in net.edges]
        s, t = sorted(rng.sample(net.nodes, 2))
        for v in net.nodes:
            assert reachable(net, v) == _closure(pairs, v)
        best = next(
            c for c in range(len(pairs) + 1)
            if any(t not in _closure([pairs[i] for i in range(len(pairs)) if i not in cut], s)
                   for cut in map(set, combinations(range(len(pairs)), c)))
        )
        assert min_cut(net, s, t) == best


def test_unknown_node_in_flows():
    net = mun_path()
    for call in (lambda: min_cut(net, "nope", "z_1"), lambda: min_cut(net, "w_1", "nope"),
                 lambda: reachable(net, "nope")):
        with pytest.raises(UnknownNode):
            call()


def test_min_cut_reversal_symmetry():
    rng = random.Random(42)
    for _ in range(25):
        net = random_sum_network(rng)
        rev = reverse_network(net)
        nodes = net.nodes
        for s in nodes[:2]:
            for t in nodes[-2:]:
                if s != t:
                    assert min_cut(net, s, t) == min_cut(rev, t, s)


def test_min_source_terminal_cut_s4():
    assert min_source_terminal_cut(s_m(4)) == 1


def test_min_source_terminal_cut_is_the_least_pair_cut():
    # Each pair's flow stops at the best cut so far, and a cut of 0 ends the
    # scan; the answer must still be the least full min_cut over all pairs.
    rng = random.Random(7)
    nets = [random_sum_network(rng, max_nodes=8) for _ in range(60)]
    nets += [s_m(m) for m in range(3, 7)] + [s_m_star(m) for m in range(3, 7)]
    nets += [c2(bottleneck_mun(m))[0] for m in range(2, 5)]
    split = Network("split", ("a", "b", "t"), (Edge("a>t", "a", "t"),), {"a": ("x",), "b": ("y",)},
                    {"t": Demand("sum")})
    parallel = Network("parallel", ("a", "t"), (Edge("e1", "a", "t"), Edge("e2", "a", "t")),
                       {"a": ("x",)}, {"t": Demand("sum")})
    nets += [split, parallel]
    cuts = []
    for net in nets:
        want = min(min_cut(net, s, t) for s in net.source_nodes() for t in net.terminal_nodes())
        cuts.append(min_source_terminal_cut(net))
        assert cuts[-1] == want, net.name
    assert cuts[-2:] == [0, 2]
    assert 0 in cuts[:60] and max(cuts[:60]) >= 2


def test_min_source_terminal_cut_scans_past_a_larger_first_cut():
    # (a, t) has cut 2 and comes first; (b, t) has cut 1.
    net = Network("two_then_one", ("a", "b", "t"),
                  (Edge("a1", "a", "t"), Edge("a2", "a", "t"), Edge("b1", "b", "t")),
                  {"a": ("x",), "b": ("y",)}, {"t": Demand("sum")})
    assert [min_cut(net, s, "t") for s in ("a", "b")] == [2, 1]
    assert min_source_terminal_cut(net) == 1


def test_min_source_terminal_cut_is_0_when_a_later_pair_is_unreachable():
    # The first source reaches both terminals over two edges each; the last
    # pair, (b, t2), has no path.
    edges = (Edge("a1", "a", "t1"), Edge("a2", "a", "t1"), Edge("a3", "a", "t2"),
             Edge("a4", "a", "t2"), Edge("b1", "b", "t1"))
    net = Network("late_gap", ("a", "b", "t1", "t2"), edges, {"a": ("x",), "b": ("y",)},
                  {"t1": Demand("sum"), "t2": Demand("sum")})
    assert [min_cut(net, s, t) for s in ("a", "b") for t in ("t1", "t2")] == [2, 2, 1, 0]
    assert min_source_terminal_cut(net) == 0


def test_min_source_terminal_cut_needs_a_source_and_a_terminal():
    edge = (Edge("e", "a", "t"),)
    for sources, terminals in (({}, {"t": Demand("sum")}), ({"a": ("x",)}, {}), ({}, {})):
        net = Network("bare", ("a", "t"), edge, sources, terminals)
        with pytest.raises(NetworkError):
            min_source_terminal_cut(net)


def test_connectivity_s3_all_true():
    srcs, terms, matrix = connectivity(s_m(3))
    assert srcs == ("s_1", "s_2", "s_3")
    assert terms == ("t_1", "t_2", "t_3")
    assert all(all(row) for row in matrix)


def test_connectivity_false_entry():
    net = Network(
        "half",
        ("a", "b", "t1", "t2"),
        (Edge("e", "a", "t1"),),
        {"a": ("x",), "b": ("y",)},
        {"t1": Demand("sum"), "t2": Demand("sum")},
    )
    _, _, matrix = connectivity(net)
    assert matrix == [[True, False], [False, False]]


def test_connectivity_c1_output_all_true():
    net, _ = c1(mun_path())
    _, _, matrix = connectivity(net)
    assert all(all(row) for row in matrix)


def test_json_round_trip_byte_identical():
    net = s_m(4)
    blob = network_to_json(net)
    again = network_to_json(network_from_json(blob))
    assert blob == again


def test_reverse_roles_single_edge():
    net = mun_path()
    rev = reverse_network(net)
    assert rev.source_nodes() == ("z_1",)
    assert rev.terminal_nodes() == ("w_1",)
    assert rev.edges[0].tail == "z_1" and rev.edges[0].head == "w_1"
    assert rev.terminals["w_1"].messages == ("a~",)


def test_reverse_involution_mun():
    net = mun_path()
    back = reverse_network(reverse_network(net))
    assert back.nodes == net.nodes
    assert back.edges == net.edges
    assert back.sources == net.sources
    assert back.terminals == net.terminals


def test_reverse_rejects_mixed_and_ambiguous_demands():
    from sumnet.codes import LinearCode, canonical_reverse_code
    from sumnet.gflin import FieldSpec
    from sumnet.netmodel import UnsupportedReverse

    mixed = Network(
        "mixed",
        ("a", "t1", "t2"),
        (Edge("a>t1", "a", "t1"), Edge("a>t2", "a", "t2")),
        {"a": ("x",)},
        {"t1": Demand("sum"), "t2": recover("x")},
    )
    twice = Network(
        "twice",
        ("a", "t1", "t2"),
        (Edge("a>t1", "a", "t1"), Edge("a>t2", "a", "t2")),
        {"a": ("x",)},
        {"t1": recover("x"), "t2": recover("x")},
    )
    never = Network(
        "never",
        ("a", "t"),
        (Edge("a>t", "a", "t"),),
        {"a": ("x", "y")},
        {"t": recover("x")},
    )
    empty = LinearCode(FieldSpec(2), 1, 1, {}, {}, {})
    for net in (mixed, twice, never):
        with pytest.raises(UnsupportedReverse):
            reverse_network(net)
        with pytest.raises(UnsupportedReverse):
            canonical_reverse_code(net, empty)


def test_reversed_network_json_round_trip():
    rev = reverse_network(s_m(4))
    blob = network_to_json(rev)
    again = network_from_json(blob)
    assert network_to_json(again) == blob
    assert again.terminals["s_1"].messages == ("x1",)  # slot tag survives


def test_reverse_involution_sum_network():
    net = s_m(4)
    back = reverse_network(reverse_network(net))
    assert back.nodes == net.nodes
    assert back.edges == net.edges
    assert back.sources == net.sources
    assert {t: d.kind for t, d in back.terminals.items()} == {
        t: d.kind for t, d in net.terminals.items()
    }
