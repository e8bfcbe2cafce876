"""Directed acyclic multigraph with sources, terminals and demands.

Networks are immutable after construction and fully validated up front.
All iteration orders (node lists, in/out edge lists, the message order used
for transfer matrices) are deterministic: lexicographic by id.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Optional

SUM_SLOT = "<sum>"


class NetworkError(ValueError):
    """Base class for invalid network descriptions."""


class CycleDetected(NetworkError):
    pass


class DanglingEndpoint(NetworkError):
    pass


class SourceHasInEdge(NetworkError):
    pass


class DuplicateMessageId(NetworkError):
    pass


class UnknownNode(NetworkError):
    pass


class UnsupportedReverse(NetworkError):
    pass


@dataclass(frozen=True, slots=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Demand:
    """What one terminal wants: the sum of all messages, or specific ones.

    ``messages`` is required for ``recover``.  For ``sum`` it is normally
    None; network reversal fills it with slot labels so that reversing twice
    restores the original message ids.
    """

    kind: str
    messages: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("sum", "recover"):
            raise NetworkError(f"unknown demand kind {self.kind!r}")
        if self.kind == "recover" and not self.messages:
            raise NetworkError("recover demand needs at least one message")
        if self.messages is not None:
            object.__setattr__(self, "messages", tuple(self.messages))

    def slots(self) -> tuple[str, ...]:
        """Recovery slot labels, one per recovered symbol block."""
        if self.kind == "recover":
            return self.messages  # type: ignore[return-value]
        return self.messages if self.messages else (SUM_SLOT,)


def recover(*messages: str) -> Demand:
    return Demand("recover", tuple(messages))


@dataclass(frozen=True)
class Network:
    name: str
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    sources: dict[str, tuple[str, ...]]
    terminals: dict[str, Demand]

    def __post_init__(self) -> None:
        """Normalize and validate, then set the lookups ``_in``, ``_out``, ``_by_id``, ``_topo`` and the orders.

        ``_skeletons`` starts empty: ``solver`` keeps there, per (k, n, reduce),
        the set-up of a linear search that no field changes, built on first use.
        """
        nodes = tuple(sorted(set(self.nodes)))
        if len(nodes) != len(self.nodes):
            raise NetworkError("duplicate node id")
        edges = tuple(sorted(self.edges, key=attrgetter("id")))
        sources = {v: tuple(ms) for v, ms in self.sources.items()}
        terminals = dict(self.terminals)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "terminals", terminals)

        by_id: dict[str, Edge] = {}
        ins: dict[str, list[Edge]] = {v: [] for v in nodes}
        outs: dict[str, list[Edge]] = {v: [] for v in nodes}
        nodeset = set(nodes)
        for e in edges:
            if e.id in by_id:
                raise NetworkError(f"duplicate edge id {e.id!r}")
            if e.tail not in nodeset or e.head not in nodeset:
                raise DanglingEndpoint(f"edge {e.id!r}: {e.tail!r} -> {e.head!r}")
            by_id[e.id] = e
            outs[e.tail].append(e)
            ins[e.head].append(e)

        msg_source: dict[str, str] = {}  # each message's source
        for v, ms in sources.items():
            if v not in nodeset:
                raise UnknownNode(f"source node {v!r} not declared")
            if ins[v]:
                raise SourceHasInEdge(v)
            if not ms:
                raise NetworkError(f"source {v!r} generates no messages")
            for m in ms:
                if m in msg_source:
                    raise DuplicateMessageId(m)
                msg_source[m] = v
        for v, d in terminals.items():
            if v not in nodeset:
                raise UnknownNode(f"terminal node {v!r} not declared")
            if v in sources:
                raise NetworkError(f"node {v!r} is both source and terminal")
            if d.kind == "recover":
                for m in d.messages:
                    if m not in msg_source:
                        raise NetworkError(f"demand references unknown message {m!r}")

        object.__setattr__(self, "_in", {v: tuple(ins[v]) for v in nodes})
        object.__setattr__(self, "_out", {v: tuple(outs[v]) for v in nodes})
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_topo", self._toposort())
        object.__setattr__(self, "_sources", tuple(sorted(sources)))
        object.__setattr__(self, "_terminals", tuple(sorted(terminals)))
        object.__setattr__(self, "_messages", tuple(m for v in self._sources for m in sources[v]))
        object.__setattr__(self, "_msg_source", msg_source)
        object.__setattr__(self, "_skeletons", {})

    def _toposort(self) -> tuple[str, ...]:
        """Nodes by longest distance from the in-degree-0 layer, ties by id."""
        indeg = {v: len(es) for v, es in self._in.items()}
        order = [v for v, d in indeg.items() if not d]
        level = dict.fromkeys(order, 0)
        for v in order:  # first in, first out: levels never fall along the list
            for e in self._out[v]:
                w = e.head
                indeg[w] -= 1
                if not indeg[w]:  # v is w's last tail in the list, so one of largest level
                    level[w] = level[v] + 1
                    order.append(w)
        if len(order) != len(self.nodes):
            raise CycleDetected(self.name or "<network>")
        return tuple(sorted(self.nodes, key=level.__getitem__))  # nodes are sorted, so ties stay in id order

    # -- accessors ---------------------------------------------------------

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        return self._in[v]

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def edge(self, edge_id: str) -> Edge:
        return self._by_id[edge_id]

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._by_id

    def topo_order(self) -> tuple[str, ...]:
        return self._topo

    def source_nodes(self) -> tuple[str, ...]:
        return self._sources

    def terminal_nodes(self) -> tuple[str, ...]:
        return self._terminals

    def messages(self) -> tuple[str, ...]:
        """Global message order: by source node id, then declaration order."""
        return self._messages

    def message_source(self, msg: str) -> str:
        if msg not in self._msg_source:
            raise NetworkError(f"unknown message {msg!r}")
        return self._msg_source[msg]

    def is_sum_network(self) -> bool:
        return all(d.kind == "sum" for d in self.terminals.values())


def json_obj(value, what: str, error: type[Exception] = NetworkError) -> dict:
    """``value`` if it is a parsed JSON object, else ``error``."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object")
    return value


def json_key(obj, key: str, what: str, error: type[Exception] = NetworkError):
    """``obj[key]`` from a parsed JSON object, else ``error``."""
    if key not in json_obj(obj, what, error):
        raise error(f"{what} has no {key!r}")
    return obj[key]


def json_list(value, what: str, error: type[Exception] = NetworkError) -> tuple:
    """A parsed JSON list as a tuple; anything else, a string included, is ``error``."""
    if not isinstance(value, list):
        raise error(f"{what} must be a JSON list")
    return tuple(value)


def json_int(value, what: str, error: type[Exception] = NetworkError) -> int:
    """A parsed JSON integer; a bool, a float, a string or null is ``error``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer")
    return value


def json_str(value, what: str, error: type[Exception] = NetworkError) -> str:
    """A parsed JSON string, else ``error``."""
    if not isinstance(value, str):
        raise error(f"{what} must be a string")
    return value


def _ids(value, what: str) -> tuple[str, ...]:
    ids = json_list(value, what)
    if any(type(x) is not str for x in ids):
        raise NetworkError(f"{what} must be strings")
    return ids


def build_network(spec: dict) -> Network:
    """Build and validate a Network from its JSON-shaped description."""
    json_obj(spec, "network")
    edges = tuple(
        Edge(json_key(e, "id", "edge"), json_key(e, "tail", "edge"), json_key(e, "head", "edge"))
        for e in json_list(spec.get("edges", []), "edges")
    )
    if any(type(x) is not str for e in edges for x in (e.id, e.tail, e.head)):
        raise NetworkError("edge id, tail and head must be strings")
    terminals = {}
    for v, d in json_obj(spec.get("terminals", {}), "terminals").items():
        what = f"terminal {json_str(v, 'terminal id')!r}"
        kind = json_key(d, "kind", what)
        if kind == "sum":
            slots = d.get("slots")
            terminals[v] = Demand("sum", _ids(slots, f"{what} slots") if slots else None)
        elif kind == "recover":
            messages = json_key(d, "messages", what)
            terminals[v] = Demand("recover", _ids(messages, f"{what} messages"))
        else:
            raise NetworkError(f"{what} has unknown kind {kind!r}")
    return Network(
        name=json_str(spec.get("name", ""), "network name"),
        nodes=_ids(spec.get("nodes", []), "nodes"),
        edges=edges,
        sources={
            json_str(v, "source id"): _ids(ms, f"source {v!r} messages")
            for v, ms in json_obj(spec.get("sources", {}), "sources").items()
        },
        terminals=terminals,
    )


def network_to_dict(net: Network) -> dict:
    terminals = {}
    for v in net.terminal_nodes():
        d = net.terminals[v]
        if d.kind == "sum":
            entry = {"kind": "sum"}
            if d.messages:
                entry["slots"] = list(d.messages)
        else:
            entry = {"kind": "recover", "messages": list(d.messages)}
        terminals[v] = entry
    return {
        "name": net.name,
        "nodes": list(net.nodes),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in net.edges],
        "sources": {v: list(net.sources[v]) for v in net.source_nodes()},
        "terminals": terminals,
    }


_ENCODE = json.JSONEncoder(sort_keys=True).encode


def json_layout(fields: Mapping[str, str | list[str]]) -> str:
    """A JSON object from its values' texts: one line per key, sorted, and per item of a list of item texts."""
    lines = []
    for key in sorted(fields):
        value = fields[key]
        if isinstance(value, list):
            value = "[\n    " + ",\n    ".join(value) + "\n  ]" if value else "[]"
        lines.append(f"  {_ENCODE(key)}: {value}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def json_text(obj: dict) -> str:
    """``obj`` as JSON text with sorted keys, laid out by ``json_layout``.

    Each value and list item is written by the C encoder, which ``indent`` would turn off.
    """
    return json_layout({key: [_ENCODE(x) for x in value] if isinstance(value, list) else _ENCODE(value)
                        for key, value in obj.items()})


def network_to_json(net: Network) -> str:
    return json_text(network_to_dict(net))


def network_from_json(text: str) -> Network:
    return build_network(json.loads(text))


# -- flows and reachability -------------------------------------------------


def _residual_search(net: Network, s: str, used: set[str], t: Optional[str] = None) -> dict:
    """Breadth-first search from s in the residual graph of the unit flow on ``used``.

    A free edge is walked forward and a flow-carrying one backward.  Returns
    each node reached, up to t if given, with the edge it was reached by.
    """
    if s not in net._out:
        raise UnknownNode(f"node {s!r} not declared")
    prev: dict[str, Optional[Edge]] = {s: None}
    queue = deque([s])
    while queue and t not in prev:
        v = queue.popleft()
        for e in net.out_edges(v):
            if e.head not in prev and e.id not in used:
                prev[e.head] = e
                queue.append(e.head)
        for e in net.in_edges(v):
            if e.tail not in prev and e.id in used:
                prev[e.tail] = e
                queue.append(e.tail)
    return prev


def min_cut(net: Network, s: str, t: str) -> int:
    """Max-flow value from s to t with unit capacity per edge (Edmonds-Karp)."""
    return _flow(net, s, t)


def _flow(net: Network, s: str, t: str, cap: Optional[int] = None) -> int:
    """``min_cut(net, s, t)``, or ``cap`` if that is smaller: augmenting stops at ``cap``."""
    if t not in net._out:
        raise UnknownNode(f"node {t!r} not declared")
    if s == t:
        raise NetworkError("source and sink must differ")
    used: set[str] = set()
    flow = 0
    while flow != cap:
        prev = _residual_search(net, s, used, t)
        if t not in prev:
            return flow
        v = t
        while v != s:
            e = prev[v]
            if e.id in used:
                used.remove(e.id)
                v = e.head
            else:
                used.add(e.id)
                v = e.tail
        flow += 1
    return flow


def min_source_terminal_cut(net: Network) -> int:
    """Minimum of min-cuts over every (source node, terminal node) pair.

    One reachability search per source finds a cut of 0.  Past that, each
    pair's augmenting stops at the best cut found so far, so only a pair that
    lowers it runs to a failing search, and a cut of 1 ends the scan.
    """
    srcs, terms = net.source_nodes(), net.terminal_nodes()
    if not srcs or not terms:
        raise NetworkError("network needs at least one source and one terminal")
    if any(not reachable(net, s).issuperset(terms) for s in srcs):
        return 0
    best = None
    for s in srcs:
        for t in terms:
            best = _flow(net, s, t, best)
            if best == 1:
                return 1
    return best


def reachable(net: Network, start: str) -> set[str]:
    """Every node with a path from ``start``, itself included."""
    return set(_residual_search(net, start, set()))


def connectivity(net: Network) -> tuple[tuple[str, ...], tuple[str, ...], list[list[bool]]]:
    """Boolean source-node x terminal-node reachability matrix."""
    srcs = net.source_nodes()
    terms = net.terminal_nodes()
    matrix = []
    for s in srcs:
        hit = reachable(net, s)
        matrix.append([t in hit for t in terms])
    return srcs, terms, matrix


# -- reversal ----------------------------------------------------------------


def reverse_id(x: str) -> str:
    """Involutive renaming used for reversed edges and messages."""
    return x[:-1] if x.endswith("~") else x + "~"


def reverse_roles(net: Network) -> tuple[dict[str, tuple[str, ...]], dict[str, Demand]]:
    """The sources and terminals of the reversed network: roles interchanged.

    Two shapes are supported.  All-sum networks reverse to all-sum networks:
    each old terminal becomes a source generating one fresh message per
    recovery slot, and each old source becomes a sum terminal whose slots are
    tagged with its original messages (so reversing twice restores them).
    Recover networks where every message is demanded exactly once (multiple
    unicast and friends) reverse with the pairing preserved: the old terminal
    generates the reversed message, the old generator demands it.
    """
    kinds = {d.kind for d in net.terminals.values()}
    if len(kinds) > 1:
        raise UnsupportedReverse("mixed sum/recover demands")
    kind = kinds.pop() if kinds else "sum"

    sources: dict[str, tuple[str, ...]] = {}
    terminals: dict[str, Demand] = {}

    if kind == "sum":
        for t in net.terminal_nodes():
            d = net.terminals[t]
            labels = d.messages if d.messages else (f"{t}.sum",)
            sources[t] = tuple(labels)
        for s in net.source_nodes():
            terminals[s] = Demand("sum", net.sources[s])
    else:
        demanded: dict[str, str] = {}
        for t, d in net.terminals.items():
            for m in d.messages:
                if m in demanded:
                    raise UnsupportedReverse(f"message {m!r} demanded more than once")
                demanded[m] = t
        for m in net.messages():
            if m not in demanded:
                raise UnsupportedReverse(f"message {m!r} is never demanded")
        for t in net.terminal_nodes():
            sources[t] = tuple(reverse_id(m) for m in net.terminals[t].messages)
        for s in net.source_nodes():
            terminals[s] = Demand("recover", tuple(reverse_id(m) for m in net.sources[s]))
    return sources, terminals


def reverse_network(net: Network) -> Network:
    """Edges reversed, source and terminal roles interchanged as in ``reverse_roles``."""
    sources, terminals = reverse_roles(net)
    return Network(
        name=reverse_id(net.name) if net.name else "",
        nodes=net.nodes,
        edges=tuple(Edge(reverse_id(e.id), e.head, e.tail) for e in net.edges),
        sources=sources,
        terminals=terminals,
    )
