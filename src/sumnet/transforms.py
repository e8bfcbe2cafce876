"""Graph constructions relating sum demands and unicast demands.

Each construction returns a fresh validated Network plus its roles, a plain
dict mapping every added node and edge id to its construction role; ids of the
input network pass through unchanged and have no role.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .codes import CodeError, LinearCode
from .gflin import MatrixGF, mat_mul, rank
from .netmodel import (
    Demand,
    Edge,
    Network,
    NetworkError,
    recover,
)


class _Builder:
    """Accumulates a network; an id already taken, by the embedded input too, gets the least free ``#i``, i >= 2."""

    def __init__(self, name: str, base: Network | None = None):
        self.name = name
        self.nodes: list[str] = list(base.nodes) if base else []
        self.edges: list[Edge] = list(base.edges) if base else []
        self.sources: dict[str, tuple[str, ...]] = {}
        self.terminals: dict[str, Demand] = {}
        self.roles: dict[str, str] = {}
        self._taken = set(self.nodes) | {e.id for e in self.edges}

    def _fresh(self, base: str, role: str) -> str:
        out, i = base, 1
        while out in self._taken:
            i += 1
            out = f"{base}#{i}"
        self._taken.add(out)
        self.roles[out] = role
        return out

    def add_node(self, node_id: str, role: str) -> str:
        self.nodes.append(nid := self._fresh(node_id, role))
        return nid

    def add_edge(self, tail: str, head: str, role: str) -> str:
        self.edges.append(Edge(eid := self._fresh(f"{tail}>{head}", role), tail, head))
        return eid

    def build(self) -> tuple[Network, dict[str, str]]:
        net = Network(
            name=self.name,
            nodes=tuple(self.nodes),
            edges=tuple(self.edges),
            sources=self.sources,
            terminals=self.terminals,
        )
        return net, self.roles


def _unicast_pairs(net: Network) -> list[tuple[str, str, str]]:
    """(source node, message, terminal) triples of a multiple-unicast network."""
    for v, ms in net.sources.items():
        if len(ms) != 1:
            raise NetworkError(f"source {v!r} must generate exactly one message")
    demanded: dict[str, str] = {}
    for t, d in net.terminals.items():
        if d.kind != "recover" or len(d.messages) != 1:
            raise NetworkError(f"terminal {t!r} must demand exactly one message")
        m = d.messages[0]
        if m in demanded:
            raise NetworkError(f"message {m!r} demanded twice")
        demanded[m] = t
    # Each terminal demands a distinct message of the network, which has one
    # message per source: with equal counts, every message is demanded.
    if len(net.terminals) != len(net.sources):
        raise NetworkError("source and terminal counts differ")
    return [(w, m, demanded[m]) for w in net.source_nodes() for m in net.sources[w]]


def _hub(b: _Builder, gens: Sequence[str]) -> tuple[list[str], list[str]]:
    """The hub that c1 and c2 attach to the m sources ``gens``; returns its s and v nodes.

    Hub source s_i (message x_i) feeds gens[i] and every mix relay u_j with
    j != i; s_{m+1} feeds every u_i; each u_i has a mix line to its fanout
    relay v_i.
    """
    m = len(gens)
    s = [b.add_node(f"s_{i}", f"hub source i={i}") for i in range(1, m + 2)]
    u = [b.add_node(f"u_{i}", f"mix relay i={i}") for i in range(1, m + 1)]
    v = [b.add_node(f"v_{i}", f"fanout relay i={i}") for i in range(1, m + 1)]
    for i in range(1, m + 2):
        b.sources[s[i - 1]] = (f"x{i}",)
    for i in range(m):
        b.add_edge(s[i], gens[i], f"source feed i={i + 1}")
        b.add_edge(s[m], u[i], f"extra source feed j={i + 1}")
        b.add_edge(u[i], v[i], f"mix line i={i + 1}")
        for j in range(m):
            if j != i:
                b.add_edge(s[i], u[j], f"cross feed i={i + 1} j={j + 1}")
    return s, v


def c1(mun: Network) -> tuple[Network, dict[str, str]]:
    """Sum network built around a multiple-unicast network.

    Adds the hub (sources s_1..s_{m+1}, per-pair relays u_i, v_i) and
    terminal pairs t_L_i, t_R_i; every terminal demands the sum of the m+1
    fresh messages, and the embedded network keeps its edges while its old
    source/terminal roles are cleared.
    """
    pairs = _unicast_pairs(mun)
    m = len(pairs)
    b = _Builder(f"c1({mun.name})" if mun.name else "c1", mun)
    s, v = _hub(b, [w for w, _, _ in pairs])
    tl = [b.add_node(f"t_L{i}", f"left terminal i={i}") for i in range(1, m + 1)]
    tr = [b.add_node(f"t_R{i}", f"right terminal i={i}") for i in range(1, m + 1)]
    for i, (_, _, z_i) in enumerate(pairs):
        b.add_edge(s[i], tr[i], f"direct right i={i + 1}")
        b.add_edge(v[i], tl[i], f"fan left i={i + 1}")
        b.add_edge(v[i], tr[i], f"fan right i={i + 1}")
        b.add_edge(z_i, tl[i], f"unicast exit i={i + 1}")
        b.terminals[tl[i]] = Demand("sum")
        b.terminals[tr[i]] = Demand("sum")
    return b.build()


def to_type_ia(net: Network) -> tuple[Network, dict[str, str]]:
    """One fresh source per message and one fresh terminal per demanded copy.

    The relay layers leave each new source generating a single process and
    each new terminal demanding a single process, with the original demand
    structure preserved through unit edges.
    """
    for t, d in net.terminals.items():
        if d.kind != "recover":
            raise NetworkError(f"terminal {t!r} of a subset-demand network expected")
    b = _Builder(f"typeIA({net.name})" if net.name else "typeIA", net)
    for msg in net.messages():
        gen = net.message_source(msg)
        node = b.add_node(f"S.{msg}", f"source of process {msg}")
        b.sources[node] = (msg,)
        b.add_edge(node, gen, f"process feed {msg}")
    for t in net.terminal_nodes():
        for msg in net.terminals[t].messages:
            node = b.add_node(f"T.{t}.{msg}", f"terminal for ({t}, {msg})")
            b.terminals[node] = recover(msg)
            b.add_edge(t, node, f"demand split ({t}, {msg})")
    return b.build()


def c2(net: Network) -> tuple[Network, dict[str, str]]:
    """Sum network built from a subset-demand network in two steps.

    First the input is normalised to one process per source and per terminal
    (`to_type_ia`), then c1's hub over its sources and one terminal per
    process plus one per original demand are attached; every terminal demands
    the sum of the m+1 fresh messages.
    """
    tia, roles = to_type_ia(net)
    gens = tia.source_nodes()
    by_msg: dict[str, list[str]] = {tia.sources[g][0]: [] for g in gens}
    for t in tia.terminal_nodes():
        by_msg[tia.terminals[t].messages[0]].append(t)

    b = _Builder(f"c2({net.name})" if net.name else "c2", tia)
    b.roles.update(roles)
    s, v = _hub(b, gens)
    for i, g in enumerate(gens):
        t_right = b.add_node(f"t_{i + 1}", f"right terminal i={i + 1}")
        b.terminals[t_right] = Demand("sum")
        b.add_edge(s[i], t_right, f"direct right i={i + 1}")
        b.add_edge(v[i], t_right, f"fan right i={i + 1}")
        msg = tia.sources[g][0]
        for j, z in enumerate(by_msg[msg], start=1):
            t_left = b.add_node(f"t_{i + 1}.{j}", f"left terminal (i={i + 1}, j={j})")
            b.terminals[t_left] = Demand("sum")
            b.add_edge(z, t_left, f"demand exit (i={i + 1}, j={j})")
            b.add_edge(v[i], t_left, f"fan left (i={i + 1}, j={j})")
    return b.build()


def c3(sumnet: Network) -> tuple[Network, dict[str, str]]:
    """Multiple-unicast network whose solvability matches a sum network's.

    The upper half wires fresh pair sources s_i into the old sources, mixes
    every message except x_i into a line v_i, and taps every old terminal
    through vp_j; node r_{j}_{i} sees one mixture containing x_i and one
    missing it.  The lower half is one forcing chain per source: copies of
    the relay/mix/cleaner gadget in series, each consuming a fresh pair
    (s_i.j, t_i.j), arranged so that in any solution every r node's out-edge
    carries an invertible multiple of x_i.  The chain ends in the pair
    terminal t_i.
    """
    if not sumnet.is_sum_network():
        raise NetworkError("construction expects sum demands")
    for v, ms in sumnet.sources.items():
        if len(ms) != 1:
            raise NetworkError(f"source {v!r} must generate exactly one message")
    ws = sumnet.source_nodes()
    zs = sumnet.terminal_nodes()
    m, n = len(ws), len(zs)
    b = _Builder(f"c3({sumnet.name})" if sumnet.name else "c3", sumnet)

    s = [b.add_node(f"s_{i}", f"pair source i={i}") for i in range(1, m + 1)]
    u = [b.add_node(f"u_{i}", f"mix relay i={i}") for i in range(1, m + 1)]
    v = [b.add_node(f"v_{i}", f"mix line fanout i={i}") for i in range(1, m + 1)]
    vp = [b.add_node(f"vp_{j}", f"terminal tap j={j}") for j in range(1, n + 1)]
    r = {
        (j, i): b.add_node(f"r_{j}_{i}", f"recovery relay (terminal {j}, source {i})")
        for j in range(1, n + 1)
        for i in range(1, m + 1)
    }
    for i in range(1, m + 1):
        b.sources[s[i - 1]] = (f"x{i}",)
        b.add_edge(s[i - 1], ws[i - 1], f"source feed i={i}")
        b.add_edge(u[i - 1], v[i - 1], f"mix line i={i}")
        for j in range(1, m + 1):
            if j != i:
                b.add_edge(s[i - 1], u[j - 1], f"cross feed i={i} j={j}")
    for j in range(1, n + 1):
        b.add_edge(zs[j - 1], vp[j - 1], f"terminal tap feed j={j}")
        for i in range(1, m + 1):
            b.add_edge(vp[j - 1], r[(j, i)], f"tap line (j={j}, i={i})")
            b.add_edge(v[i - 1], r[(j, i)], f"mix line copy (j={j}, i={i})")

    for i in range(1, m + 1):
        t_i = b.add_node(f"t_{i}", f"pair terminal i={i}")
        b.terminals[t_i] = recover(f"x{i}")
        line_tail = r[(1, i)]
        line_role = f"chain start i={i}"
        for j in range(2, n + 1):
            src = b.add_node(f"s_{i}.{j}", f"chain source (i={i}, j={j})")
            b.sources[src] = (f"x{i}.{j}",)
            mix = b.add_node(f"mix_{i}_{j}", f"chain mix (i={i}, j={j})")
            fan = b.add_node(f"fan_{i}_{j}", f"chain fanout (i={i}, j={j})")
            cln = b.add_node(f"cln_{i}_{j}", f"chain cleaner (i={i}, j={j})")
            t_ij = b.add_node(f"t_{i}.{j}", f"chain terminal (i={i}, j={j})")
            b.terminals[t_ij] = recover(f"x{i}.{j}")
            b.add_edge(line_tail, mix, line_role)
            b.add_edge(src, mix, f"chain payload (i={i}, j={j})")
            b.add_edge(mix, fan, f"chain mix out (i={i}, j={j})")
            b.add_edge(fan, t_ij, f"chain mix view (i={i}, j={j})")
            b.add_edge(r[(j, i)], t_ij, f"forced relay edge (j={j}, i={i})")
            b.add_edge(fan, cln, f"chain line copy (i={i}, j={j})")
            b.add_edge(src, cln, f"chain payload canceler (i={i}, j={j})")
            line_tail, line_role = cln, f"chain link (i={i}, j={j})"
        b.add_edge(line_tail, t_i, f"chain end i={i}")
    return b.build()


def scale_sources(code: LinearCode, a: dict[str, MatrixGF]) -> LinearCode:
    """Compose each source coefficient with a per-message invertible matrix.

    A sum solution turns into a code delivering the correspondingly weighted
    combination; scaling by the inverses restores the original code.  A scale
    or a source coefficient of the wrong shape or field is ``CodeError``.
    """
    for msg, mat in a.items():
        if mat.field != code.field or (mat.rows, mat.cols) != (code.k, code.k):
            raise CodeError(f"scale for {msg!r} must be k x k over GF({code.field.p})")
        if rank(mat) != code.k:
            raise CodeError(f"scale for {msg!r} is singular")
    for key, m in code.source_coeff.items():
        if m.field != code.field or (m.rows, m.cols) != (code.n, code.k):
            raise CodeError(f"source coefficient {key} must be n x k over GF({code.field.p})")
    times, shared = lru_cache(maxsize=None)(mat_mul), {}  # equal products share one matrix
    src = {key: shared.setdefault(prod := times(m, a[key[0]]), prod) if key[0] in a else m
           for key, m in code.source_coeff.items()}
    return LinearCode(
        code.field, code.k, code.n, src, dict(code.local_coeff), dict(code.decode_coeff)
    )
