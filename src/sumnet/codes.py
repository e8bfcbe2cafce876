"""Fractional linear codes, transfer matrices and nonlinear table codes.

A (k, n) linear code assigns an n x k mixing matrix to every (message,
out-edge) pair at a source, an n x n matrix to every adjacent (in-edge,
out-edge) pair at an interior node, and a k x n matrix per (terminal,
in-edge, recovery slot).  Missing keys mean the zero matrix, so sparse codes
stay cheap to write down.

Reading a code, reversing it and scaling its sources build one ``MatrixGF``
per distinct coefficient, which equal coefficients share; writing a code
encodes each distinct coefficient once.

The transfer matrix between the stacked source messages and the stacked
terminal recoveries is computed by propagating symbolic edge maps in
topological order, each row packed into one int by ``gflin.PackedRows``, the
row kernel the search uses, and each block multiplied with ``PackedRows.times``;
on small graphs the tests cross-check it against the path-gain-sum definition
by explicit path enumeration.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .gflin import DimensionMismatch, FieldSpec, MatrixGF, PackedRows, packed_rows
from .netmodel import (
    Demand, Network, NetworkError, json_int, json_key, json_layout, json_list, json_str, reverse_id,
    reverse_roles,
)


class CodeError(ValueError):
    """Code is malformed or not bound to the given network."""


class BudgetExceededError(RuntimeError):
    """An exhaustive check would exceed its configured budget."""


@dataclass(frozen=True)
class LinearCode:
    field: FieldSpec
    k: int
    n: int
    source_coeff: dict[tuple[str, str], MatrixGF]
    local_coeff: dict[tuple[str, str], MatrixGF]
    decode_coeff: dict[tuple[str, str, int], MatrixGF]

    def source(self, msg: str, edge_id: str) -> MatrixGF:
        m = self.source_coeff.get((msg, edge_id))
        return m if m is not None else MatrixGF.zeros(self.field, self.n, self.k)

    def local(self, edge_in: str, edge_out: str) -> MatrixGF:
        m = self.local_coeff.get((edge_in, edge_out))
        return m if m is not None else MatrixGF.zeros(self.field, self.n, self.n)

    def decode(self, terminal: str, edge_id: str, slot: int) -> MatrixGF:
        m = self.decode_coeff.get((terminal, edge_id, slot))
        return m if m is not None else MatrixGF.zeros(self.field, self.k, self.n)


def edge_keys(net: Network) -> Iterator[tuple[str, list[tuple]]]:
    """Each out-edge with its coefficient keys, in topological order of its tail and then by id.

    A source's out-edge has ``("alpha", msg, edge)`` per message, any other
    ``("beta", in_edge, edge)`` per in-edge of its tail.
    """
    for v in net.topo_order():
        for e in net.out_edges(v):
            yield e.id, ([("alpha", m, e.id) for m in net.sources[v]] if v in net.sources
                         else [("beta", ein.id, e.id) for ein in net.in_edges(v)])


def decoder_keys(net: Network) -> Iterator[tuple[str, list[tuple]]]:
    """Each terminal with its keys ``("gamma", terminal, edge, slot)``, by slot and then in-edge."""
    for t in net.terminal_nodes():
        slots = range(len(net.terminals[t].slots()))
        yield t, [("gamma", t, e.id, slot) for slot in slots for e in net.in_edges(t)]


def coefficient_table(net: Network, k: int, n: int) -> dict[tuple, tuple[int, int]]:
    """Every coefficient of a (k, n) code on ``net``, with its (rows, cols) shape.

    The keys of ``edge_keys``, alpha n x k and beta n x n, then those of
    ``decoder_keys``, gamma k x n.
    """
    shape = {"alpha": (n, k), "beta": (n, n), "gamma": (k, n)}
    return {u: shape[u[0]] for _, us in chain(edge_keys(net), decoder_keys(net)) for u in us}


def linear_code(field: FieldSpec, k: int, n: int, coeffs: Mapping[tuple, MatrixGF]) -> LinearCode:
    """The code whose coefficient at each ``coefficient_table`` key is ``coeffs[key]``."""
    parts: dict[str, dict] = {"alpha": {}, "beta": {}, "gamma": {}}
    for key, m in coeffs.items():
        parts[key[0]][key[1:]] = m
    return LinearCode(field, k, n, parts["alpha"], parts["beta"], parts["gamma"])


def validate_code(net: Network, code: LinearCode) -> None:
    """Check that k, n >= 1 and every coefficient is in the network's table with its shape, over the code's field."""
    if code.k < 1 or code.n < 1:
        raise CodeError("k and n must be positive")
    table = coefficient_table(net, code.k, code.n)
    for kind, coeffs in (("alpha", code.source_coeff), ("beta", code.local_coeff),
                         ("gamma", code.decode_coeff)):
        for key, m in coeffs.items():
            shape = table.get((kind, *key))
            if shape is None:
                raise CodeError(f"{kind} coefficient {key} is not in the network's coefficient table")
            if (m.rows, m.cols) != shape:
                raise CodeError(f"{kind} coefficient {key} must be {shape[0]} x {shape[1]}")
            if m.field != code.field:
                raise CodeError(f"{kind} coefficient {key} must be over GF({code.field.p})")


def identity_code(net: Network, field: FieldSpec, k: int = 1) -> LinearCode:
    """(k, k) code with every coefficient the identity matrix."""
    eye = MatrixGF.identity(field, k)
    return linear_code(field, k, k, dict.fromkeys(coefficient_table(net, k, k), eye))


# -- evaluation and transfer --------------------------------------------------


def eval_linear(
    net: Network, code: LinearCode, x: Mapping[str, Iterable[int]]
) -> dict[str, list[tuple[int, ...]]]:
    """Recovered slot vectors per terminal, for k symbols per message: integers (``operator.index``) mod p."""
    p, k = code.field.p, code.k
    msgs = net.messages()
    if missing := [m for m in msgs if m not in x]:
        raise CodeError(f"input misses messages {missing}")
    vec: list[int] = []
    for m in msgs:
        try:
            symbols = [operator.index(a) % p for a in x[m]]
        except TypeError:
            raise CodeError(f"message {m!r} needs a vector of integers") from None
        if len(symbols) != k:
            raise CodeError(f"message {m!r} needs {k} symbols, got {len(symbols)}")
        vec += symbols
    y = [sum(map(operator.mul, row, vec)) % p for row in transfer_entries(net, code)]
    out: dict[str, list[tuple[int, ...]]] = {}
    for i, (t, _label) in enumerate(transfer_rows(net)):
        out.setdefault(t, []).append(tuple(y[i * k:(i + 1) * k]))
    return out


@dataclass(frozen=True)
class TransferMatrix:
    """Stacked terminal recoveries as a linear map of stacked source messages."""

    field: FieldSpec
    k: int
    row_labels: tuple[tuple[str, str], ...]  # (terminal, slot label)
    col_labels: tuple[str, ...]  # message ids
    matrix: MatrixGF

    def block(self, i: int, j: int) -> MatrixGF:
        k = self.k
        rows = self.matrix.entries[i * k:(i + 1) * k]
        return MatrixGF._reduced(self.field, tuple(r[j * k:(j + 1) * k] for r in rows))


def transfer_rows(net: Network) -> tuple[tuple[str, str], ...]:
    return tuple((t, label) for t in net.terminal_nodes() for label in net.terminals[t].slots())


def message_rows(net: Network, gf: PackedRows, k: int) -> dict[str, list[int]]:
    """Each message's k symbols as unit rows over the stacked message columns, packed by ``gf``."""
    return {m: [gf.unit(i * k + j) for j in range(k)] for i, m in enumerate(net.messages())}


def target_rows(net: Network, units: Mapping[str, list[int]], k: int) -> dict[str, list[int]]:
    """Per terminal, the k rows per slot a solution recovers, from each message's rows ``units``
    (``message_rows``): the slot's message, or every message summed."""
    out: dict[str, list[int]] = {t: [] for t in net.terminal_nodes()}
    for t, label in transfer_rows(net):
        msgs = units if net.terminals[t].kind == "sum" else [label]
        out[t] += [sum(units[m][j] for m in msgs) for j in range(k)]
    return out


def _recovered_rows(net: Network, code: LinearCode) -> tuple[PackedRows, dict, dict[str, list[int]]]:
    """The row kernel, each message's rows, and per terminal its recovered rows, k per slot.

    One walk in topological order over the keys ``coefficient_table`` names;
    each out-edge's or slot's coefficients, side by side, multiply their stacked
    input rows in one ``PackedRows.times`` call.  Each node pops its in-edges'
    maps, so only the maps of edges whose head is still ahead stay alive.
    """
    gf = packed_rows(code.field.p, len(net.messages()) * code.k)
    units = message_rows(net, gf, code.k)
    maps: dict[str, list[int]] = {}
    out: dict[str, list[int]] = {}

    def combine(coeffs: Mapping, ins: list[tuple[tuple, list[int]]], rows: int) -> list[int]:
        """The sum over the keys of ``ins`` of the coefficient there times the key's input rows."""
        entries, stacked = [], []
        for key, x in ins:
            if (m := coeffs.get(key)) is not None:
                if m.field.p != gf.p or len(m.entries) != rows or len(m.entries[0]) != len(x):
                    raise CodeError(f"coefficient {key} must be {rows} x {len(x)} over GF({gf.p})")
                entries.append(m.entries)
                stacked += x
        return gf.times(map(chain.from_iterable, zip(*entries)) if entries else [()] * rows, stacked)

    for v in net.topo_order():
        if v in net.sources:
            coeffs, ins = code.source_coeff, [(m, units[m]) for m in net.sources[v]]
        else:
            coeffs, ins = code.local_coeff, [(e.id, maps.pop(e.id)) for e in net.in_edges(v)]
        for e in net.out_edges(v):
            maps[e.id] = combine(coeffs, [((a, e.id), x) for a, x in ins], code.n)
        if v in net.terminals:
            out[v] = [row for slot in range(len(net.terminals[v].slots()))
                      for row in combine(code.decode_coeff, [((v, a, slot), x) for a, x in ins], code.k)]
    return gf, units, out


def transfer_entries(net: Network, code: LinearCode) -> tuple[tuple[int, ...], ...]:
    """The transfer matrix's rows, which may be none or empty: the walk's rows, unpacked."""
    gf, _, rows = _recovered_rows(net, code)
    return tuple([gf.unpack(r) for t in net.terminal_nodes() for r in rows[t]])


def transfer_matrix(net: Network, code: LinearCode) -> TransferMatrix:
    if not (entries := transfer_entries(net, code)) or not entries[0]:
        raise DimensionMismatch("matrix needs at least one row and column")
    matrix = MatrixGF._reduced(code.field, entries)
    return TransferMatrix(code.field, code.k, transfer_rows(net), net.messages(), matrix)


def is_solution(net: Network, code: LinearCode) -> bool:
    """True iff every terminal recovers exactly its target rows, so the transfer matrix hits its target."""
    _, units, rows = _recovered_rows(net, code)
    return rows == target_rows(net, units, code.k)


def path_gain(
    net: Network,
    code: LinearCode,
    path: Iterable[str],
    msg: Optional[str] = None,
    terminal: Optional[str] = None,
    slot: int = 0,
) -> MatrixGF:
    """Ordered product of the local coefficients along a path, last leftmost.

    ``msg`` prepends the virtual message edge (the source coefficient becomes
    the first factor); ``terminal`` appends the recovery edge (the decode
    coefficient becomes the last).  A bare single-edge path has no factors
    and yields the n x n identity.
    """
    edges = list(path)
    if not edges:
        raise CodeError("empty path")
    for a, b in zip(edges, edges[1:]):
        if net.edge(a).head != net.edge(b).tail:
            raise CodeError(f"edges {a!r} and {b!r} are not adjacent")
    factors: list[MatrixGF] = []
    if msg is not None:
        if net.edge(edges[0]).tail != net.message_source(msg):
            raise CodeError(f"path does not start at the source of {msg!r}")
        factors.append(code.source(msg, edges[0]))
    for a, b in zip(edges, edges[1:]):
        factors.append(code.local(a, b))
    if terminal is not None:
        if net.edge(edges[-1]).head != terminal:
            raise CodeError(f"path does not end at {terminal!r}")
        factors.append(code.decode(terminal, edges[-1], slot))
    gain = MatrixGF.identity(code.field, code.n if msg is None else code.k)
    for f in factors:
        gain = f @ gain
    return gain


def canonical_reverse_code(net: Network, code: LinearCode) -> LinearCode:
    """Code for the reversed network: every coefficient transposed and re-keyed.

    Source coefficients become decode coefficients of the swapped roles and
    vice versa; every path gain in the reverse network is the transpose of the
    original, hence so is the whole transfer matrix.
    """
    rev_sources = reverse_roles(net)[0]
    transpose = lru_cache(maxsize=None)(MatrixGF.transpose)  # equal coefficients share one transpose
    loc = {
        (reverse_id(eout), reverse_id(ein)): transpose(m)
        for (ein, eout), m in code.local_coeff.items()
    }
    source_slot = {msg: (s, slot) for s, ms in net.sources.items() for slot, msg in enumerate(ms)}
    dec: dict[tuple[str, str, int], MatrixGF] = {}
    for (msg, eid), m in code.source_coeff.items():
        if msg not in source_slot:
            raise NetworkError(f"unknown message {msg!r}")
        s, slot = source_slot[msg]
        dec[(s, reverse_id(eid), slot)] = transpose(m)
    src: dict[tuple[str, str], MatrixGF] = {}
    for (t, eid, slot), m in code.decode_coeff.items():
        src[(rev_sources[t][slot], reverse_id(eid))] = transpose(m)
    return LinearCode(code.field, code.k, code.n, src, loc, dec)


# -- nonlinear table codes ----------------------------------------------------


@dataclass(frozen=True)
class NonlinearCode:
    """Table-based code over the cyclic group Z_q (scalar symbols).

    An edge's table is indexed by its tail's inputs and a terminal's decode
    table by the terminal's, by the one rule of ``table_index``.  Each terminal
    recovers a single symbol.
    """

    q: int
    edge_fn: dict[str, tuple[int, ...]]
    decode_fn: dict[str, tuple[int, ...]]


def table_arities(net: Network) -> dict[tuple[str, str], int]:
    """Every table of a Z_q code on ``net``, with its arity: it has q**arity entries.

    ``("edge", e)`` per out-edge of ``edge_keys``, then ``("dec", t)`` per
    terminal of ``decoder_keys``; a table's arity is its count of keys.  A
    decode table outputs one symbol, so a multi-slot demand is ``CodeError``.
    """
    if any(len(d.slots()) != 1 for d in net.terminals.values()):
        raise CodeError("nonlinear codes support single-slot demands only")
    return {**{("edge", e): len(us) for e, us in edge_keys(net)},
            **{("dec", t): len(us) for t, us in decoder_keys(net)}}


def validate_nonlinear(net: Network, code: NonlinearCode) -> None:
    if code.q < 2:
        raise CodeError("q must be at least 2")
    for (kind, at), arity in table_arities(net).items():
        what = f"table for edge {at!r}" if kind == "edge" else f"decode table for terminal {at!r}"
        table = (code.edge_fn if kind == "edge" else code.decode_fn).get(at)
        if table is None:
            raise CodeError(f"missing {what}")
        if len(table) != code.q ** arity:
            raise CodeError(f"{what} is not total")
        if any(not 0 <= v < code.q for v in table):
            raise CodeError(f"{what} has out-of-range symbols")


def table_index(net: Network, v: str, sym: Mapping[str, int], x: Mapping[str, int], q: int) -> int:
    """Position of node ``v``'s inputs in its tables, flattened in lexicographic input order.

    A source reads its messages' symbols ``x`` in declaration order, any other
    node its in-edges' symbols ``sym`` in id order.
    """
    idx = 0
    if v in net.sources:
        for m in net.sources[v]:
            idx = idx * q + x[m]
    else:
        for e in net.in_edges(v):
            idx = idx * q + sym[e.id]
    return idx


def table_symbols(
    net: Network, edges: Iterable[str], tables: Mapping[str, tuple[int, ...]], x: Mapping[str, int], q: int
) -> dict[str, int]:
    """The symbol on each of ``edges`` under the source symbols ``x``, all in Z_q.

    ``edges`` are listed in topological order and closed under in-edges, and
    ``tables[e]`` is edge e's table.
    """
    sym: dict[str, int] = {}
    for eid in edges:
        sym[eid] = tables[eid][table_index(net, net.edge(eid).tail, sym, x, q)]
    return sym


def demanded_symbol(demand: Demand, x: Mapping[str, int], q: int) -> int:
    """What a single-slot terminal must output under the source symbols ``x``."""
    return sum(x.values()) % q if demand.kind == "sum" else x[demand.messages[0]]


def _decoded(net: Network, code: NonlinearCode, edges: list[str], x: Mapping[str, int]) -> dict[str, int]:
    """Each terminal's output under the residues ``x``; ``edges`` lists every edge in topological order."""
    sym = table_symbols(net, edges, code.edge_fn, x, code.q)
    return {t: code.decode_fn[t][table_index(net, t, sym, x, code.q)] for t in net.terminal_nodes()}


def eval_nonlinear(net: Network, code: NonlinearCode, x: Mapping[str, int]) -> dict[str, int]:
    """Each terminal's output symbol, for one symbol per message: an integer (``operator.index``) mod q."""
    validate_nonlinear(net, code)
    if missing := [m for m in net.messages() if m not in x]:
        raise CodeError(f"input misses messages {missing}")
    symbols = {}
    for m in net.messages():
        try:
            symbols[m] = operator.index(x[m]) % code.q
        except TypeError:
            raise CodeError(f"message {m!r} needs an integer") from None
    return _decoded(net, code, [eid for eid, _ in edge_keys(net)], symbols)


MAX_INPUTS = 1_000_000  # the most source tuples an exhaustive Z_q check or search runs over


def source_inputs(msgs: Sequence[str], q: int, budget: int = MAX_INPUTS) -> Iterator[dict[str, int]]:
    """Every source tuple over Z_q, in product order; raises BudgetExceededError at once past ``budget``."""
    if q ** len(msgs) > budget:
        raise BudgetExceededError(f"{q}**{len(msgs)} inputs exceed budget {budget}")
    return (dict(zip(msgs, values)) for values in product(range(q), repeat=len(msgs)))


def verify_nonlinear(net: Network, code: NonlinearCode, budget: int = MAX_INPUTS) -> bool:
    """Exhaustively check every source tuple; may raise BudgetExceededError."""
    validate_nonlinear(net, code)
    edges = [eid for eid, _ in edge_keys(net)]
    for x in source_inputs(net.messages(), code.q, budget):
        got = _decoded(net, code, edges, x)
        if any(got[t] != demanded_symbol(d, x, code.q) for t, d in net.terminals.items()):
            return False
    return True


def additive_code(net: Network, q: int) -> NonlinearCode:
    """Every edge and decoder outputs the sum of its inputs mod q."""
    fns: dict[str, dict[str, tuple[int, ...]]] = {"edge": {}, "dec": {}}
    for (kind, at), arity in table_arities(net).items():
        fns[kind][at] = tuple(sum(inp) % q for inp in product(range(q), repeat=arity))
    return NonlinearCode(q, fns["edge"], fns["dec"])


# -- JSON ----------------------------------------------------------------------


# One table per file format: each section, named after its field of
# ``LinearCode`` or ``NonlinearCode``, with the parts of an entry's key.  An
# entry holds its key's parts, then its value, "mat" or "table"; a "slot" is
# an integer and every other part a string.
_LINEAR_SECTIONS = {
    "source_coeff": ("msg", "edge"),
    "local_coeff": ("in", "out"),
    "decode_coeff": ("terminal", "edge", "slot"),
}
_TABLE_SECTIONS = {"edge_fn": ("edge",), "decode_fn": ("terminal",)}


def _code_text(code, head: dict, sections: Mapping, value: str, text: Callable) -> str:
    """A code file: ``head``, then each section's entries, sorted by key, one object per line.

    The layout is ``netmodel.json_text``'s, without a dict per entry.  An
    entry's line fills its section's template, fields in sorted order, with its
    key's parts, each string encoded once per file, and ``text`` of its value; a
    table code's keys are bare strings.  Only strings share texts: keys equal
    across types, such as 1 and True, are written differently.
    """
    strs, fields = lru_cache(maxsize=None)(json.dumps), {name: json.dumps(x) for name, x in head.items()}
    for section, parts in sections.items():
        values, names, bare = getattr(code, section), (*parts, value), len(parts) == 1
        line = ("{{" + ", ".join(f"{json.dumps(x)}: {{{names.index(x)}}}" for x in sorted(names)) + "}}").format
        fields[section] = [line(*[strs(x) if type(x) is str else repr(x) if type(x) is int else json.dumps(x)
                                  for x in ((key,) if bare else key)], text(values[key])) for key in sorted(values)]
    return json_layout(fields)


def code_to_dict(code: LinearCode) -> dict:
    """The parsed file of ``code_to_json``."""
    return json.loads(code_to_json(code))


def _section_from_json(entries: tuple, section: str, parts: tuple[str, ...], value: str) -> Iterator[tuple]:
    """Each entry's checked key as a tuple of its parts, with its unchecked ``value``.

    A well-formed entry costs one lookup and one type test per part; any
    other is read again by the ``json_key`` checks, which raise.
    """
    what = f"{section} entry"
    get, types = operator.itemgetter(*parts, value), tuple(int if part == "slot" else str for part in parts)
    checks = [(part, json_int if part == "slot" else json_str, f"{what} {part}") for part in parts]
    for e in entries:
        try:
            got = get(e)
        except (KeyError, TypeError):
            got = None
        if got is not None and tuple(map(type, key := got[:-1])) == types:
            yield key, got[-1]
        else:
            key = tuple([check(json_key(e, part, what, CodeError), about, CodeError) for part, check, about in checks])
            yield key, json_key(e, value, what, CodeError)


def _ints(values, what: str) -> tuple[int, ...]:
    """A parsed JSON list of integers; a bool, a float, a string or null is ``CodeError``."""
    values = json_list(values, what, CodeError)
    if any(type(v) is not int for v in values):
        raise CodeError(f"{what} entries must be integers")
    return values


def _rows_from_json(value, what: str) -> tuple[tuple[int, ...], ...]:
    """A parsed JSON list of integer rows, all of one nonzero length, as a tuple of tuples, else ``CodeError``."""
    row = f"{what} row"
    rows = tuple([json_list(r, row, CodeError) for r in json_list(value, what, CodeError)])
    if not all([type(x) is int for r in rows for x in r]):
        raise CodeError(f"{what} entries must be integers")
    if not rows or not rows[0] or len(set(map(len, rows))) != 1:
        raise CodeError(f"{what} must have at least one row, all of one nonzero length")
    return rows


def matrix_from_json(value, field: FieldSpec, what: str) -> MatrixGF:
    """A parsed JSON list of integer rows as a matrix, else ``CodeError``."""
    return MatrixGF(field, _rows_from_json(value, what))


def code_from_dict(d: dict) -> LinearCode:
    f = FieldSpec(json_int(json_key(d, "field", "linear code", CodeError), "field", CodeError))
    k, n = (json_int(json_key(d, x, "linear code", CodeError), x, CodeError) for x in ("k", "n"))
    if k < 1 or n < 1:
        raise CodeError("k and n must be positive")
    # Rows as written and as reduced both map to their one matrix, which equal coefficients share.
    coeffs, shared = {}, {}
    for section, parts in _LINEAR_SECTIONS.items():
        entries, what = json_list(d.get(section, []), section, CodeError), f"{section} mat"
        coeffs[section] = part = {}
        for key, mat in _section_from_json(entries, section, parts, "mat"):
            try:
                m = shared.get(rows := tuple(map(tuple, mat)))
            except TypeError:  # a value or a row that is no list, or a list entry
                m = None
            # A hit has the shape of rows read before, but 1.0 and True hash like 1: test the types.
            if m is None or not all([type(x) is int for r in rows for x in r]):
                m = MatrixGF(f, rows := _rows_from_json(mat, what))
                shared[rows] = m = shared.setdefault(m.entries, m)
            part[key] = m
    return LinearCode(f, k, n, **coeffs)


def code_to_json(code: LinearCode) -> str:
    """The file of a linear code, each distinct string and coefficient encoded once."""
    mats = lru_cache(maxsize=None)(json.dumps)  # a coefficient's entries are ints, so equal keys have one text
    head = {"field": code.field.p, "k": code.k, "n": code.n}
    return _code_text(code, head, _LINEAR_SECTIONS, "mat", lambda m: mats(m.entries))


def code_from_json(text: str) -> LinearCode:
    return code_from_dict(json.loads(text))


def nonlinear_to_dict(code: NonlinearCode) -> dict:
    """The parsed file of ``nonlinear_to_json``."""
    return json.loads(nonlinear_to_json(code))


def nonlinear_from_dict(d: dict) -> NonlinearCode:
    q = json_int(json_key(d, "q", "table code", CodeError), "q", CodeError)
    tables = {}
    for section, parts in _TABLE_SECTIONS.items():
        entries = json_list(d.get(section, []), section, CodeError)
        tables[section] = {key[0]: _ints(table, f"{section} table")
                           for key, table in _section_from_json(entries, section, parts, "table")}
    return NonlinearCode(q, **tables)


def nonlinear_to_json(code: NonlinearCode) -> str:
    """The file of a table code, each distinct string encoded once."""
    return _code_text(code, {"q": code.q}, _TABLE_SECTIONS, "table", json.dumps)


def nonlinear_from_json(text: str) -> NonlinearCode:
    return nonlinear_from_dict(json.loads(text))
