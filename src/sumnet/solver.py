"""Exhaustive solvability search with a two-stage split.

Stage 1 enumerates the interior coefficients (source mixing and local
coefficients); stage 2 solves for the decoding coefficients of each terminal
as an exact linear system, which is complete because every recovery is linear
in the decoding coefficients once the interior is fixed.  ``search_nonlinear``
likewise enumerates only the edge tables of ``codes.table_arities``.

One lossless reduction, gauge fixing, shrinks stage 1, so an exhausted
search still justifies an "unsolvable" verdict.  An out-edge's coefficients
side by side form its block, ``[alpha_1 | ... | alpha_s]`` (n x sk) at a
source or ``[B_1 | ... | B_d]`` (n x dn) behind a relay, and the edge carries
the block times the stacked symbols it reads.  If a block B equals N B', every
consumer of the edge can use C N in place of C, and decoders are solved
exactly in stage 2.  So one block per row space suffices, and a larger row
space dominates a smaller one.  A block with cols <= n columns is therefore
pinned to ``eye(n, cols)``; a wider one runs over the full-rank n x cols
matrices in reduced row echelon form, pivot sets in lexicographic order, then
free entries row-major.  With ``reduce`` off, a wider block runs over every
matrix instead, while narrow blocks stay pinned.  ``_StagedProblem`` sets
itself up in one pass over the out-edges in topological order, from
``codes.edge_keys``, the walk ``codes.coefficient_table`` is built from: each
edge gets its keys and its pinned block or its candidates.  Each enumerated
block is one unit, ``("block", eid)``.  ``reads[eid]`` is what an edge reads:
message rows and constant maps as row lists, any other in-edge by id.  The
one map walk, ``_fill_maps``, gives each edge of a list, in topological
order, its block times the rows it reads; a pinned block passes them through.
Set-up runs it on each pinned edge that reads only row lists, and keeps its
constant map; the check runs it on a terminal's plan, below; the witness
starts from the constant maps, runs it on every other edge, splits each block
back into its keys by column slice, and solves each terminal's decoders on
its in-edges' maps.

The Z_q table search has the same gauge: if an edge's table is g h, with h
onto min(q, L) values, its consumers read g(h) and absorb g and any renaming
of h's values.  So ``_growth_tables`` lists only the restricted-growth tables
(symbols first occur as 0, 1, ...) with exactly min(q, L) values, in
lexicographic order, which pins an edge that reads one symbol to the identity.
With ``reduce`` off, every table is enumerated.

The remaining unknowns are grouped into buckets, one per terminal, in greedy
order of smallest outstanding dependency set.  A bucket with a terminal check
that reads only its own unknowns has one context-independent enumerator.
The outer search is one loop over a stack of survivor iterators, one per
bucket reached, and each visit of such a bucket reads an ``itertools.tee``
copy, which pulls a survivor only past those already buffered.  So a
solvable search stops at its first witness, and ``enumerated`` counts the
ticks up to it; an unsolvable one enumerates such a bucket in full, once.  The
outer search applies the bucket's cross-bucket checks to each survivor.  A
bucket whose every check is cross-bucket would share only its whole product,
so it is enumerated afresh under each assignment of the earlier buckets
instead, with each check tried as soon as its terminal's last unknown is
assigned.  Within a bucket, each unit runs over its candidates in order and
buckets nest in emission order, so the first witness is deterministic.

``search_linear``, the reference ``naive_search_linear`` and
``search_nonlinear`` share one driver, ``_BucketSearch``: each passes its
terminals, their dependency sets, each unit's candidate sequence, its
terminal check and a function that builds a code from a full assignment.
The candidates are gauge-fixed or all blocks, every coefficient matrix for
the naive search, and gauge-fixed or all Z_q tables, each a 1 x L matrix,
for the nonlinear one.  The driver groups the units into buckets and places
every check itself, gives a unit no terminal observes its first candidate,
re-verifies the witness and writes the report.  The nonlinear check
evaluates a cone with ``codes.table_symbols``, the Z_q evaluator of
``eval_nonlinear``, and ``codes.demanded_symbol``.

The linear search prunes with one check, ``feasible``, sound under any
partial assignment: the row-space view of Koetter & Medard (2003) used as
forward checking.  It walks terminal t's cone once in topological order.  An
assigned or pinned block gives its edge a map; an unassigned one gives a zero
map and makes the rows it multiplies loose; and the block being enumerated,
with a prefix's open entries at 0, makes its rows at the open columns loose.
Under any completion an edge's true map is its map plus rows in the span of
the loose rows made upstream of it.  Every cone edge has a path to t whose
every step e -> e' is a local coefficient, as tail(e') has an in-edge, and no
edge below an open block has a constant map, so every loose row of the cone
reaches t.  A target row of t outside the span of t's in-edge maps and the
cone's loose rows therefore rules out every completion.  With every block
assigned the check is exact.  Set-up gives t a plan: the basis of its
constant in-edge maps, its targets reduced against it, zero rows dropped, and
its cone edges and in-edges without a constant map.  With no target left the
check answers True; else it walks the plan's edges and puts the distinct
in-edge and loose rows into a copy of the basis.  Every check's span holds
the constant span, and a span depends on neither the order nor the repeats
of its rows, so no answer changes.
The driver tries it before a bucket's first unit, after each earlier unit of
t's cone, at t's last unit, and, with ``reduce`` on, on the block prefixes of
t's cone units: ``_rref_matrices`` walks a block's free entries as a prefix
tree.  A prefix is checked if it leaves at least two entries open and fewer
columns open than its parent, which answers the same.  The first pivot set's
empty prefix is not: P X and the open rows make up X, as for an unassigned
block, so it repeats the check before the unit.  A rejected prefix costs one
tick for at least p^2 leaves, each of which would cost one and then fail, and
every check is necessary for the exact one, so survivors and witnesses are
unchanged and no count rises.  ``naive_search_linear`` is the reference
oracle and checks each terminal only at its last unit.

The check, the decoder solve (``gflin.PackedRows.solve``) and the witness's
re-verification share the row kernel ``gflin.PackedRows`` and the rows of
``codes.message_rows`` and ``codes.target_rows``.

Nothing recurses per bucket, per unit or per free entry, and the walk leaves
no reference cycle: the shared enumerators are dropped when it ends, so all
of it is freed by reference counting rather than by the cyclic collector.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, partial
from heapq import heapify, heappop, heappush
from itertools import combinations, product, tee
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .codes import (
    LinearCode,
    NonlinearCode,
    code_to_dict,
    coefficient_table,
    decoder_keys,
    demanded_symbol,
    edge_keys,
    is_solution,
    linear_code,
    message_rows,
    nonlinear_to_dict,
    source_inputs,
    table_arities,
    table_index,
    table_symbols,
    target_rows,
    transfer_rows,
    verify_nonlinear,
)
from .families import FamilySpec, generate
from .gflin import FieldSpec, MatrixGF, packed_rows
from .netmodel import Network

SOLVABLE = "solvable"
UNSOLVABLE = "unsolvable"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SearchOptions:
    budget: int = 50_000_000
    # Off, a block wider than n runs over every matrix, not one RREF block per
    # row space, and no block prefix is checked, though the relaxed check still
    # runs between units; a Z_q table runs over all q^L tables, not the
    # restricted-growth ones.  This cross-checks both; narrow blocks stay pinned.
    reduce: bool = True

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be at least 1")


@dataclass
class SearchReport:
    verdict: str
    mode: str
    enumerated: int
    elapsed: float
    witness: Optional[object] = None

    def to_dict(self) -> dict:
        w = None
        if isinstance(self.witness, LinearCode):
            w = {"kind": "linear", **code_to_dict(self.witness)}
        elif isinstance(self.witness, NonlinearCode):
            w = {"kind": "nonlinear", **nonlinear_to_dict(self.witness)}
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "enumerated": self.enumerated,
            "elapsed_s": round(self.elapsed, 6),
            "witness": w,
        }


class _Budget(Exception):
    pass


def _mode(k: int, n: int) -> str:
    if k == n == 1:
        return "scalar"
    if k == n:
        return f"vector({k})"
    return f"fractional({k},{n})"


def _all_matrices(rows: int, cols: int, base: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every rows x cols matrix over 0..base-1, entries row-major, the last varying fastest."""
    for flat in product(range(base), repeat=rows * cols):
        yield tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))


def _rref_matrices(rows: int, cols: int, p: int, prune: Optional[Callable] = None) -> Iterator[tuple]:
    """The full-rank rows x cols matrices in reduced row echelon form, one per row space.

    Pivot sets come in lexicographic order, then the free entries row-major
    over 0..p-1, the last varying fastest.  ``prune(block, open)`` is offered
    the prefixes the module docstring names, with the free entries ``open``
    at 0 in ``block``; a False answer skips the prefix's completions.
    """
    for pivots in combinations(range(cols), rows):
        free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, cols) if j not in pivots]
        m = [[int(j == c) for j in range(cols)] for c in pivots]
        yield from _completions(m, free, p, prune, pivots != tuple(range(rows)))


def _completions(m: list, free: list, p: int, prune, check: bool) -> Iterator[tuple[tuple[int, ...], ...]]:
    """``m`` with its ``free`` entries run over 0..p-1 in order; ``check`` offers this prefix to ``prune``.

    With ``prune``, a stack holds the child blocks of each free entry fixed, so nothing recurses per entry."""
    def children(m: list, free: list) -> Iterator[tuple]:
        (i, j), rest = free[0], free[1:]
        for v in range(p):
            m[i][j] = v
            yield [row[:] for row in m], rest, all(c != j for _, c in rest)

    stack = [iter([(m, free, check)])]
    while stack:
        m, free, check = next(stack[-1], (None, (), False))
        if m is None:
            stack.pop()
        elif prune is not None and len(free) >= 2 and check and not prune(m, free):
            pass  # the prefix is pruned
        elif prune is not None and len(free) >= 3:
            stack.append(children(m, free))
        else:
            for vals in product(range(p), repeat=len(free)):
                for (i, j), v in zip(free, vals):
                    m[i][j] = v
                yield tuple(map(tuple, m))


def _growth_tables(length: int, q: int) -> Iterator[tuple[tuple[int, ...]]]:
    """The 1 x length restricted-growth tables with exactly min(q, length) values, lexicographically.

    Symbols first occur as 0, 1, ...  A stack entry (i, v, used) puts v at
    position i of the prefix after ``used`` symbols occurred; the least v pops first.
    """
    values, prefix, stack = min(q, length), [], [(0, 0, 0)]
    while stack:
        i, v, used = stack.pop()
        prefix[i:] = [v]
        used += v == used
        if i + 1 == length:
            yield (tuple(prefix),)
        else:
            stack += [(i + 1, w, used) for w in reversed(range(min(used + 1, q)))
                      if length - i - 2 >= values - used - (w == used)]


@lru_cache(maxsize=None)
def _eye(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(cols)) for i in range(rows))


def _code_of(f: FieldSpec, k: int, n: int, values: dict) -> LinearCode:
    """The linear code of a search result, each value a tuple of rows of residues; equal values share a matrix."""
    mats = {rows: MatrixGF._reduced(f, rows) for rows in set(values.values())}
    return linear_code(f, k, n, {u: mats[rows] for u, rows in values.items()})


def _backward_cones(net: Network) -> dict[str, list[str]]:
    """Per terminal, the edges it can observe, in topological order of their tails and then by id.

    One pass against the topological order finds the terminals each node
    reaches; an edge is in the cone of each terminal its head reaches.
    """
    reaches: dict[str, set[str]] = {}
    for v in reversed(net.topo_order()):
        reaches[v] = {v} if v in net.terminals else set()
        for e in net.out_edges(v):
            reaches[v] |= reaches[e.head]
    cones: dict[str, list[str]] = {t: [] for t in net.terminal_nodes()}
    for v in net.topo_order():
        for e in net.out_edges(v):
            for t in reaches[e.head]:
                cones[t].append(e.id)
    return cones


@dataclass
class _Bucket:
    units: list[tuple]
    # Per depth, the terminals checked once that unit is assigned, from -1
    # before the first, and those offered its prefixes.
    checks_at: dict[int, list[str]]
    prefixes_at: dict[int, list[str]]
    # Checked once the bucket is fully assigned.
    cross_checks: list[str]
    # Whether the checks read units of earlier buckets, so that the bucket is
    # enumerated afresh under each assignment of them.
    contextual: bool


class _BucketSearch:
    """The one search driver: a DFS over buckets, one loop over a stack of survivor iterators.

    A search supplies its terminals, their dependency sets ``deps``,
    ``candidates`` (every unit in canonical order with a function that returns
    a fresh iterator over its values, in enumeration order) and
    ``check(t, assign)``, the feasibility test of terminal t, and passes
    ``report`` a function that builds its code from a result.  The driver
    groups the units into buckets and places every check: terminal t is
    checked once its last unit is assigned.  With ``relaxed``, ``check`` must
    also be sound under a partial assignment: it may answer False only if no
    completion passes.  The driver then checks t before its bucket's first
    unit and after each earlier unit of ``deps[t]`` too, and with
    ``opts.reduce`` offers it each block prefix of those units as
    ``check(t, assign, u, open)``; a rejected prefix costs one tick.

    A bucket with local checks has one enumerator, kept in ``memo`` and read
    through ``tee`` copies under every assignment of the earlier buckets; its
    cross checks filter the survivors.  A contextual bucket is enumerated
    afresh under each assignment of the earlier buckets, with each check
    tried at its terminal's last unit, so it yields the same survivors in the
    same order as a filtered full product would.
    """

    def __init__(
        self,
        terminals: Sequence[str],
        deps: dict[str, set],
        candidates: dict[tuple, Callable[[], Iterator[tuple]]],
        check: Callable[..., bool],
        opts: SearchOptions,
        relaxed: bool = False,
    ):
        self.candidates = candidates
        self.check = check
        self.opts = opts
        self.count = 0
        pos = {u: i for i, u in enumerate(candidates)}
        self.prechecks = sorted(t for t in terminals if not deps[t])
        # Each bucket's lead is the terminal with the fewest units left, least
        # id first, from a heap that skips stale counts.
        left = {t: len(deps[t]) for t in terminals if deps[t]}
        readers: dict[tuple, list[str]] = {}
        for t in left:
            for u in deps[t]:
                readers.setdefault(u, []).append(t)
        heap = [(c, t) for t, c in left.items()]
        heapify(heap)
        placed: set = set()
        self.buckets: list[_Bucket] = []
        while heap:
            c, lead = heappop(heap)
            if left[lead] != c:
                continue
            fresh = sorted((u for u in deps[lead] if u not in placed), key=pos.__getitem__)
            fired = []
            for u in fresh:
                placed.add(u)
                for t in readers[u]:
                    left[t] -= 1
                    if left[t]:
                        heappush(heap, (left[t], t))
                    else:
                        fired.append(t)
            local, cross = [], []
            at = {u: i for i, u in enumerate(fresh)}
            for t in sorted(fired):
                *cone, last = sorted(at[u] for u in deps[t] if u in at)
                (local if len(cone) + 1 == len(deps[t]) else cross).append((last, t, cone))
            # With local checks, a shared survivor list filtered by the cross
            # checks; without, the list would be the whole product, so the
            # cross checks run while the bucket is enumerated instead.
            checks, cross_checks = (local, [t for _, t, _ in cross]) if local else (cross, [])
            b = _Bucket(fresh, {}, {}, cross_checks, contextual=not local)
            for last, t, cone in sorted(checks):
                b.checks_at.setdefault(last, []).append(t)
                if not relaxed:
                    continue
                for d in [-1] + cone:
                    b.checks_at.setdefault(d, []).append(t)
                for d in cone + [last] if opts.reduce else ():
                    b.prefixes_at.setdefault(d, []).append(t)
            self.buckets.append(b)
        self.unobserved = [u for u in candidates if u not in placed]
        # Per shared bucket: an unread tee of its enumerator, which buffers its survivors.
        self.memo: dict[int, Iterator[tuple]] = {}
        self.assign: dict = {}

    def _tick(self) -> None:
        self.count += 1
        if self.count > self.opts.budget:
            raise _Budget()

    def _candidates(self, bi: int, depth: int, assign: dict) -> Iterator[tuple]:
        """Unit ``depth`` of bucket bi's values, offering their prefixes to its prefix checks."""
        b = self.buckets[bi]
        u = b.units[depth]
        values = self.candidates[u]
        prefixes = b.prefixes_at.get(depth)
        if prefixes:
            def keep(block: list, open_: list) -> bool:
                assign[u] = block
                if all(self.check(t, assign, u, open_) for t in prefixes):
                    return True
                self._tick()
                return False
            values = partial(values, prune=keep)
        return iter(values())

    def _enumerate(self, bi: int, assign: dict) -> Iterator[tuple]:
        """Bucket bi's survivors in order, from a stack of per-unit iterators; each unit goes into ``assign``."""
        units, at = self.buckets[bi].units, self.buckets[bi].checks_at
        stack = [self._candidates(bi, 0, assign)] if all(self.check(t, assign) for t in at.get(-1, ())) else []
        while stack:
            u = units[depth := len(stack) - 1]
            for value in stack[-1]:
                self._tick()
                assign[u] = value
                if all(self.check(t, assign) for t in at.get(depth, ())):
                    break
            else:
                stack.pop()
                del assign[u]
                continue
            if depth + 1 < len(units):
                stack.append(self._candidates(bi, depth + 1, assign))
            else:
                yield tuple(assign[u] for u in units)

    def _walk(self) -> Optional[dict]:
        """The first full assignment that every bucket's checks pass, or None."""
        buckets, stack = self.buckets, []
        while len(stack) < len(buckets):
            bi = len(stack)
            if buckets[bi].contextual:
                stack.append(self._enumerate(bi, self.assign))
            else:
                # The checks read only the bucket's units: they go to a bucket-local dict.
                self.memo[bi], mine = tee(self.memo.get(bi) or self._enumerate(bi, {}))
                stack.append(mine)
            while stack:
                b = buckets[len(stack) - 1]
                sv = next(stack[-1], None)
                if sv is None:
                    stack.pop()
                    for u in b.units:
                        self.assign.pop(u, None)
                    continue
                self._tick()
                self.assign.update(zip(b.units, sv))
                if all(self.check(t, self.assign) for t in b.cross_checks):
                    break
            else:
                return None
        return dict(self.assign)

    def report(
        self, net: Network, build: Callable[[dict], object], mode: str, start: float
    ) -> SearchReport:
        """Run the search; a witness, each unobserved unit at its first value, is built and re-verified."""
        try:
            feasible = all(self.check(t, self.assign) for t in self.prechecks)
            found = self._walk() if feasible else None
        except _Budget:
            return SearchReport(BUDGET_EXCEEDED, mode, self.count - 1, time.monotonic() - start)
        finally:
            # Drop the shared enumerators now rather than leave them to the cyclic collector.
            self.memo.clear()
        if found is None:
            return SearchReport(UNSOLVABLE, mode, self.count, time.monotonic() - start)
        for u in self.unobserved:
            found[u] = next(self.candidates[u]())
        code = build(found)
        verify = verify_nonlinear if isinstance(code, NonlinearCode) else is_solution
        if not verify(net, code):
            raise AssertionError("search produced a witness that fails verification")
        return SearchReport(SOLVABLE, mode, self.count, time.monotonic() - start, code)


class _StagedProblem:
    """Precomputation for one (network, field, k, n, options) linear search.

    A symbolic edge map is a list of n rows over the #messages * k message
    columns, each packed into one int by ``self.gf``; the feasibility check and
    the decoder solve work on them with its row operations.
    """

    def __init__(self, net: Network, fieldspec: FieldSpec, k: int, n: int, opts: SearchOptions):
        self.net = net
        self.field = fieldspec
        self.p = fieldspec.p
        self.k, self.n = k, n
        self.gf = packed_rows(self.p, len(net.messages()) * k)
        self.unit_rows = message_rows(net, self.gf, k)
        self.targets = target_rows(net, self.unit_rows, k)

        # The one place the reduction is decided, in one pass over the out-edges
        # in topological order: each out-edge's coefficients side by side form
        # one n x cols block, pinned to eye(n, cols) when cols <= n and otherwise
        # enumerated, as RREF blocks when reducing.  A pinned block whose inputs
        # never change during the search gives its edge a constant map.
        enum = _rref_matrices if opts.reduce else _all_matrices
        # Per edge, its coefficient keys with their width, and what it reads.
        self.keys: dict[str, tuple[list[tuple], int]] = {}
        self.reads: dict[str, list] = {}
        self.pinned: dict[str, tuple[tuple[int, ...], ...]] = {}
        self.candidates: dict[tuple, Callable[[], Iterator[tuple]]] = {}
        self.const_maps: dict[str, list[int]] = {}
        units, const = self.unit_rows, self.const_maps
        for eid, us in edge_keys(net):
            # An edge's keys are all alpha, n x k, or all beta, n x n.
            if us and us[0][0] == "alpha":
                w, reads = k, [units[u[1]] for u in us]
            else:
                w, reads = n, [const.get(u[1], u[1]) for u in us]
            self.keys[eid] = us, w
            self.reads[eid] = reads
            cols = len(us) * w
            if cols > n:
                self.candidates[("block", eid)] = partial(enum, n, cols, self.p)
                continue
            self.pinned[eid] = _eye(n, cols)
            if str not in map(type, reads):
                self._fill_maps([eid], {}, self.const_maps)

        self.cone = _backward_cones(net)
        self.deps = {
            t: {("block", eid) for eid in cone if eid not in self.pinned} for t, cone in self.cone.items()
        }
        # Per terminal t, its check set up once (module docstring): t's cone edges
        # and in-edges without a constant map, the basis of its constant in-edge
        # maps, and its target rows reduced against that basis, zero rows dropped.
        self.plans: dict[str, tuple[list[str], list[str], dict[int, int], list[int]]] = {}
        for t, cone in self.cone.items():
            ins, basis = [e.id for e in net.in_edges(t)], {}
            for e in ins:
                for row in self.const_maps.get(e, ()):
                    self.gf.insert(basis, row)
            targets = [r for r in (self.gf.reduce(basis, trow) for trow in self.targets[t]) if r]
            self.plans[t] = ([e for e in cone if e not in self.const_maps],
                             [e for e in ins if e not in self.const_maps], basis, targets)

    def _fill_maps(self, eids: Iterable[str], assign: dict, maps: dict, u: tuple = (), open_: Sequence = ()) -> list:
        """Put the map of each edge of ``eids``, in topological order, into ``maps``; return the loose rows.

        No edge of ``eids`` has a constant map.  An edge's map is its block
        times the rows it ``reads``, an in-edge id standing for that edge's map
        in ``maps``; a pinned block, ``eye(n, cols)``, passes its rows through
        and adds n - cols zero rows.  The module docstring says which rows are
        loose and why no edge needs to track the loose rows it carries.
        """
        loose: list[int] = []
        for eid in eids:
            ins = [row for x in self.reads[eid] for row in (maps[x] if isinstance(x, str) else x)]
            if eid in self.pinned:
                maps[eid] = ins + [0] * (self.n - len(ins))
            elif (block := assign.get(("block", eid))) is None:
                maps[eid] = [0] * self.n
                loose += ins
            else:
                maps[eid] = self.gf.times(block, ins)
                if open_ and u[1] == eid:
                    loose += [ins[j] for j in {j for _, j in open_}]
        return loose

    def feasible(self, t: str, assign: dict, u: tuple = (), open_: Sequence = ()) -> bool:
        """Every target row of t lies in the span of its in-edge maps and its cone's loose rows.

        With every block assigned this is exact: decoders exist iff it holds.
        Otherwise, as the module docstring shows, a False answer rules out every
        completion.  Only t's plan is walked, from its constant basis.
        """
        walk, ins, const_basis, targets = self.plans[t]
        if not targets:
            return True
        maps: dict[str, list[int]] = {}
        rows = set(self._fill_maps(walk, assign, maps, u, open_))
        for e in ins:
            rows.update(maps[e])
        basis = dict(const_basis)
        for row in rows:
            self.gf.insert(basis, row)
        return not any(self.gf.reduce(basis, trow) for trow in targets)

    def witness(self, assign: dict) -> LinearCode:
        """The code of a search result, every unit assigned.

        The constant maps and the map walk over every other edge give each
        terminal's in-edge maps, on which its decoders are solved; each block
        splits back into its keys.
        """
        k, n, gf = self.k, self.n, self.gf
        maps = dict(self.const_maps)
        self._fill_maps([e for e in self.keys if e not in maps], assign, maps)
        values: dict[tuple, tuple] = {}
        for eid, (us, w) in self.keys.items():
            block = self.pinned[eid] if eid in self.pinned else assign[("block", eid)]
            for i, u in enumerate(us):
                values[u] = tuple([row[i * w:(i + 1) * w] for row in block])
        for t, keys in decoder_keys(self.net):
            ins = self.net.in_edges(t)
            x = gf.solve([row for e in ins for row in maps[e.id]], self.targets[t])
            if x is None:
                raise AssertionError("witness assembly hit an infeasible terminal")
            at = {e.id: j * n for j, e in enumerate(ins)}
            for u in keys:  # ("gamma", t, in-edge, slot)
                j, s = at[u[2]], u[3] * k
                values[u] = tuple([tuple(row[j:j + n]) for row in x[s:s + k]])
        return _code_of(self.field, k, n, values)


def search_linear(
    net: Network,
    fieldspec: FieldSpec,
    k: int,
    n: int,
    opts: Optional[SearchOptions] = None,
) -> SearchReport:
    """Decide (k, n) fractional linear solvability over GF(p) by staged search."""
    opts = opts or SearchOptions()
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    start = time.monotonic()
    prob = _StagedProblem(net, fieldspec, k, n, opts)
    search = _BucketSearch(net.terminal_nodes(), prob.deps, prob.candidates, prob.feasible, opts, relaxed=True)
    return search.report(net, prob.witness, _mode(k, n), start)


# -- raw reference search ------------------------------------------------------


def naive_search_linear(
    net: Network, fieldspec: FieldSpec, k: int, n: int, budget: int = 100_000_000
) -> SearchReport:
    """Reference search enumerating every coefficient, decoders included.

    No gauge fixing, no relaxed checks, no stage-2 solving: terminals are
    checked by direct comparison of their transfer rows once all their
    coefficients are assigned.  The check is plain list arithmetic, apart from
    ``PackedRows``: a source coefficient writes its message's k columns of the
    edge map, as each message appears once per source out-edge, and one list
    product, ``times``, adds in each relay and decoder coefficient times the
    rows it reads.  Exponentially slower than the staged search; exists so the
    two can be cross-checked on micro networks.
    """
    start = time.monotonic()
    p = fieldspec.p
    msgs = net.messages()
    width = len(msgs) * k
    off = {m: i * k for i, m in enumerate(msgs)}

    # Each edge's and each terminal's units, in canonical order: an edge's are
    # all alpha, each read at its message's columns, or all beta, each read from its in-edge.
    shape = coefficient_table(net, k, n)
    units, decoders = dict(edge_keys(net)), dict(decoder_keys(net))

    cones = _backward_cones(net)
    deps = {t: {u for eid in cone for u in units[eid]} | set(decoders[t]) for t, cone in cones.items()}

    target_rows_of: dict[str, list[list[list[int]]]] = {}
    for t, label in transfer_rows(net):
        ones = {off[m] for m in (msgs if net.terminals[t].kind == "sum" else [label])}
        target_rows_of.setdefault(t, []).append([[int(j - i in ones) for j in range(width)] for i in range(k)])

    def times(out: list[list[int]], coeff, ins: list[list[int]]) -> None:
        """Add ``coeff`` times the rows ``ins`` to the rows ``out``, mod p."""
        for row, crow in zip(out, coeff):
            for c, src in zip(crow, ins):
                if c:
                    for w in range(width):
                        row[w] = (row[w] + c * src[w]) % p

    def check(t: str, assign: dict) -> bool:
        maps: dict[str, list[list[int]]] = {}
        for eid in cones[t]:
            maps[eid] = m = [[0] * width for _ in range(n)]
            for u in units[eid]:
                if u[0] == "alpha":
                    o = off[u[1]]
                    for row, arow in zip(m, assign[u]):
                        row[o:o + k] = arow
                else:
                    times(m, assign[u], maps[u[1]])
        for slot, want in enumerate(target_rows_of[t]):
            r = [[0] * width for _ in range(k)]
            for e in net.in_edges(t):
                times(r, assign[("gamma", t, e.id, slot)], maps[e.id])
            if r != want:
                return False
        return True

    candidates = {u: partial(_all_matrices, rows, cols, p) for u, (rows, cols) in shape.items()}
    search = _BucketSearch(net.terminal_nodes(), deps, candidates, check, SearchOptions(budget=budget))
    return search.report(net, partial(_code_of, fieldspec, k, n), _mode(k, n), start)


# -- nonlinear search -----------------------------------------------------------


def search_nonlinear(net: Network, q: int, opts: Optional[SearchOptions] = None) -> SearchReport:
    """Exhaustive search over the gauge-fixed Z_q table codes, decoders solved in stage 2."""
    opts = opts or SearchOptions()
    if q < 2:
        raise ValueError("q must be at least 2")
    start = time.monotonic()
    inputs = list(source_inputs(net.messages(), q))
    arity = table_arities(net)

    # The units are the edge tables; a table of length L is a 1 x L unit.
    enum = _growth_tables if opts.reduce else partial(_all_matrices, 1)
    tables = {u: partial(enum, q ** a, q) for u, a in arity.items() if u[0] == "edge"}
    cones = _backward_cones(net)
    deps = {t: {("edge", eid) for eid in cone} for t, cone in cones.items()}
    wants = {t: [demanded_symbol(net.terminals[t], x, q) for x in inputs] for t in cones}

    def decoder(t: str, assign: dict) -> Optional[tuple[int, ...]]:
        # Inputs that give t equal in-edge symbols must want equal symbols; the
        # first valid table, returned here, decodes every other tuple to 0.
        tables = {eid: assign[("edge", eid)][0] for eid in cones[t]}
        dec: dict[int, int] = {}
        for x, want in zip(inputs, wants[t]):
            sym = table_symbols(net, cones[t], tables, x, q)
            if dec.setdefault(table_index((sym[e.id] for e in net.in_edges(t)), q), want) != want:
                return None
        return tuple(dec.get(i, 0) for i in range(q ** arity[("dec", t)]))

    def build(found: dict) -> NonlinearCode:
        return NonlinearCode(q, {u[1]: found[u][0] for u in tables}, {t: decoder(t, found) for t in cones})

    search = _BucketSearch(net.terminal_nodes(), deps, tables,
                           lambda t, assign: decoder(t, assign) is not None, opts)
    return search.report(net, build, f"nonlinear(q={q})", start)


def classify_characteristics(
    spec: FamilySpec,
    k: int,
    primes: Sequence[int],
    opts: Optional[SearchOptions] = None,
) -> dict[int, str]:
    """Per-prime scalar/vector solvability pattern of a built-in family."""
    net = generate(spec)
    out = {}
    for p in primes:
        out[p] = search_linear(net, FieldSpec(p), k, k, opts).verdict
    return out
