import gc
import random
import sys
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sumnet import (
    BudgetExceededError,
    FieldSpec,
    SearchOptions,
    canonical_reverse_code,
    classify_characteristics,
    is_solution,
    naive_search_linear,
    s_m,
    s_m_star,
    search_linear,
    search_nonlinear,
    verify_nonlinear,
)
from sumnet.codes import code_to_dict, coefficient_table, nonlinear_to_dict
from sumnet.families import FamilySpec, bottleneck_mun, component
from sumnet.netmodel import Demand, Edge, Network, min_source_terminal_cut, reachable, recover, reverse_network
from sumnet.gflin import MatrixGF, PackedRows
from sumnet.solver import _all_matrices, _growth_tables, _rref_matrices, _StagedProblem
from sumnet.transforms import c1, c2, c3

from differential import networks as differential_networks
from helpers import (
    mun_crossed,
    mun_disconnected,
    mun_disjoint2,
    mun_path,
    parallel_chain,
    parallel_fan,
    parallel_pairs,
    random_sum_network,
    rename_ids,
    sum_bipartite22,
    two_message_source,
)

F2, F3 = FieldSpec(2), FieldSpec(3)


def test_s4_scalar_gf2_solvable_with_identity_interior():
    r = search_linear(s_m(4), F2, 1, 1)
    assert r.verdict == "solvable"
    assert is_solution(s_m(4), r.witness)
    assert all(m.is_identity() for m in r.witness.source_coeff.values())
    assert all(m.is_identity() for m in r.witness.local_coeff.values())


def test_s3_scalar_unsolvable_gf2_gf3():
    assert search_linear(s_m(3), F2, 1, 1).verdict == "unsolvable"
    assert search_linear(s_m(3), F3, 1, 1).verdict == "unsolvable"


def test_s_m_star_gf3_witness_scaling():
    net = s_m_star(4)
    r = search_linear(net, F3, 1, 1)
    assert r.verdict == "solvable"
    w = r.witness
    # relay line content times t_4's decode must hit (m-2)^{-1} = 2
    line = w.local(("s_2>u_1"), ("u_1>v_1"))
    gamma = w.decode("t_4", "v_1>t_4", 0)
    assert (gamma.entries[0][0] * line.entries[0][0]) % 3 == 2


def test_classify_examples():
    assert classify_characteristics(FamilySpec("s_m", 5), 1, [2, 3, 5]) == {
        2: "unsolvable",
        3: "solvable",
        5: "unsolvable",
    }
    assert classify_characteristics(FamilySpec("s_m_star", 5), 1, [2, 3, 5]) == {
        2: "solvable",
        3: "unsolvable",
        5: "solvable",
    }
    assert classify_characteristics(FamilySpec("s_m", 3), 1, [2, 3, 5]) == {
        2: "unsolvable",
        3: "unsolvable",
        5: "unsolvable",
    }


# Exact tick counts of the reference search, which enumerates every
# coefficient without pruning: a change to its unit order or value order
# shows up here.
NAIVE_TICKS = {("s_3", 2): ("unsolvable", 1052), ("two_message_source", 3): ("solvable", 1115)}


def test_staged_matches_naive_on_micro_corpus():
    # Over GF(3) too, so the relaxed checks meet unsolvable inputs (s_3, disc1,
    # bottleneck_2) beyond GF(2); component alone needs about 1M naive ticks
    # there and is checked over GF(2) only.
    corpus = [mun_path(), mun_disconnected(), mun_disjoint2(), mun_crossed(),
              sum_bipartite22(), component(), s_m(3), bottleneck_mun(2), two_message_source()]
    for net in corpus:
        for f in (F2, F3):
            if f is F3 and net.name == "component":
                continue
            a = search_linear(net, f, 1, 1).verdict
            b = naive_search_linear(net, f, 1, 1)
            assert a == b.verdict, (net.name, f.p)
            if (net.name, f.p) in NAIVE_TICKS:
                assert (b.verdict, b.enumerated) == NAIVE_TICKS[(net.name, f.p)]


def test_staged_matches_naive_on_random_micro():
    rng = random.Random(12)
    for _ in range(15):
        net = random_sum_network(rng, max_nodes=6)
        a = search_linear(net, F2, 1, 1).verdict
        b = naive_search_linear(net, F2, 1, 1).verdict
        assert a == b, net.name


def test_reduce_on_off_agree():
    corpus = [mun_path(), mun_disconnected(), mun_disjoint2(), mun_crossed(),
              sum_bipartite22(), component(), s_m(3), s_m(4), bottleneck_mun(2)]
    for net in corpus:
        on = search_linear(net, F2, 1, 1)
        off = search_linear(net, F2, 1, 1, SearchOptions(reduce=False))
        assert on.verdict == off.verdict, net.name


def test_rref_blocks_list_each_row_space_once():
    # The count of n-dimensional subspaces of GF(p)^cols is the Gaussian
    # binomial; every block must have rank n and a row space of its own.
    for rows, cols, p, count in ((1, 3, 2, 7), (1, 2, 5, 6), (2, 4, 2, 35), (2, 3, 3, 13), (3, 5, 2, 155)):
        spaces = set()
        for block in _rref_matrices(rows, cols, p):
            span = frozenset(
                tuple(sum(c * x for c, x in zip(cs, col)) % p for col in zip(*block))
                for cs in product(range(p), repeat=rows)
            )
            assert len(span) == p ** rows, block
            spaces.add(span)
        assert len(spaces) == count, (rows, cols, p)
        assert next(_rref_matrices(rows, cols, p)) == tuple(
            tuple(int(i == j) for j in range(cols)) for i in range(rows)
        )


def test_rref_prefix_tree_is_lossless():
    # Every prefix offered to prune, rejected alone, removes exactly the
    # matrices that agree with it off its open entries, and nothing else
    # moves; a prune that keeps everything changes nothing.
    for rows, cols, p in ((1, 5, 2), (2, 4, 3), (2, 5, 2)):
        full = list(_rref_matrices(rows, cols, p))
        offered = []
        kept = list(_rref_matrices(rows, cols, p, lambda m, o: offered.append(([r[:] for r in m], o)) or True))
        assert kept == full and offered, (rows, cols, p)
        for block, open_ in offered:
            assert len(open_) >= 2 and all(block[i][j] == 0 for i, j in open_)
            rest = list(_rref_matrices(rows, cols, p, lambda m, o: (m, o) != (block, open_)))
            loose = set(open_)
            assert rest == [
                m for m in full
                if any(m[i][j] != block[i][j] for i in range(rows) for j in range(cols) if (i, j) not in loose)
            ], (rows, cols, p, block, open_)
            assert len(full) - len(rest) == p ** len(open_)


RATES = ((1, 1), (2, 1), (1, 2), (2, 2))
FRACTIONAL_AND_VECTOR = RATES[1:]
# Per (network, p), the rates other than (1, 1) at which the naive search runs
# too: it decides each of these within 60,000 ticks.  Elsewhere it needs from
# about 100,000 to millions of ticks, too slow for this suite, so only the
# gauge-fixed and unreduced searches are compared there.  The scalar rate is
# checked against the naive search by test_staged_matches_naive_on_micro_corpus.
NAIVE_AT = {
    ("path1", 2): FRACTIONAL_AND_VECTOR, ("path1", 3): FRACTIONAL_AND_VECTOR,
    ("disc1", 2): FRACTIONAL_AND_VECTOR, ("disc1", 3): FRACTIONAL_AND_VECTOR,
    ("disjoint2", 2): FRACTIONAL_AND_VECTOR, ("disjoint2", 3): FRACTIONAL_AND_VECTOR,
    ("bi22", 2): FRACTIONAL_AND_VECTOR, ("bi22", 3): ((2, 1), (1, 2)),
    ("crossed2", 2): ((2, 1),), ("s_3", 2): ((2, 1),),
    ("bottleneck_2", 2): ((2, 1),), ("bottleneck_2", 3): ((2, 1),),
    ("two_message_source", 2): ((2, 1), (1, 2)),
}


def test_gauge_fixed_unreduced_and_naive_agree():
    # The micro corpus, with a two-message source, at the scalar, vector and
    # both fractional rates.  Unreduced, component needs more than 300,000
    # ticks over GF(3) at (2, 2), so that one case is left out there.
    corpus = [mun_path(), mun_disconnected(), mun_disjoint2(), mun_crossed(),
              sum_bipartite22(), component(), s_m(3), bottleneck_mun(2), two_message_source()]
    for net in corpus:
        for f in (F2, F3):
            for k, n in RATES:
                key = (net.name, f.p, k, n)
                on = search_linear(net, f, k, n)
                assert on.verdict != "budget_exceeded", key
                assert on.witness is None or is_solution(net, on.witness), key
                if key != ("component", 3, 2, 2):
                    assert search_linear(net, f, k, n, SearchOptions(reduce=False)).verdict == on.verdict, key
                if (k, n) in NAIVE_AT.get((net.name, f.p), ()):
                    assert naive_search_linear(net, f, k, n, budget=60_000).verdict == on.verdict, key


def _list_rank(rows: list, p: int) -> int:
    """Rank over GF(p) by Gauss-Jordan elimination on lists."""
    rows, rank = [r[:] for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class _ListCheckedRows(PackedRows):
    """The packed row kernel with each add and mul checked against lists, and each basis before use."""

    def listed(self, r: int) -> list:
        assert 0 <= r < 1 << (self.cols * self.b)
        return [self.entry(r, j) for j in range(self.cols)]

    def add(self, x: int, y: int) -> int:
        s = super().add(x, y)
        assert self.listed(s) == [(a + b) % self.p for a, b in zip(self.listed(x), self.listed(y))]
        return s

    def mul(self, c: int, r: int) -> int:
        out = super().mul(c, r)
        assert self.listed(out) == [c * a % self.p for a in self.listed(r)]
        return out

    def reduce(self, basis: dict, r: int) -> int:
        assert all(self.pivot(br) == j and self.entry(br, j) == 1 for j, br in basis.items())
        return super().reduce(basis, r)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_rows_match_list_arithmetic(data):
    # Entries at p - 1 make columns sum to 2p - 2, the largest a column holds
    # before reduction, and scalars above PackedRows.SMALL take the Montgomery
    # product, on odd and even widths, with p near either end of its bit length.
    p = data.draw(st.sampled_from([2, 3, 5, 7, 17, 257, 65521]), "p")
    w = data.draw(st.integers(1, 64), "width")
    gf = _ListCheckedRows(p, w)
    row = st.lists(st.integers(0, p - 1), min_size=w, max_size=w)
    scalar = st.one_of(st.integers(1, min(p - 1, PackedRows.SMALL)), st.integers(1, p - 1))
    x, y, c = data.draw(row, "x"), data.draw(row, "y"), data.draw(scalar, "c")
    for j in data.draw(st.sets(st.integers(0, w - 1)), "columns at p - 1 in both"):
        x[j] = y[j] = p - 1
    assert gf.listed(gf.pack(x)) == x
    j = data.draw(st.integers(0, w - 1), "unit column")
    assert gf.unit(j) == gf.pack([int(i == j) for i in range(w)])
    assert gf.listed(gf.pack(x) & gf.unit(j) - 1) == x[:j] + [0] * (w - j)
    gf.add(gf.pack(x), gf.pack(y))
    gf.mul(c, gf.pack(x))
    if any(x):
        assert gf.pivot(gf.pack(x)) == min(j for j, a in enumerate(x) if a)

    rows = data.draw(st.lists(row, max_size=6), "rows")
    packed = [gf.pack(r) for r in rows]
    # unpack skips from one nonzero column to the next: check it on a zero
    # row, on a row whose last column alone is set, and on entries of p - 1,
    # the widest residue its mask must keep.
    for r in [*rows, x, y, [0] * w, [0] * (w - 1) + [p - 1], [p - 1] * w]:
        assert gf.unpack(gf.pack(r)) == tuple(gf.listed(gf.pack(r))) == tuple(r)
    block = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)),
                               max_size=4), "block")
    assert [gf.listed(r) for r in gf.times(block, packed)] == [
        [sum(c * r[j] for c, r in zip(brow, rows)) % p for j in range(w)] for brow in block]
    basis: dict = {}
    for r in rows:
        gf.insert(basis, gf.pack(r))
    assert len(basis) == _list_rank(rows, p)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)), "coeffs")
    inside = [sum(a * r[j] for a, r in zip(coeffs, rows)) % p for j in range(w)]
    assert gf.reduce(basis, gf.pack(inside)) == 0
    assert (gf.reduce(basis, gf.pack(x)) == 0) == (_list_rank(rows + [x], p) == len(basis))

    # The solve rebuilds each target from the rows, with coefficient 0 on every
    # row that depends on earlier ones, and fails exactly when a target is outside their span.
    targets = data.draw(st.lists(st.sampled_from([inside, x, y]), max_size=3), "targets")
    got = gf.solve(packed, [gf.pack(t) for t in targets])
    assert (got is None) == any(_list_rank(rows + [t], p) > len(basis) for t in targets)
    for t, xs in zip(targets, got or []):
        assert [sum(c * r[j] for c, r in zip(xs, rows)) % p for j in range(w)] == t
        assert all(c == 0 for i, c in enumerate(xs) if _list_rank(rows[:i + 1], p) == _list_rank(rows[:i], p))


def test_relaxed_check_keeps_every_verdict_and_witness(monkeypatch):
    # The relaxed check is necessary for the exact check it precedes, so a
    # search whose prefix checks and checks under a partial cone assignment
    # always pass, and so walk every block in full, finds the same verdicts
    # and first witnesses in as many ticks or more.
    rng = random.Random(3)
    nets = [random_sum_network(rng, max_nodes=6) for _ in range(40)]
    real = [search_linear(net, f, k, n) for net in nets for f in (F2, F3) for k, n in RATES]
    exact = _StagedProblem.feasible

    def last_unit_only(self, t, assign, u=(), open_=()):
        return bool(open_) or not self.deps[t].issubset(assign) or exact(self, t, assign)

    monkeypatch.setattr(_StagedProblem, "feasible", last_unit_only)
    loose = [search_linear(net, f, k, n) for net in nets for f in (F2, F3) for k, n in RATES]
    assert [(r.verdict, r.witness) for r in real] == [(r.verdict, r.witness) for r in loose]
    assert all(r.enumerated <= r2.enumerated for r, r2 in zip(real, loose))
    assert sum(r.enumerated for r in real) < sum(r.enumerated for r in loose)


def _block_cols(prob, u):
    """The width of unit u's block: one slice per coefficient key of its edge."""
    us, w = prob.keys[u[1]]
    return len(us) * w


def test_relaxed_check_is_sound_under_partial_assignments():
    # feasible may reject a partial assignment, or a block prefix with its
    # open entries at 0, only if no completion passes the exact check: brute
    # force over every matrix of each unassigned cone block and every value
    # of the open entries.  With every block assigned it is the exact check.
    rng = random.Random(11)
    rejected = exact = 0
    for _ in range(40):
        net = random_sum_network(rng, max_nodes=6)
        for f in (F2, F3):
            for k, n in ((1, 1), (2, 1)):
                prob = _StagedProblem(net, f, k, n, SearchOptions())
                for t in net.terminal_nodes():
                    shape = {u: (n, _block_cols(prob, u)) for u in sorted(prob.deps[t])}
                    for _ in range(4):
                        assign = {u: [[rng.randrange(f.p) for _ in range(c)] for _ in range(r)]
                                  for u, (r, c) in shape.items() if rng.random() < 0.5}
                        u, open_ = (), []
                        if assign and rng.random() < 0.5:
                            u = rng.choice(sorted(assign))
                            entries = [(i, j) for i in range(n) for j in range(shape[u][1])]
                            open_ = rng.sample(entries, rng.randint(1, len(entries)))
                            for i, j in open_:
                                assign[u][i][j] = 0
                        free = [x for x in shape if x not in assign]
                        if f.p ** (sum(r * c for r, c in map(shape.get, free)) + len(open_)) > 2_000:
                            continue
                        options = [list(_all_matrices(*shape[x], f.p)) for x in free]
                        ok = prob.feasible(t, assign, u, open_)
                        for values in product(*options, *[range(f.p)] * len(open_)):
                            full = {x: [row[:] for row in m] for x, m in assign.items()}
                            full.update(zip(free, values))
                            for (i, j), v in zip(open_, values[len(free):]):
                                full[u][i][j] = v
                            maps = {}
                            prob._fill_maps(prob.cone[t], full, maps)
                            ins = [row for e in net.in_edges(t) for row in maps[e.id]]
                            passes = prob.gf.solve(ins, prob.targets[t]) is not None
                            assert ok or not passes, (net.name, f.p, k, n, t, assign, u, open_)
                            assert prob.feasible(t, full) == passes, (net.name, f.p, k, n, t, full)
                            exact += 1
                        rejected += not ok and bool(free or open_)
    assert rejected >= 100 and exact >= 10_000, (rejected, exact)


def _whole_cone_check(prob, t, assign, u=(), open_=()):
    # The check without plans: t's whole cone walked, every in-edge row and
    # loose row inserted, the unreduced targets reduced.
    maps = {}
    loose = prob._fill_maps(prob.cone[t], assign, maps, u, open_)
    basis = {}
    for row in [row for e in prob.net.in_edges(t) for row in maps[e.id]] + loose:
        prob.gf.insert(basis, row)
    return not any(prob.gf.reduce(basis, trow) for trow in prob.targets[t])


def test_check_plans_match_the_whole_cone_check():
    # feasible walks only t's plan, from the basis of t's constant in-edge
    # rows, and reduces the targets left outside it.  It must answer as the
    # whole-cone check does: on random partial assignments and block
    # prefixes, on terminals whose constant in-edges already span their
    # targets, on pinned edges that read an enumerated one, and on every
    # prefix of parallel_fan(6)'s block, whose loose rows repeat.
    rng = random.Random(5)
    nets = [random_sum_network(rng, max_nodes=7) for _ in range(30)] + [s_m(4), s_m_star(4), mun_crossed()]
    spanned = pinned_reading = one_target_rejected = 0
    for net in nets:
        for f in (F2, F3):
            for k, n in RATES:
                prob = _StagedProblem(net, f, k, n, SearchOptions())
                for t in net.terminal_nodes():
                    walk, _, _, targets = prob.plans[t]
                    spanned += not targets
                    pinned_reading += any(e in prob.pinned for e in walk)
                    shape = {u: (n, _block_cols(prob, u)) for u in sorted(prob.deps[t])}
                    for _ in range(4):
                        assign = {u: [[rng.randrange(f.p) for _ in range(c)] for _ in range(r)]
                                  for u, (r, c) in shape.items() if rng.random() < 0.6}
                        u, open_ = (), []
                        if assign and rng.random() < 0.5:
                            u = rng.choice(sorted(assign))
                            entries = [(i, j) for i in range(n) for j in range(shape[u][1])]
                            open_ = rng.sample(entries, rng.randint(1, len(entries)))
                            for i, j in open_:
                                assign[u][i][j] = 0
                        ok = prob.feasible(t, assign, u, open_)
                        assert ok == _whole_cone_check(prob, t, assign, u, open_), (net.name, f.p, k, n, t)
                        one_target_rejected += not ok and len(targets) == 1
    assert spanned >= 50 and pinned_reading >= 50 and one_target_rejected >= 50, (
        spanned, pinned_reading, one_target_rejected)

    u, repeats = ("block", "r>t"), 0
    for f in (F2, F3):
        prob = _StagedProblem(parallel_fan(6), f, 1, 1, SearchOptions())

        def offer(block, open_):
            nonlocal repeats
            assign = {u: [row[:] for row in block]}
            loose = prob._fill_maps(prob.cone["t"], assign, {}, u, open_)
            repeats += len(set(loose)) < len(loose)
            ok = prob.feasible("t", assign, u, open_)
            assert ok == _whole_cone_check(prob, "t", assign, u, open_), (f.p, block, open_)
            return ok

        for block in _rref_matrices(1, 6, f.p, prune=offer):
            assert prob.feasible("t", {u: block}) == _whole_cone_check(prob, "t", {u: block}), (f.p, block)
    assert repeats >= 10, repeats


def test_setup_pass_states_the_coefficient_table():
    # The set-up pass names the same units as codes.coefficient_table, in its
    # order and with its widths, pins exactly the blocks at most n wide, and
    # makes each terminal depend on exactly the enumerated blocks of its cone.
    nets = differential_networks()
    for net in nets[:20] + nets[200:]:
        for k, n in RATES:
            prob = _StagedProblem(net, F2, k, n, SearchOptions())
            table = coefficient_table(net, k, n)
            keys = [u for us, _ in prob.keys.values() for u in us]
            assert keys == [u for u in table if u[0] != "gamma"], net.name
            for eid, (us, w) in prob.keys.items():
                assert all(table[u] == (n, w) for u in us), (net.name, eid)
                assert (eid in prob.pinned) == (len(us) * w <= n) != (("block", eid) in prob.candidates)
            for t in net.terminal_nodes():
                cone = {e.id for e in net.edges if t in reachable(net, e.head)}
                assert prob.deps[t] == {("block", e) for e in cone if e not in prob.pinned}, (net.name, t)


def test_witness_matrices_are_read_only_residue_arrays():
    # Each witness matrix is built straight from its rows, so check it against
    # the generic constructor, on the staged and the naive search.
    cases = [(s_m_star(4), FieldSpec(65521), 1, 1), (s_m(4), F2, 2, 2), (s_m_star(5), F2, 1, 1),
             (c2(bottleneck_mun(2))[0], F2, 1, 2), (mun_crossed(), F3, 1, 1)]
    reports = [search_linear(*case) for case in cases]
    reports.append(naive_search_linear(mun_path(), F3, 1, 1))
    for (net, f, k, n), r in zip(cases + [(mun_path(), F3, 1, 1)], reports):
        assert r.verdict == "solvable", net.name
        code = r.witness
        for m in [*code.source_coeff.values(), *code.local_coeff.values(), *code.decode_coeff.values()]:
            assert type(m.entries) is tuple and all(type(r) is tuple for r in m.entries)
            assert all(type(a) is int and 0 <= a < f.p for r in m.entries for a in r) and m.field == f
            assert m == MatrixGF(f, m.entries)


def test_gauge_fixing_decides_the_slow_cases():
    # Each of these took from seconds to more than 2,000,000 ticks when every
    # coefficient matrix was enumerated; with one RREF block per row space
    # they decide in at most about 100,000 ticks.
    cases = [
        (s_m(10), FieldSpec(5), 1, 1, "unsolvable", 63),
        (s_m(9), FieldSpec(5), 1, 1, "unsolvable", 56),
        (c3(sum_bipartite22())[0], F3, 1, 1, "solvable", 129),
        (c2(bottleneck_mun(3))[0], F2, 1, 2, "solvable", 99_847),
    ]
    for net, f, k, n, verdict, ticks in cases:
        r = search_linear(net, f, k, n, SearchOptions(budget=500_000))
        assert (r.verdict, r.enumerated) == (verdict, ticks), (net.name, f.p, k, n)
        assert r.witness is None or is_solution(net, r.witness)


def test_prefix_pruning_decides_the_slow_s_m_star_cases():
    # Each 1 x (m - 2) relay block runs over all (p^(m-2) - 1)/(p - 1) RREF
    # rows unless its prefixes are checked: s_m_star(9) / GF(7) then took
    # more than 1,000,000 ticks, and s_m_star(5) at k = n = 2 exceeded 300,000.
    cases = [
        (s_m_star(9), FieldSpec(7), 1, "unsolvable", 688),
        (s_m_star(10), FieldSpec(5), 1, "solvable", 117),
        (s_m_star(5), FieldSpec(5), 2, "solvable", 3_176),
        (s_m_star(5), FieldSpec(7), 2, "solvable", 11_328),
    ]
    for net, f, k, verdict, ticks in cases:
        r = search_linear(net, f, k, k, SearchOptions(budget=20_000))
        assert (r.verdict, r.enumerated) == (verdict, ticks), (net.name, f.p, k)
        assert r.witness is None or is_solution(net, r.witness)


def test_searches_leave_no_cyclic_garbage():
    # The module docstring promises that a search is freed by reference
    # counting; a recursive closure in the pruned block walk once broke that.
    cases = [(s_m_star(7), FieldSpec(5), 1, 10**6), (s_m_star(7), FieldSpec(5), 1, 100),
             (s_m(3), F2, 2, 10**6), (s_m(4), F2, 1, 10**6)]
    gc.collect()
    gc.disable()
    try:
        for net, f, k, budget in cases:
            search_linear(net, f, k, k, SearchOptions(budget=budget))
            assert gc.collect() == 0, (net.name, f.p, k, budget)
    finally:
        gc.enable()


def test_the_bucket_walk_does_not_recurse_per_bucket():
    # 300 pairs make 300 buckets; a walk that recursed once per bucket would
    # overflow a recursion limit of 200.
    net = parallel_pairs(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        r = search_linear(net, F2, 1, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert (r.verdict, r.enumerated) == ("solvable", 600)


def test_a_bucket_is_enumerated_without_recursing_per_unit():
    # 150 relays in a chain put 300 units into t's one bucket; an enumeration
    # that recursed once per unit would overflow a recursion limit of 200.
    net = parallel_chain(150)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        r = search_linear(net, F2, 1, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert (r.verdict, r.enumerated) == ("solvable", 301)


def test_block_prefixes_are_walked_without_recursing_per_entry():
    # r -> t reads 400 parallel edges: one 1 x 400 block with 399 free
    # entries, whose prefix tree is 397 entries deep.
    net = parallel_fan(400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        r = search_linear(net, F2, 1, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert (r.verdict, r.enumerated) == ("solvable", 2)


def test_vector_search_on_recover_demands():
    r = search_linear(mun_crossed(), F2, 2, 2)
    assert r.verdict == "solvable"
    assert is_solution(mun_crossed(), r.witness)


def test_search_multi_slot_demand():
    net = Network(
        "both",
        ("a", "b", "mid", "t"),
        (
            Edge("a>mid", "a", "mid"),
            Edge("b>mid", "b", "mid"),
            Edge("mid>t", "mid", "t"),
            Edge("a>t", "a", "t"),
        ),
        {"a": ("x",), "b": ("y",)},
        {"t": Demand("recover", ("x", "y"))},
    )
    r = search_linear(net, F2, 1, 1)
    assert r.verdict == "solvable"
    assert is_solution(net, r.witness)
    # drop the side channel: one symbol cannot carry both messages
    squeezed = Network(
        "squeezed",
        ("a", "b", "mid", "t"),
        (Edge("a>mid", "a", "mid"), Edge("b>mid", "b", "mid"), Edge("mid>t", "mid", "t")),
        {"a": ("x",), "b": ("y",)},
        {"t": Demand("recover", ("x", "y"))},
    )
    assert search_linear(squeezed, F2, 1, 1).verdict == "unsolvable"


# The first witness of s_m_star(4) over GF(3): all-ones interior, and t_4
# scales by (m - 2)^{-1} = 2.
S4_STAR_GF3_WITNESS = {
    "field": 3, "k": 1, "n": 1,
    "source_coeff": [
        {"msg": msg, "edge": edge, "mat": [[1]]}
        for msg, edges in (("x1", ("s_1>t_1", "s_1>u_2", "s_1>u_3")),
                           ("x2", ("s_2>t_2", "s_2>u_1", "s_2>u_3")),
                           ("x3", ("s_3>t_3", "s_3>u_1", "s_3>u_2")))
        for edge in edges
    ],
    "local_coeff": [
        {"in": i, "out": o, "mat": [[1]]}
        for i, o in (("s_1>u_2", "u_2>v_2"), ("s_1>u_3", "u_3>v_3"), ("s_2>u_1", "u_1>v_1"),
                     ("s_2>u_3", "u_3>v_3"), ("s_3>u_1", "u_1>v_1"), ("s_3>u_2", "u_2>v_2"),
                     ("u_1>v_1", "v_1>t_1"), ("u_1>v_1", "v_1>t_4"), ("u_2>v_2", "v_2>t_2"),
                     ("u_2>v_2", "v_2>t_4"), ("u_3>v_3", "v_3>t_3"), ("u_3>v_3", "v_3>t_4"))
    ],
    "decode_coeff": [
        {"terminal": f"t_{i}", "edge": edge, "slot": 0, "mat": [[1]]}
        for i in (1, 2, 3) for edge in (f"s_{i}>t_{i}", f"v_{i}>t_{i}")
    ] + [
        {"terminal": "t_4", "edge": f"v_{i}>t_4", "slot": 0, "mat": [[2]]} for i in (1, 2, 3)
    ],
}


def test_determinism():
    # The exact tick counts pin what the gauge fixing and the relaxed span
    # checks enumerate: a change to the block candidates, the bucket order or
    # the pruning shows up here.  A solvable search counts up to its first witness.
    rng = random.Random(7)
    rand = [random_sum_network(rng, max_nodes=8) for _ in range(46)]
    # t never sees x: with r's block unassigned, t's span holds only y, so
    # the bucket is rejected before its first unit, before any candidate.
    blind = Network("blind", ("a", "b", "z", "r", "t"),
                    (Edge("b>r", "b", "r"), Edge("z>r", "z", "r"), Edge("r>t", "r", "t")),
                    {"a": ("x",), "b": ("y",)}, {"t": Demand("sum")})
    cases = [
        (blind, F3, 1, 1, "unsolvable", 0),
        (s_m(4), F2, 1, 1, "solvable", 9),
        (s_m_star(4), F3, 1, 1, "solvable", 9),
        (s_m(5), F3, 1, 1, "solvable", 12),
        (s_m(3), F2, 2, 2, "unsolvable", 54),
        # The 1 x 5 relay blocks are pruned by prefix: 4,692 ticks unpruned.
        (s_m_star(7), FieldSpec(5), 1, 1, "unsolvable", 252),
        # Rejected under partial assignments, before their last units; a
        # check of fixed cuts alone takes 340 and 840 ticks on these.
        (component(), F3, 2, 1, "unsolvable", 4),
        (two_message_source(), F3, 2, 1, "unsolvable", 40),
        (rand[22], F3, 1, 1, "solvable", 6),
        (rand[40], F2, 1, 1, "solvable", 8),
        # Its second bucket has only a cross check, so it is enumerated under
        # the first bucket's assignment with that check inline; enumerated
        # without it, the bucket happens to yield the same first survivor.
        (rand[45], F2, 1, 1, "solvable", 8),
        (rand[45], F3, 1, 1, "solvable", 8),
        # The hub bucket's one check, at t_1.1, also reads the first bucket's
        # block; enumerated without that block it keeps more survivors, and
        # the search takes 14 and 19 ticks.
        (c2(bottleneck_mun(2))[0], F2, 1, 1, "unsolvable", 12),
        (c2(bottleneck_mun(2))[0], F3, 1, 1, "unsolvable", 15),
        # Wide fields, where a row scalar is applied column by column.
        (s_m_star(4), FieldSpec(65521), 1, 1, "solvable", 9),
        (s_m(3), FieldSpec(257), 1, 1, "unsolvable", 518),
        (s_m(5), FieldSpec(257), 1, 1, "unsolvable", 1_036),
        (two_message_source(), FieldSpec(257), 1, 1, "solvable", 259),
    ]
    for net, f, k, n, verdict, enumerated in cases:
        a = search_linear(net, f, k, n)
        b = search_linear(net, f, k, n)
        assert (a.verdict, a.enumerated) == (verdict, enumerated), (net.name, f.p, k, n)
        assert (b.verdict, b.enumerated) == (verdict, enumerated), (net.name, f.p, k, n)
        assert a.witness == b.witness
    assert code_to_dict(search_linear(s_m_star(4), F3, 1, 1).witness) == S4_STAR_GF3_WITNESS
    # Over GF(65521), t_4 scales by 2^{-1} = 32761.
    wide = code_to_dict(search_linear(s_m_star(4), FieldSpec(65521), 1, 1).witness)["decode_coeff"]
    assert [d["mat"] for d in wide if d["terminal"] == "t_4"] == [[[32761]]] * 3
    # Unreduced, the 2 x 4 relay blocks run over all 256 matrices, not 35.
    off = search_linear(s_m(3), F2, 2, 2, SearchOptions(reduce=False))
    assert (off.verdict, off.enumerated) == ("unsolvable", 554)


def test_random_sum_networks_follow_ramamoorthy():
    # Ramamoorthy (ISIT 2008): with at most two sources or two terminals, a
    # sum network is solvable iff every source reaches every terminal.
    rng = random.Random(7)
    decided = {2: 0, 3: 0}
    for i in range(200):
        net = random_sum_network(rng, max_nodes=8)
        connected = all(
            t in reachable(net, s) for s in net.source_nodes() for t in net.terminal_nodes()
        )
        want = "solvable" if connected else "unsolvable"
        for f in (F2, F3):
            r = search_linear(net, f, 1, 1, SearchOptions(budget=20_000))
            assert r.verdict == want, (i, f.p, r.verdict)
        # No code beats a missing path, and a linear code over GF(q), q
        # prime, is a Z_q table code, so the rule holds for table codes too.
        for q in (2, 3):
            r = search_nonlinear(net, q, SearchOptions(budget=2_000))
            if r.verdict != "budget_exceeded":
                assert r.verdict == want, (i, q, r.verdict)
                decided[q] += 1
    assert decided[2] >= 196 and decided[3] >= 172, decided


def test_scalar_linear_codes_are_table_codes():
    # ROADMAP 5(e): over GF(q), q prime, a scalar linear code is a Z_q table
    # code, so a linear `solvable` rules out a table `unsolvable`, and a
    # table `unsolvable` forces a linear `unsolvable`.
    rng = random.Random(7)
    seen = {"linear solvable": 0, "table unsolvable": 0}
    for i in range(40):
        net = random_sum_network(rng, max_nodes=8)
        for q in (2, 3):
            lin = search_linear(net, FieldSpec(q), 1, 1, SearchOptions(budget=2_000)).verdict
            table = search_nonlinear(net, q, SearchOptions(budget=2_000)).verdict
            if lin == "solvable":
                assert table != "unsolvable", (i, q)
                seen["linear solvable"] += 1
            if table == "unsolvable":
                assert lin == "unsolvable", (i, q)
                seen["table unsolvable"] += 1
    assert min(seen.values()) >= 20, seen


def test_verdicts_survive_renaming():
    # A metamorphic check: ids only order the search, so renaming every node,
    # edge and message id leaves each verdict alone.  A nonlinear search that
    # runs out of budget decides nothing, so only decided pairs are compared
    # there; all 21 pairs decide within 5,000 ticks.
    rng = random.Random(7)
    nets = [random_sum_network(rng, max_nodes=8) for _ in range(20)] + [c1(mun_path())[0]]
    rename = random.Random(1)
    decided = 0
    for net in nets:
        other = rename_ids(rename, net)
        for f in (F2, F3):
            a, b = (search_linear(x, f, 1, 1).verdict for x in (net, other))
            assert a == b, (net.name, f.p)
        a, b = (search_nonlinear(x, 2, SearchOptions(budget=5_000)).verdict for x in (net, other))
        if "budget_exceeded" not in (a, b):
            assert a == b, net.name
            decided += 1
    assert decided >= 21


def test_reverse_network_has_the_same_verdict():
    # ROADMAP 5(b): a sum network and its reverse are equivalent under
    # fractional linear coding, and the transposed code solves the reverse.
    rng = random.Random(5)
    for _ in range(60):
        net = random_sum_network(rng, max_nodes=6)
        rev = reverse_network(net)
        for f in (F2, F3):
            for k, n in RATES:
                r = search_linear(net, f, k, n)
                assert search_linear(rev, f, k, n).verdict == r.verdict, (net.name, f.p, k, n)
                if r.witness is not None:
                    assert is_solution(rev, canonical_reverse_code(net, r.witness)), (net.name, f.p, k, n)


def test_an_added_edge_keeps_a_solution():
    # ROADMAP 5(d): zero coefficients on a new edge give back the old code,
    # so a forward edge that does not enter a source never makes a solvable
    # network unsolvable.
    rng, pick = random.Random(7), random.Random(3)
    nets = [random_sum_network(rng, max_nodes=8) for _ in range(40)]
    grown = 0
    for net in nets:
        order = net.topo_order()
        for f in (F2, F3):
            if search_linear(net, f, 1, 1).verdict != "solvable":
                continue
            for _ in range(2):
                a, b = (order[i] for i in sorted(pick.sample(range(len(order)), 2)))
                if b in net.sources:
                    continue
                extra = Edge(f"{a}>{b}+", a, b)
                more = Network(net.name, net.nodes, net.edges + (extra,), net.sources, net.terminals)
                assert search_linear(more, f, 1, 1).verdict == "solvable", (net.name, f.p, extra)
                grown += 1
    assert grown >= 80


def test_budget_exceeded_is_a_verdict():
    r = search_linear(s_m(4), F2, 1, 1, SearchOptions(budget=2))
    assert r.verdict == "budget_exceeded"
    assert r.witness is None
    with pytest.raises(ValueError, match="budget must be at least 1"):
        SearchOptions(budget=0)


def test_witnesses_respect_rate_bound():
    # rate of any solvable sum-network verdict stays under the bottleneck bound
    cases = [(s_m(4), F2, 1, 1), (s_m(5), F3, 1, 1), (s_m_star(4), F3, 1, 1)]
    for net, f, k, n in cases:
        r = search_linear(net, f, k, n)
        assert r.verdict == "solvable"
        assert k <= n * min_source_terminal_cut(net)


def test_fractional_modes():
    r = search_linear(s_m(4), F2, 1, 2)
    assert r.mode == "fractional(1,2)"
    assert r.verdict == "solvable"  # spare capacity can only help
    r21 = search_linear(bottleneck_mun(2), F2, 2, 1)
    assert r21.mode == "fractional(2,1)"
    assert r21.verdict == "unsolvable"
    # Two parallel edges carry a 2-symbol message at one symbol each, so a
    # lone source coefficient may be pinned to eye(n, k) only when n >= k.
    par = Network("par", ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t")),
                  {"s": ("x",)}, {"t": Demand("sum")})
    assert search_linear(par, F2, 2, 1).verdict == "solvable"


# -- nonlinear --------------------------------------------------------------------


def single_edge_relay():
    return Network(
        "relay1",
        ("s", "t"),
        (Edge("s>t", "s", "t"),),
        {"s": ("x",)},
        {"t": Demand("sum")},
    )


def test_nonlinear_single_edge_relay():
    r = search_nonlinear(single_edge_relay(), 2)
    assert r.verdict == "solvable"
    assert verify_nonlinear(single_edge_relay(), r.witness)
    with pytest.raises(ValueError, match="q must be at least 2"):
        search_nonlinear(single_edge_relay(), 1)


def test_nonlinear_decoder_is_the_first_valid_table():
    # Both edges carry the one message of their source, so both are pinned
    # to the identity (0, 1) and t sees (0, 0) and (1, 1); the tuples no
    # input gives decode to 0.
    net = Network("par", ("s", "t"), (Edge("e1", "s", "t"), Edge("e2", "s", "t")),
                  {"s": ("x",)}, {"t": Demand("sum")})
    r = search_nonlinear(net, 2)
    assert r.witness.edge_fn == {"e1": (0, 1), "e2": (0, 1)}
    assert r.witness.decode_fn == {"t": (0, 0, 0, 1)}


def test_nonlinear_pigeonhole_unsolvable():
    net = Network(
        "squeeze",
        ("a", "b", "mid", "out", "t1", "t2"),
        (
            Edge("a>mid", "a", "mid"),
            Edge("b>mid", "b", "mid"),
            Edge("mid>out", "mid", "out"),
            Edge("out>t1", "out", "t1"),
            Edge("out>t2", "out", "t2"),
        ),
        {"a": ("x",), "b": ("y",)},
        {"t1": recover("x"), "t2": recover("y")},
    )
    assert search_nonlinear(net, 2).verdict == "unsolvable"


# The first Z_2 table code of c1(path1): every edge forwards its symbol and
# both terminals add theirs.
C1_PATH_Q2_WITNESS = {
    "q": 2,
    "edge_fn": [
        {"edge": e, "table": [0, 1]}
        for e in ("s_1>t_R1", "s_1>w_1", "s_2>u_1", "u_1>v_1",
                  "v_1>t_L1", "v_1>t_R1", "w_1>z_1", "z_1>t_L1")
    ],
    "decode_fn": [{"terminal": t, "table": [0, 1, 1, 0]} for t in ("t_L1", "t_R1")],
}


def test_nonlinear_c1_equivalence_spot():
    # The exact tick counts pin the nonlinear search's bucket order, value
    # order and early stop.
    solvable, _ = c1(mun_path())
    unsolvable, _ = c1(mun_disconnected())
    r = search_nonlinear(solvable, 2)
    assert (r.verdict, r.enumerated) == ("solvable", 10)
    assert nonlinear_to_dict(r.witness) == C1_PATH_Q2_WITNESS
    r = search_nonlinear(unsolvable, 2)
    assert (r.verdict, r.enumerated) == ("unsolvable", 4)


def test_growth_tables_are_the_canonical_tables():
    # Restricted growth with exactly min(q, L) values: the Stirling number
    # S(L, min(q, L)) of tables, in the order _all_matrices lists them.
    def stirling(n, k):
        return int(n == k) if n == 0 or k == 0 else k * stirling(n - 1, k) + stirling(n - 1, k - 1)

    def canonical(table, values):
        first = {}
        for v in table:
            first.setdefault(v, len(first))
        return len(first) == values and all(first[v] == v for v in table)

    for q in (2, 3):
        for length in range(1, 10):
            values = min(q, length)
            got = list(_growth_tables(length, q))
            assert got == [m for m in _all_matrices(1, length, q) if canonical(m[0], values)], (q, length)
            assert len(got) == stirling(length, values), (q, length)
    assert len(list(_growth_tables(4, 2))) == 7 and len(list(_growth_tables(9, 3))) == 3025


def test_table_gauge_keeps_every_verdict():
    # Unreduced, search_nonlinear runs over every table; wherever that
    # decides within 20,000 ticks, the gauge-fixed search must agree.
    corpus = [mun_path(), mun_disconnected(), mun_disjoint2(), mun_crossed()]
    corpus += [c1(net)[0] for net in corpus] + [sum_bipartite22(), two_message_source()]
    rng = random.Random(7)
    corpus += [random_sum_network(rng, max_nodes=8) for _ in range(20)]
    compared = 0
    for net in corpus:
        for q in (2, 3):
            off = search_nonlinear(net, q, SearchOptions(budget=20_000, reduce=False))
            if off.verdict == "budget_exceeded":
                continue
            on = search_nonlinear(net, q)
            assert on.verdict == off.verdict, (net.name, q)
            compared += 1
    assert compared >= 40


def test_c1_keeps_table_code_verdicts():
    # ROADMAP 5(c), for table codes: a multiple-unicast network and its c1
    # sum network have the same verdict.  Over Z_3, c1(crossed2) still
    # exceeds 50,000 ticks, so it is compared over Z_2 only.
    for make in (mun_path, mun_disconnected, mun_disjoint2, mun_crossed):
        for q in (2, 3):
            if (make, q) == (mun_crossed, 3):
                continue
            net = make()
            a, b = (search_nonlinear(x, q, SearchOptions(budget=50_000)) for x in (net, c1(net)[0]))
            assert a.verdict == b.verdict != "budget_exceeded", (net.name, q)


def test_table_gauge_decides_the_slow_cases():
    # bench/README.md leaves both out as too slow.  Over every table,
    # c1(crossed2) at q = 2 exceeds 20,000 ticks; bi22 at q = 3 took 269 s
    # before decoders were solved in stage 2, and 296 ticks since.
    for net, q in ((c1(mun_crossed())[0], 2), (sum_bipartite22(), 3)):
        r = search_nonlinear(net, q, SearchOptions(budget=20_000))
        assert r.verdict == "solvable", (net.name, q)
        assert verify_nonlinear(net, r.witness)


def test_growth_tables_do_not_recurse_per_entry():
    # Relay tables of 2^10 = 1,024 and 3^7 = 2,187 entries.
    for net, q in ((s_m_star(12), 2), (s_m_star(9), 3)):
        r = search_nonlinear(net, q, SearchOptions(budget=2_000))
        assert r.verdict == "budget_exceeded", (net.name, q)


def test_table_search_bounds_its_source_inputs():
    # 1001^2 and 2^300 source tuples: both exceed the bound that
    # verify_nonlinear would refuse, so the search refuses them up front.
    two = Network(
        "sum2", ("a", "b", "t"), (Edge("a>t", "a", "t"), Edge("b>t", "b", "t")),
        {"a": ("x",), "b": ("y",)}, {"t": Demand("sum")},
    )
    start = time.monotonic()
    for net, q in ((two, 1001), (parallel_pairs(300), 2)):
        with pytest.raises(BudgetExceededError):
            search_nonlinear(net, q)
    assert time.monotonic() - start < 1


def test_nonlinear_budget_verdict():
    r = search_nonlinear(s_m(3), 2, SearchOptions(budget=5))
    assert r.verdict == "budget_exceeded"
