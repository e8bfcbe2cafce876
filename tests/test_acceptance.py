"""Acceptance suite: one test per shipped guarantee, with timing gates.

Each test prints a single PASS line so a ``pytest -v -s`` run doubles as the
acceptance report.  Solvable verdicts on sum networks are accumulated and the
final test re-checks the rate bound k/n <= min source-terminal min-cut over
all of them.
"""

import random
import time
from itertools import product

import numpy as np
from sumnet import (
    FieldSpec,
    SearchOptions,
    canonical_reverse_code,
    classify_characteristics,
    is_solution,
    known_code,
    naive_search_linear,
    s_m,
    s_m_star,
    search_linear,
    search_nonlinear,
    transfer_matrix,
    validate_code,
)
from sumnet.families import FamilySpec, bottleneck_mun, component
from sumnet.netmodel import min_source_terminal_cut, reverse_network
from sumnet.transforms import c1, c2

from helpers import (
    array,
    mun_crossed,
    mun_disconnected,
    mun_disjoint2,
    mun_path,
    random_code,
    random_sum_network,
)

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)

# (label, network, k, n) for every solvable sum-network verdict seen below
SOLVED_SUM_CASES: list[tuple] = []


def _record(label, net, k, n):
    if net.is_sum_network():
        SOLVED_SUM_CASES.append((label, net, k, n))


# -- independent flat-enumeration oracle (pure integers, no package math) -------


def _flat_interiors(net, p):
    """Every raw interior assignment as per-edge message-coefficient rows."""
    msgs = net.messages()
    midx = {m: i for i, m in enumerate(msgs)}
    alphas, betas = [], []
    for e in net.edges:
        if e.tail in net.sources:
            alphas.extend((m, e.id) for m in net.sources[e.tail])
        else:
            betas.extend((ein.id, e.id) for ein in net.in_edges(e.tail))
    order = net.topo_order()
    for values in product(range(p), repeat=len(alphas) + len(betas)):
        a = dict(zip(alphas, values))
        b = dict(zip(betas, values[len(alphas):]))
        maps = {}
        for v in order:
            for e in net.out_edges(v):
                if v in net.sources:
                    row = [0] * len(msgs)
                    for m in net.sources[v]:
                        row[midx[m]] = a[(m, e.id)]
                else:
                    row = [0] * len(msgs)
                    for ein in net.in_edges(v):
                        c = b[(ein.id, e.id)]
                        if c:
                            src = maps[ein.id]
                            row = [(x + c * y) % p for x, y in zip(row, src)]
                maps[e.id] = row
        yield maps


def _flat_terminal_ok(net, p, maps, t):
    """Does some decode combination hit the demand target exactly?"""
    msgs = net.messages()
    d = net.terminals[t]
    if d.kind == "sum":
        target = [1] * len(msgs)
    else:
        target = [1 if m == d.messages[0] else 0 for m in msgs]
    rows = [maps[e.id] for e in net.in_edges(t)]
    for gammas in product(range(p), repeat=len(rows)):
        combo = [0] * len(msgs)
        for g, row in zip(gammas, rows):
            if g:
                combo = [(x + g * y) % p for x, y in zip(combo, row)]
        if combo == target:
            return True
    return False


def _flat_scalar_solvable(net, p, on_solution=None):
    found = False
    for maps in _flat_interiors(net, p):
        if all(_flat_terminal_ok(net, p, maps, t) for t in net.terminal_nodes()):
            found = True
            if on_solution is not None:
                on_solution(maps)
    return found


# -- criteria ---------------------------------------------------------------------


def test_criterion_01_characteristic_classification():
    start = time.monotonic()
    sweep = {3: set(), 4: {2}, 5: {3}, 7: {5}, 8: {2, 3}}
    for m, expected in sweep.items():
        verdicts = classify_characteristics(FamilySpec("s_m", m), 1, [2, 3, 5])
        got = {p for p, v in verdicts.items() if v == "solvable"}
        assert got == expected, (m, verdicts)
        assert all(v in ("solvable", "unsolvable") for v in verdicts.values())
        for p in expected:
            _record(f"s_m({m})/GF({p})", s_m(m), 1, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"classification sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (finite characteristic classification): PASS ({elapsed:.1f}s)")


def test_criterion_02_cofinite_classification():
    start = time.monotonic()
    for m in (3, 4, 5, 7, 8):
        net = s_m_star(m)
        for p in (2, 3, 5):
            report = search_linear(net, FieldSpec(p), 1, 1)
            expected = "solvable" if (m - 2) % p != 0 else "unsolvable"
            assert report.verdict == expected, (m, p, report.verdict)
            if expected == "solvable":
                w = report.witness
                assert is_solution(net, w)
                line = w.local("s_2>u_1", "u_1>v_1").entries[0][0]
                gamma = w.decode(f"t_{m}", f"v_1>t_{m}", 0).entries[0][0]
                assert (gamma * line) % p == pow(m - 2, p - 2, p)
                _record(f"s_m_star({m})/GF({p})", net, 1, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"cofinite sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 (cofinite characteristic classification): PASS ({elapsed:.1f}s)")


def test_criterion_03_vector_clause():
    start = time.monotonic()
    opts = SearchOptions(budget=200_000_000)
    r4 = search_linear(s_m(4), F2, 2, 2, opts)
    assert r4.verdict == "solvable"
    assert is_solution(s_m(4), r4.witness)
    _record("s_m(4)/GF(2) k=2", s_m(4), 2, 2)
    for m in (3, 5):
        r = search_linear(s_m(m), F2, 2, 2, opts)
        assert r.verdict == "unsolvable", (m, r.verdict)

    # cross-validation 1: flat full enumeration of every scalar code on s_3
    staged = search_linear(s_m(3), F2, 1, 1).verdict
    flat = "solvable" if _flat_scalar_solvable(s_m(3), 2) else "unsolvable"
    assert staged == flat == "unsolvable"
    naive = naive_search_linear(s_m(3), F2, 1, 1).verdict
    assert naive == staged

    # cross-validation 2: reductions on/off agree at k=2
    off = search_linear(s_m(3), F2, 2, 2, SearchOptions(reduce=False))
    assert off.verdict == "unsolvable"

    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"vector clause took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 (k=2 vector clause with cross-validation): PASS ({elapsed:.1f}s)")


def test_criterion_04_known_codes():
    start = time.monotonic()
    cases = [
        ("s_m", 4, F2, s_m(4)),
        ("s_m", 5, F3, s_m(5)),
        ("s_m_star", 4, F3, s_m_star(4)),
        ("s_m_star", 4, F5, s_m_star(4)),
    ]
    for family, m, f, net in cases:
        code = known_code(FamilySpec(family, m), f)
        assert code is not None, (family, m, f.p)
        validate_code(net, code)
        assert is_solution(net, code), (family, m, f.p)
        _record(f"known {family}({m})/GF({f.p})", net, code.k, code.n)
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 4 (closed-form codes verify): PASS ({elapsed:.1f}s)")


def test_criterion_05_duality_suite():
    start = time.monotonic()
    rng = random.Random(20260810)
    for p in (2, 3, 5):
        for _ in range(100):
            net = random_sum_network(rng, max_nodes=10)
            k = rng.choice([1, 2])
            code = random_code(rng, net, p, k, k)
            rev = reverse_network(net)
            rcode = canonical_reverse_code(net, code)
            validate_code(rev, rcode)
            T = array(transfer_matrix(net, code).matrix)
            RT = array(transfer_matrix(rev, rcode).matrix)
            assert np.array_equal(RT, T.T)
            assert is_solution(net, code) == is_solution(rev, rcode)
            assert canonical_reverse_code(rev, rcode) == code
    # a known solvable pair stays solvable through reversal
    net = s_m(4)
    code = known_code(FamilySpec("s_m", 4), F2)
    assert is_solution(net, code)
    assert is_solution(reverse_network(net), canonical_reverse_code(net, code))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"duality suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5 (reverse-code duality, 300 random pairs): PASS ({elapsed:.1f}s)")


MUN_CORPUS = [
    ("path1", mun_path, "solvable"),
    ("disc1", mun_disconnected, "unsolvable"),
    ("disjoint2", mun_disjoint2, "solvable"),
    ("crossed2", mun_crossed, "solvable"),
    ("bottleneck2", lambda: bottleneck_mun(2), "unsolvable"),
]


def test_criterion_06_c1_equivalence():
    start = time.monotonic()
    for name, make, expected_gf2 in MUN_CORPUS:
        mun = make()
        sumnet, _ = c1(mun)
        for f in (F2, F3):
            v_mun = search_linear(mun, f, 1, 1).verdict
            v_sum = search_linear(sumnet, f, 1, 1).verdict
            assert v_mun == v_sum, (name, f.p, v_mun, v_sum)
            if f.p == 2:
                assert v_mun == expected_gf2, (name, v_mun)
            rv_mun = search_linear(reverse_network(mun), f, 1, 1).verdict
            rv_sum = search_linear(reverse_network(sumnet), f, 1, 1).verdict
            assert rv_mun == rv_sum, (name, f.p, rv_mun, rv_sum)
            if v_sum == "solvable":
                _record(f"c1({name})/GF({f.p})", sumnet, 1, 1)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"c1 equivalence took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 6 (c1 solvability equivalence, both directions): PASS ({elapsed:.1f}s)")


def test_criterion_07_nonlinear_equivalence_spot():
    start = time.monotonic()
    solvable_net, _ = c1(mun_path())
    report = search_nonlinear(solvable_net, 2)
    assert report.verdict == "solvable"
    _record("c1(path1) nonlinear Z_2", solvable_net, 1, 1)
    unsolvable_net, _ = c1(mun_disconnected())
    assert search_nonlinear(unsolvable_net, 2).verdict == "unsolvable"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"nonlinear spot check took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 7 (nonlinear solvability transfers through c1): PASS ({elapsed:.1f}s)")


def test_criterion_08_fractional_example():
    start = time.monotonic()
    net, _ = c2(bottleneck_mun(3))
    code = known_code(FamilySpec("bottleneck_mun", 3), F2)
    validate_code(net, code)
    assert code.k == 1 and code.n == 2
    assert len(net.messages()) == 4
    assert is_solution(net, code)
    _record("c2(bottleneck_mun(3)) (1,2)", net, 1, 2)
    assert search_linear(net, F2, 1, 1).verdict == "unsolvable"
    assert search_linear(net, F2, 2, 1).verdict == "unsolvable"
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 8 (half-rate code works, rate > 1 impossible): PASS ({elapsed:.1f}s)")


def test_criterion_09_component_forcing():
    start = time.monotonic()
    net = component()
    designated = ("rel_1>mix", "rel_2>t_2")
    msgs = net.messages()
    x1 = msgs.index("x1")
    solvable = 0
    for maps in _flat_interiors(net, 2):
        if not all(_flat_terminal_ok(net, 2, maps, t) for t in net.terminal_nodes()):
            continue
        solvable += 1
        for eid in designated:
            row = maps[eid]
            assert row[x1] != 0, (eid, row)
            assert all(c == 0 for i, c in enumerate(row) if i != x1), (eid, row)
    assert solvable > 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"forcing enumeration took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 9 (gadget forcing over {solvable} solutions): PASS ({elapsed:.1f}s)")


def test_criterion_10_rate_bound():
    cases = list(SOLVED_SUM_CASES)
    if not cases:  # standalone run: regenerate the canonical solvable set
        cases = [
            ("s_m(4)", s_m(4), 1, 1),
            ("s_m(5)", s_m(5), 1, 1),
            ("s_m_star(4)", s_m_star(4), 1, 1),
            ("c2(bottleneck_mun(3))", c2(bottleneck_mun(3))[0], 1, 2),
        ]
    for label, net, k, n in cases:
        bound = min_source_terminal_cut(net)
        assert k <= n * bound, (label, k, n, bound)
    print(f"\nACCEPTANCE 10 (rate bound over {len(cases)} solvable verdicts): PASS")
