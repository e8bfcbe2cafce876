import json
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumnet import (
    FieldSpec,
    MatrixGF,
    additive_code,
    canonical_reverse_code,
    eval_linear,
    eval_nonlinear,
    identity_code,
    is_solution,
    path_gain,
    s_m,
    search_linear,
    transfer_matrix,
    validate_code,
    verify_nonlinear,
)
from sumnet.codes import (
    BudgetExceededError, CodeError, LinearCode, NonlinearCode, code_from_json, code_to_json, transfer_entries,
    validate_nonlinear,
)
from sumnet.families import FamilySpec, component, known_code
from sumnet.gflin import DimensionMismatch, mat_inv, rank
from sumnet.netmodel import Demand, Edge, Network, NetworkError, recover, reverse_network
from sumnet.transforms import c3, scale_sources

from helpers import (
    array,
    mun_path,
    path_product,
    random_code,
    random_sum_network,
    reference_code_dict,
    reference_json_text,
    reference_table_dict,
    sum_bipartite22,
    transfer_by_path_enumeration,
)

F2, F3, F5, F7 = FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(7)


def single_edge_net():
    return Network(
        "tiny",
        ("s", "t"),
        (Edge("e", "s", "t"),),
        {"s": ("x",)},
        {"t": Demand("sum")},
    )


def test_eval_single_edge_identity_gf7():
    net = single_edge_net()
    code = identity_code(net, F7)
    out = eval_linear(net, code, {"x": [5]})
    assert out == {"t": [(5,)]}


def test_eval_s4_identity_gf2():
    net = s_m(4)
    code = identity_code(net, F2)
    out = eval_linear(net, code, {"x1": [1], "x2": [0], "x3": [0], "x4": [1]})
    for t in ("t_1", "t_2", "t_3", "t_4"):
        assert out[t] == [(0,)]  # 1+0+0+1 = 0 mod 2


def test_eval_s4_identity_gf3_fails_at_t4():
    net = s_m(4)
    code = identity_code(net, F3)
    out = eval_linear(net, code, {"x1": [1], "x2": [1], "x3": [1], "x4": [1]})
    total = 4 % 3
    assert out["t_4"] == [(0,)]
    assert out["t_4"][0] != (total,)


def test_eval_needs_k_symbols_per_message():
    # The right total length used to shift symbols from x1 into x2.
    net = s_m(3)
    code = identity_code(net, F3, 2)
    with pytest.raises(CodeError, match="'x1' needs 2 symbols, got 3"):
        eval_linear(net, code, {"x1": [1, 0, 1], "x2": [1], "x3": [0, 0]})
    with pytest.raises(CodeError, match="'x2' needs 2 symbols, got 1"):
        eval_linear(net, code, {"x1": [1, 0], "x2": [1], "x3": [0, 0, 1]})


def test_eval_reduces_wide_integers_mod_p():
    net = s_m(3)
    code = identity_code(net, F3, 2)
    wide = eval_linear(net, code, {"x1": [2**70, -1], "x2": [3**50 + 1, 0], "x3": [0, 2**64]})
    assert wide == eval_linear(net, code, {"x1": [2**70 % 3, 2], "x2": [1, 0], "x3": [0, 2**64 % 3]})


def test_eval_rejects_symbols_that_are_not_integers():
    net = s_m(3)
    code = identity_code(net, F3, 2)
    for bad in ([1.5, 0], ["1", 0], 1, [None, 0]):
        with pytest.raises(CodeError, match="'x2' needs a vector of integers"):
            eval_linear(net, code, {"x1": [1, 0], "x2": bad, "x3": [0, 0]})
    with pytest.raises(CodeError, match=re.escape("input misses messages ['x3']")):
        eval_linear(net, code, {"x1": [1, 0], "x2": [0, 0]})
    # The table evaluator checks its input alike, one integer per message, mod q.
    table = additive_code(net, 3)
    for bad in ("a", 1.5, [1], None):
        with pytest.raises(CodeError, match="'x2' needs an integer"):
            eval_nonlinear(net, table, {"x1": 1, "x2": bad, "x3": 0})
    with pytest.raises(CodeError, match=re.escape("input misses messages ['x3']")):
        eval_nonlinear(net, table, {"x1": 1, "x2": 0})
    wide = eval_nonlinear(net, table, {"x1": 3**40 + 1, "x2": -1, "x3": True, "x4": "ignored"})
    assert wide == eval_nonlinear(net, table, {"x1": 1, "x2": 2, "x3": 1})
    # And its code: one without decode tables is a CodeError, not a KeyError.
    net = s_m(4)
    no_decoders = NonlinearCode(2, additive_code(net, 2).edge_fn, {})
    with pytest.raises(CodeError, match="missing decode table for terminal 't_1'"):
        eval_nonlinear(net, no_decoders, {m: 0 for m in net.messages()})


def test_transfer_single_identity_edge():
    net = single_edge_net()
    t = transfer_matrix(net, identity_code(net, F2))
    assert t.block(0, 0) == MatrixGF.identity(F2, 1)


def test_transfer_s4_identity_all_ones_gf2():
    net = s_m(4)
    t = transfer_matrix(net, identity_code(net, F2))
    assert t.matrix.tolists() == [[1] * 4 for _ in range(4)]


def test_transfer_s4_identity_gf3_t4_row():
    net = s_m(4)
    t = transfer_matrix(net, identity_code(net, F3))
    assert t.matrix.tolists()[3] == [1, 1, 1, 0]
    assert not is_solution(net, identity_code(net, F3))


def test_is_solution_s4_gf2():
    net = s_m(4)
    assert is_solution(net, identity_code(net, F2))


def _dropped(rng: random.Random, code: LinearCode) -> LinearCode:
    """``code`` with each coefficient kept with probability 1/2, so some edge maps are zero."""
    def keep(coeffs: dict) -> dict:
        return {key: m for key, m in coeffs.items() if rng.random() < 0.5}
    return LinearCode(code.field, code.k, code.n, keep(code.source_coeff), keep(code.local_coeff),
                      keep(code.decode_coeff))


def test_transfer_matches_path_enumeration():
    rng = random.Random(99)
    for _ in range(30):
        net = random_sum_network(rng, max_nodes=7)
        for p in (2, 3):
            k = rng.choice([1, 2])
            code = random_code(rng, net, p, k, k)
            for c in (code, _dropped(rng, code)):
                got = array(transfer_matrix(net, c).matrix)
                want = transfer_by_path_enumeration(net, c)
                assert np.array_equal(got, want)
    # t1 recovers both messages and relays to t2, z is a relay with no
    # in-edge, and keys outside the coefficient table are ignored: x1 on an
    # edge out of r, two edges that do not meet, a relay's decoder, an
    # out-edge of t1 as its in-edge, and a slot t2 does not have.
    edges = (Edge("a", "s1", "r"), Edge("b", "s2", "r"), Edge("c", "r", "t1"), Edge("d", "s2", "t1"),
             Edge("e", "t1", "t2"), Edge("f", "z", "t2"), Edge("g", "r", "t2"))
    net = Network("relaying", ("s1", "s2", "r", "t1", "t2", "z"), edges,
                  {"s1": ("x1",), "s2": ("x2",)}, {"t1": recover("x1", "x2"), "t2": Demand("sum")})
    for p, k in ((2, 1), (3, 2), (5, 2)):
        code = random_code(rng, net, p, k, k)
        ones = MatrixGF(code.field, [[1] * k] * k)  # n = k, so every coefficient is k x k
        outside = LinearCode(
            code.field, k, k, {**code.source_coeff, ("x1", "c"): ones},
            {**code.local_coeff, ("a", "e"): ones},
            {**code.decode_coeff, ("r", "a", 0): ones, ("t1", "e", 0): ones, ("t2", "e", 1): ones},
        )
        want = transfer_by_path_enumeration(net, code)
        assert want.any()
        for c in (code, _dropped(rng, code), outside):
            assert np.array_equal(array(transfer_matrix(net, c).matrix), transfer_by_path_enumeration(net, c))
        assert np.array_equal(array(transfer_matrix(net, outside).matrix), want)
    # Edge maps are summed unreduced and reduced when read: at p = 65521,
    # relay r sums five products, two over parallel edges, and u and t sum
    # two more each.  Unreduced maps would overflow int64 by t.
    pairs = ("s1>r", "s1>r", "s2>r", "s3>r", "s4>r", "r>u", "s3>u", "u>t", "s2>t")
    edges = tuple(Edge(f"e{i}", *x.split(">")) for i, x in enumerate(pairs))
    net = Network("wide", ("s1", "s2", "s3", "s4", "r", "u", "t"), edges,
                  {f"s{i}": (f"x{i}",) for i in range(1, 5)}, {"t": Demand("sum")})
    assert len(net.in_edges("r")) == 5
    for _ in range(5):
        code = random_code(rng, net, 65521, 2, 2)
        assert np.array_equal(array(transfer_matrix(net, code).matrix), transfer_by_path_enumeration(net, code))


def _traced_peak(f, *args):
    """f(*args), and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transfer_frees_each_edge_map_once_its_head_has_read_it():
    # Only the maps of edges whose head node is still ahead stay alive, so the
    # traced peak stays under half of what every edge map would take at once
    # as int64 entries.  The unpacked rows, one pointer per entry, are the
    # larger part.  Ranking them packs each row back into one int and stays
    # under the same bound.
    net = c3(s_m(10))[0]
    for p in (2, 65521):
        code = random_code(random.Random(1), net, p, 2, 2)
        every_map = len(net.edges) * code.n * len(net.messages()) * code.k * 8
        a, peak = _traced_peak(transfer_entries, net, code)
        assert peak < every_map / 2, (p, peak, every_map)
        peak = _traced_peak(rank, MatrixGF(code.field, a))[1]
        assert peak < every_map / 2, ("rank", p, peak, every_map)


def test_transfer_matrix_without_a_terminal_is_a_dimension_mismatch():
    net = Network("no terminal", ("s", "a"), (Edge("e", "s", "a"),), {"s": ("x",)}, {})
    assert transfer_entries(net, identity_code(net, F2)) == ()
    with pytest.raises(DimensionMismatch):
        transfer_matrix(net, identity_code(net, F2))


def test_path_gain_order_and_virtuals():
    net = Network(
        "chain",
        ("s", "a", "t"),
        (Edge("e1", "s", "a"), Edge("e2", "a", "t")),
        {"s": ("x",)},
        {"t": Demand("sum")},
    )
    A = MatrixGF(F5, [[2]])
    B = MatrixGF(F5, [[3]])
    code = LinearCode(
        F5, 1, 1,
        {("x", "e1"): A},
        {("e1", "e2"): B},
        {("t", "e2", 0): MatrixGF(F5, [[4]])},
    )
    # single edge with its entering coefficient
    assert path_gain(net, code, ["e1"], msg="x") == A
    # two-factor product in application order: B then A gives B @ A
    assert path_gain(net, code, ["e1", "e2"], msg="x") == MatrixGF(F5, [[6 % 5]])
    full = path_gain(net, code, ["e1", "e2"], msg="x", terminal="t")
    assert full == MatrixGF(F5, [[24 % 5]])
    with pytest.raises(CodeError):
        path_gain(net, code, ["e2", "e1"])
    for path, msg, t, match in (([], None, None, "empty path"),
                                (["e2"], "x", None, "path does not start at the source of 'x'"),
                                (["e1"], None, "t", "path does not end at 't'")):
        with pytest.raises(CodeError, match=match):
            path_gain(net, code, path, msg=msg, terminal=t)
    # At k != n the product with a message starts from the k x k identity.
    for net, code, path, msg, t in ((mun_path(), search_linear(mun_path(), F2, 1, 2).witness, ["w_1>z_1"], "a", "z_1"),
                                    (net, random_code(random.Random(3), net, 5, 2, 1), ["e1", "e2"], "x", "t")):
        for terminal in (None, t):
            got = path_gain(net, code, path, msg=msg, terminal=terminal)
            assert got.tolists() == path_product(code, path, msg, terminal).tolist(), (net.name, terminal)


def test_path_gain_transposes_in_reverse_code():
    rng = random.Random(5)
    net = s_m(3)
    code = random_code(rng, net, 3, 2, 2)
    rev = reverse_network(net)
    rcode = canonical_reverse_code(net, code)
    gain = path_gain(net, code, ["s_1>u_1", "u_1>v_1", "v_1>t_3"], msg="x1", terminal="t_3")
    rgain = path_gain(
        rev, rcode, ["v_1>t_3~", "u_1>v_1~", "s_1>u_1~"], msg="t_3.sum", terminal="s_1"
    )
    assert rgain == gain.transpose()


def test_linearity_of_eval():
    rng = random.Random(17)
    net = sum_bipartite22()
    code = random_code(rng, net, 5, 2, 2)
    msgs = net.messages()
    x = {m: [rng.randrange(5), rng.randrange(5)] for m in msgs}
    y = {m: [rng.randrange(5), rng.randrange(5)] for m in msgs}
    c = 3
    xy = {m: [(a + b) % 5 for a, b in zip(x[m], y[m])] for m in msgs}
    cx = {m: [(c * a) % 5 for a in x[m]] for m in msgs}
    ex, ey = eval_linear(net, code, x), eval_linear(net, code, y)
    for t, slots in eval_linear(net, code, xy).items():
        for s, vec in enumerate(slots):
            assert vec == tuple((a + b) % 5 for a, b in zip(ex[t][s], ey[t][s]))
    for t, slots in eval_linear(net, code, cx).items():
        for s, vec in enumerate(slots):
            assert vec == tuple((c * a) % 5 for a in ex[t][s])


def test_eval_agrees_with_transfer_action():
    rng = random.Random(23)
    for _ in range(10):
        net = random_sum_network(rng, max_nodes=8)
        code = random_code(rng, net, 3, 2, 2)
        t = transfer_matrix(net, code)
        x = {m: [rng.randrange(3), rng.randrange(3)] for m in net.messages()}
        vec = np.concatenate([np.array(x[m]) for m in t.col_labels]) % 3
        want = (array(t.matrix) @ vec) % 3
        got = eval_linear(net, code, x)
        i = 0
        for term, label in t.row_labels:
            slot = list(net.terminals[term].slots()).index(label)
            assert got[term][slot] == tuple(want[i * 2:(i + 1) * 2])
            i += 1


def test_reverse_code_duality_suite():
    rng = random.Random(31)
    for p in (2, 3, 5):
        for _ in range(25):
            net = random_sum_network(rng)
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
    stray = LinearCode(F2, 1, 1, {("nope", "e"): MatrixGF(F2, [[1]])}, {}, {})
    with pytest.raises(NetworkError, match="unknown message 'nope'"):
        canonical_reverse_code(single_edge_net(), stray)


def test_reverse_of_identity_code_is_identity():
    net = s_m(4)
    code = identity_code(net, F2)
    rcode = canonical_reverse_code(net, code)
    assert all(m.is_identity() for m in rcode.local_coeff.values())
    assert all(m.is_identity() for m in rcode.source_coeff.values())
    assert all(m.is_identity() for m in rcode.decode_coeff.values())
    assert is_solution(reverse_network(net), rcode)


def test_solution_preserved_both_directions_known_case():
    net = s_m(4)
    code = identity_code(net, F2)
    rev = reverse_network(net)
    rcode = canonical_reverse_code(net, code)
    assert is_solution(net, code) and is_solution(rev, rcode)
    assert canonical_reverse_code(rev, rcode) == code


def test_validate_code_rejects_bad_shapes():
    net = single_edge_net()
    bad = LinearCode(F2, 1, 1, {("x", "e"): MatrixGF(F2, [[1, 0]])}, {}, {})
    with pytest.raises(CodeError):
        validate_code(net, bad)
    # A coefficient over another field, which the transfer walk would read mod 2.
    net, code = s_m(4), identity_code(s_m(4), F2)
    key = next(iter(code.source_coeff))
    source = {**code.source_coeff, key: MatrixGF(F5, [[3]])}
    foreign = LinearCode(F2, 1, 1, source, code.local_coeff, code.decode_coeff)
    with pytest.raises(CodeError, match=re.escape(f"alpha coefficient {key} must be over GF(2)")):
        validate_code(net, foreign)
    for read in (is_solution, transfer_entries, transfer_matrix):
        with pytest.raises(CodeError, match=re.escape(f"{key} must be 1 x 1 over GF(2)")):
            read(net, foreign)


def two_source_relay(demand: Demand = Demand("sum")) -> Network:
    """Sources a (message x) and b (y) meet at relay r, which feeds terminal t; a also reaches t."""
    return Network(
        "two",
        ("a", "b", "r", "t"),
        (Edge("a>r", "a", "r"), Edge("a>t", "a", "t"), Edge("b>r", "b", "r"), Edge("r>t", "r", "t")),
        {"a": ("x",), "b": ("y",)},
        {"t": demand},
    )


def test_validate_code_rejects_each_bad_key():
    net = two_source_relay()
    one, wide = MatrixGF(F2, [[1]]), MatrixGF(F2, [[1, 0]])
    good = identity_code(net, F2)
    validate_code(net, good)
    bad = {
        "unknown edge": ("source", ("x", "nope"), one),
        "message not generated at the tail": ("source", ("y", "a>r"), one),
        "message at a non-source tail": ("source", ("x", "r>t"), one),
        "non-adjacent pair": ("local", ("a>t", "r>t"), one),
        "unknown in-edge": ("local", ("nope", "r>t"), one),
        "decoder at a non-terminal": ("decode", ("r", "a>r", 0), one),
        "edge not into the terminal": ("decode", ("t", "a>r", 0), one),
        "slot out of range": ("decode", ("t", "r>t", 1), one),
        "source shape": ("source", ("x", "a>r"), wide),
        "local shape": ("local", ("a>r", "r>t"), wide),
        "decode shape": ("decode", ("t", "r>t", 0), wide),
    }
    for what, (kind, key, m) in bad.items():
        coeffs = {x: dict(getattr(good, f"{x}_coeff")) for x in ("source", "local", "decode")}
        coeffs[kind][key] = m
        code = LinearCode(F2, 1, 1, coeffs["source"], coeffs["local"], coeffs["decode"])
        with pytest.raises(CodeError) as err:
            validate_code(net, code)
        assert any(str(x) in str(err.value) for x in key), what
        # The transfer walk reads only keys of the table, and checks each one's shape.
        for read in (transfer_entries, is_solution) if what.endswith("shape") else ():
            with pytest.raises(CodeError, match=re.escape(f"{key} must be 1 x 1")):
                read(net, code)
    for k, n in ((0, 1), (1, 0)):
        with pytest.raises(CodeError):
            validate_code(net, LinearCode(F2, k, n, {}, {}, {}))


def test_validate_nonlinear_rejects_each_bad_table():
    # Relay r has two in-edges, so r>t's table has 4 entries, and t decodes
    # a>t and r>t.
    net = two_source_relay()
    good = additive_code(net, 2)
    validate_nonlinear(net, good)
    bad = {
        "missing edge table": ("edge", "r>t", None),
        "short edge table": ("edge", "r>t", (0, 1)),
        "long edge table": ("edge", "a>r", (0, 1, 1)),
        "out-of-range edge entry": ("edge", "a>r", (0, 2)),
        "negative edge entry": ("edge", "a>r", (-1, 0)),
        "missing decode table": ("dec", "t", None),
        "wrong-length decode table": ("dec", "t", (0, 1)),
        "out-of-range decode entry": ("dec", "t", (0, 1, 1, 2)),
    }
    for what, (kind, at, table) in bad.items():
        fns = {"edge": dict(good.edge_fn), "dec": dict(good.decode_fn)}
        if table is None:
            del fns[kind][at]
        else:
            fns[kind][at] = table
        with pytest.raises(CodeError) as err:
            validate_nonlinear(net, NonlinearCode(2, fns["edge"], fns["dec"]))
        assert repr(at) in str(err.value), what
    with pytest.raises(CodeError):
        validate_nonlinear(net, NonlinearCode(1, good.edge_fn, good.decode_fn))
    with pytest.raises(CodeError, match="single-slot"):
        validate_nonlinear(two_source_relay(Demand("recover", ("x", "y"))), good)


def test_a_source_table_reads_its_messages_in_declaration_order():
    # s declares a, then b, so over Z_q its edge's table i // q passes a on:
    # the table is indexed by a * q + b, and t recovers a.
    q = 3
    net = Network("two_messages", ("s", "t"), (Edge("e", "s", "t"),), {"s": ("a", "b")},
                  {"t": Demand("recover", ("a",))})
    code = NonlinearCode(q, {"e": tuple(i // q for i in range(q * q))}, {"t": tuple(range(q))})
    for a in range(q):
        for b in range(q):
            assert eval_nonlinear(net, code, {"a": a, "b": b}) == {"t": a}
    assert verify_nonlinear(net, code)


def test_multi_slot_recover_terminal():
    net = Network(
        "both",
        ("a", "b", "t"),
        (Edge("a>t", "a", "t"), Edge("b>t", "b", "t")),
        {"a": ("x",), "b": ("y",)},
        {"t": Demand("recover", ("x", "y"))},
    )
    code = LinearCode(
        F3, 1, 1,
        {("x", "a>t"): MatrixGF(F3, [[1]]), ("y", "b>t"): MatrixGF(F3, [[1]])},
        {},
        {("t", "a>t", 0): MatrixGF(F3, [[1]]), ("t", "b>t", 1): MatrixGF(F3, [[1]])},
    )
    validate_code(net, code)
    assert is_solution(net, code)
    out = eval_linear(net, code, {"x": [2], "y": [1]})
    assert out["t"] == [(2,), (1,)]
    t = transfer_matrix(net, code)
    assert t.row_labels == (("t", "x"), ("t", "y"))
    assert t.matrix.tolists() == [[1, 0], [0, 1]]


def test_identity_fails_s_m_star_only_at_last_terminal():
    from sumnet.families import s_m_star

    net = s_m_star(4)
    code = identity_code(net, F3)
    t = transfer_matrix(net, code)
    assert t.matrix.tolists()[:3] == [[1, 1, 1]] * 3
    assert t.matrix.tolists()[3] == [2, 2, 2]  # each message reaches t_4 twice
    assert not is_solution(net, code)


def test_code_json_round_trip():
    from sumnet.codes import code_from_dict, code_from_json, code_to_dict, code_to_json

    net = s_m(4)
    code = identity_code(net, F2)
    blob = code_to_json(code)
    assert code_from_json(blob) == code
    assert code_to_json(code_from_json(blob)) == blob
    for k, n in ((0, 1), (1, 0)):
        with pytest.raises(CodeError, match="k and n must be positive"):
            code_from_dict(dict(code_to_dict(code), k=k, n=n))


def test_nonlinear_json_round_trip():
    from sumnet.codes import nonlinear_from_json, nonlinear_to_json

    code = additive_code(s_m(4), 2)
    blob = nonlinear_to_json(code)
    assert nonlinear_from_json(blob) == code


def test_json_writers_keep_the_old_layout_readable():
    from sumnet.codes import code_from_json, code_to_json, nonlinear_from_json, nonlinear_to_json
    from sumnet.netmodel import network_from_json, network_to_dict, network_to_json

    # Files written by json.dumps(indent=2) before the one-line-per-item
    # layout still load; the new text parses back to the dict built entry by
    # entry, and writing what was read gives the same bytes.
    net = s_m(4)
    cases = [
        (net, network_to_dict, network_to_json, network_from_json),
        (random_code(random.Random(3), net, 5, 2, 2), reference_code_dict, code_to_json, code_from_json),
        (additive_code(net, 3), reference_table_dict, nonlinear_to_json, nonlinear_from_json),
    ]
    for obj, to_dict, to_json, from_json in cases:
        assert from_json(json.dumps(to_dict(obj), indent=2, sort_keys=True) + "\n") == obj
        blob = to_json(obj)
        assert json.loads(blob) == to_dict(obj)
        assert to_json(from_json(blob)) == blob
    assert network_to_json(single_edge_net()) == """{
  "edges": [
    {"head": "t", "id": "e", "tail": "s"}
  ],
  "name": "tiny",
  "nodes": [
    "s",
    "t"
  ],
  "sources": {"s": ["x"]},
  "terminals": {"t": {"kind": "sum"}}
}
"""


def test_json_writers_match_one_encoder_call_per_item():
    # The writers fill each entry's line from texts encoded once per file; the
    # bytes must be those of one C-encoder call per item of the written dict.
    from sumnet.codes import code_to_dict, nonlinear_from_json, nonlinear_to_dict, nonlinear_to_json
    from sumnet.netmodel import network_from_json, network_to_dict, network_to_json

    odd = ['q"uote', "back\\slash", "\u00fcn\u00ef\u2192\u2211", "tab\tnl\n\x00\x1f", "\U0001f600\ud800", ""]
    shared = MatrixGF(F5, [[1, 2], [3, 4]])
    src = {(m, e): shared for m in odd for e in odd[:3]}
    src[("x", "e")] = MatrixGF(F5, [[1, 2], [3, 4]])  # equal to shared, another object
    dec = {("t", "e", slot): MatrixGF(F5, [[slot, 1], [0, slot + 1]]) for slot in range(12)}  # 10 after 9
    dec[(odd[1], odd[3], 0)] = shared
    codes = [LinearCode(F5, 2, 2, src, {}, dec), random_code(random.Random(5), s_m(4), 5, 2, 2)]
    for code in codes:
        blob = code_to_json(code)
        assert blob == reference_json_text(reference_code_dict(code))
        assert code_to_dict(code) == reference_code_dict(code)
        assert code_from_json(blob) == code
    tables = NonlinearCode(3, {e: (0, 1, 2) for e in odd}, {"t": (2, 1, 0), odd[0]: (1,)})
    for code in (tables, NonlinearCode(2, {}, {}), additive_code(s_m(4), 3)):
        blob = nonlinear_to_json(code)
        assert blob == reference_json_text(reference_table_dict(code))
        assert nonlinear_to_dict(code) == reference_table_dict(code)
        assert nonlinear_from_json(blob) == code
    net = Network(odd[0], (odd[1], odd[2]), (Edge(odd[3], odd[1], odd[2]),), {odd[1]: (odd[4],)},
                  {odd[2]: Demand("sum")})
    for net in (net, s_m(4)):
        blob = network_to_json(net)
        assert blob == reference_json_text(network_to_dict(net))
        assert network_from_json(blob) == net


def test_code_reader_rejects_malformed_matrices():
    from sumnet.codes import code_from_dict, code_to_dict

    net = two_source_relay()
    good = code_to_dict(identity_code(net, F7))
    bad = {
        "ragged rows": [[1], [1, 0]],
        "no rows": [],
        "an empty row": [[]],
        "a list entry": [[[1]]],
        "a bool entry": [[True]],
        "a float entry": [[1.5]],
    }
    for what, mat in bad.items():
        # Alone in its section, and next to well-formed entries.
        for i in (0, 1):
            d = json.loads(json.dumps(good))
            d["local_coeff"][i]["mat"] = mat
            with pytest.raises(CodeError, match="local_coeff mat") as err:
                code_from_dict(d)
            assert "inhomogeneous" not in str(err.value), what
    # 1.0 and true equal, and hash like, 1: next to an equal all-int matrix,
    # in an earlier section or earlier in their own, they are still rejected.
    for mat, twin in (([[1.0]], [[1]]), ([[1, 0], [0, True]], [[1, 0], [0, 1]])):
        for section in ("source_coeff", "local_coeff"):
            d = json.loads(json.dumps(good))
            d[section][0]["mat"] = twin
            d["local_coeff"][1]["mat"] = mat
            with pytest.raises(CodeError, match="local_coeff mat entries must be integers"):
                code_from_dict(d)
    # An entry beyond int64 loads, reduced mod p.
    d = json.loads(json.dumps(good))
    d["local_coeff"][1]["mat"] = [[10**30]]
    key = (d["local_coeff"][1]["in"], d["local_coeff"][1]["out"])
    assert code_from_dict(d).local_coeff[key] == MatrixGF(F7, [[10**30 % 7]])
    # A wrong-shaped coefficient loads and fails validation, by its key: one
    # shape among others, and every coefficient of a section wrong alike.
    for wrong in ([1], [0, 1]):
        d = json.loads(json.dumps(good))
        for i in wrong:
            d["local_coeff"][i]["mat"] = [[1, 0], [0, 1]]
        key = (d["local_coeff"][wrong[0]]["in"], d["local_coeff"][wrong[0]]["out"])
        code = code_from_dict(d)
        assert code.local_coeff[key] == MatrixGF.identity(F7, 2)
        with pytest.raises(CodeError, match="must be 1 x 1") as err:
            validate_code(net, code)
        assert str(key) in str(err.value)


def test_code_reader_reads_each_entry_alike_in_bulk_and_one_by_one():
    # A section whose matrices share one shape is read from one array; a
    # section that mixes shapes is read entry by entry.  Both give the
    # matrices the entries spell, reduced mod p, with the last of repeated keys.
    from sumnet.codes import code_from_dict

    entries = [{"in": "a", "out": "b", "mat": [[7, -1], [3, 12]]},
               {"in": "c", "out": "d", "mat": [[2**63 - 1, 0], [-2**63, 5]]},
               {"in": "a", "out": "b", "mat": [[1, 2], [3, 4]]}]
    for extra in ([], [{"in": "e", "out": "f", "mat": [[1]]}]):
        code = code_from_dict({"field": 5, "k": 2, "n": 2, "local_coeff": entries + extra})
        assert list(code.local_coeff) == [("a", "b"), ("c", "d")] + [("e", "f")] * bool(extra)
        assert code.local_coeff[("a", "b")].tolists() == [[1, 2], [3, 4]]
        assert code.local_coeff[("c", "d")].tolists() == [[(2**63 - 1) % 5, 0], [(-2**63) % 5, 0]]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_every_built_matrix_keeps_the_matrix_invariants(data):
    # Matrices built without a copy or a second reduction (transposes,
    # products, scaled, reversed and read coefficients) are read-only residues
    # in [0, p) that equal, and hash like, the matrix of their own entries.
    from sumnet.codes import code_from_json, code_to_json
    from sumnet.gflin import mat_mul, rank
    from sumnet.transforms import scale_sources

    p = data.draw(st.sampled_from([2, 3, 5, 65521]))
    k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    net = data.draw(st.sampled_from([two_source_relay(), s_m(3), sum_bipartite22()]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    code = random_code(rng, net, p, k, n)
    f = code.field
    scales = {}
    for msg in net.messages():
        a = MatrixGF.zeros(f, k, k)
        while rank(a) < k:
            a = MatrixGF(f, [[rng.randrange(p) for _ in range(k)] for _ in range(k)])
        scales[msg] = a
    built = [m.transpose() for m in code.local_coeff.values()]
    built += [mat_mul(m, m.transpose()) for m in code.decode_coeff.values()]
    for c in (scale_sources(code, scales), canonical_reverse_code(net, code),
              code_from_json(code_to_json(code))):
        built += [*c.source_coeff.values(), *c.local_coeff.values(), *c.decode_coeff.values()]
    assert built
    t = transfer_matrix(net, code)
    built += [t.matrix, t.block(0, 0)]
    for m in built:
        assert type(m.entries) is tuple and all(type(r) is tuple and set(map(type, r)) == {int} for r in m.entries)
        assert all(0 <= a < p for r in m.entries for a in r)
        twin = MatrixGF(f, m.tolists())
        assert m == twin and hash(m) == hash(twin)
        with pytest.raises(AttributeError):
            m.rows = 1
        with pytest.raises(AttributeError):
            m.field = f


def test_equal_coefficients_share_one_matrix():
    # The benchmark's codes hold thousands of coefficients but few distinct
    # matrices; one object per distinct matrix in each part of a code keeps
    # reading, reversing and scaling a code from allocating one per coefficient.
    net = s_m(4)
    cases = [(s_m(10), known_code(FamilySpec("s_m", 10), F2)),
             (net, code_from_json(code_to_json(random_code(random.Random(4), net, 2, 2, 2))))]
    for net, code in cases:
        rng = random.Random(6)
        scales = {}
        for msg in net.messages():
            a = MatrixGF.zeros(code.field, code.k, code.k)
            while mat_inv(a) is None:
                a = MatrixGF(code.field, [[rng.randrange(2) for _ in range(code.k)] for _ in range(code.k)])
            scales[msg] = a
        scaled = scale_sources(code, scales)
        back = scale_sources(scaled, {msg: mat_inv(a) for msg, a in scales.items()})
        assert back == code
        # Half the local coefficients spelled unreduced, which must not split a matrix in two.
        d = json.loads(code_to_json(code))
        for e in d["local_coeff"][::2]:
            e["mat"] = [[x + code.field.p for x in row] for row in e["mat"]]
        read = code_from_json(json.dumps(d))
        assert read == code
        for c in (read, canonical_reverse_code(net, code), scaled, back):
            for part in (c.source_coeff, c.local_coeff, c.decode_coeff):
                assert len(set(map(id, part.values()))) == len(set(part.values())), net.name


# -- nonlinear -----------------------------------------------------------------


def relay_chain_net():
    return Network(
        "relay",
        ("s", "a", "t"),
        (Edge("e1", "s", "a"), Edge("e2", "a", "t")),
        {"s": ("x",)},
        {"t": Demand("sum")},
    )


def test_eval_nonlinear_identity_relay():
    net = relay_chain_net()
    code = additive_code(net, 5)
    assert eval_nonlinear(net, code, {"x": 3})["t"] == 3
    assert verify_nonlinear(net, code)


def test_verify_nonlinear_constant_zero_fails():
    net = component()
    zero = NonlinearCode(
        2,
        {e.id: tuple([0] * (2 ** len(net.in_edges(e.tail)) if e.tail not in net.sources
                           else 2 ** len(net.sources[e.tail]))) for e in net.edges},
        {t: tuple([0] * (2 ** len(net.in_edges(t)))) for t in net.terminals},
    )
    assert not verify_nonlinear(net, zero)


def test_component_handbuilt_code_all_eight_inputs():
    net = component()
    # relays forward x1, mix adds x3, t_1 cancels x3, t_2 cancels x1
    code = additive_code(net, 2)
    edge_fn = dict(code.edge_fn)
    # rel edges must drop x2: arity-2 tables keyed (x1, x2) -> x1
    for eid in ("rel_1>mix", "rel_2>t_2"):
        edge_fn[eid] = (0, 0, 1, 1)
    code = NonlinearCode(2, edge_fn, dict(code.decode_fn))
    assert verify_nonlinear(net, code)
    for x1 in (0, 1):
        for x2 in (0, 1):
            for x3 in (0, 1):
                out = eval_nonlinear(net, code, {"x1": x1, "x2": x2, "x3": x3})
                assert out["t_1"] == x1 and out["t_2"] == x3


def test_s4_xor_tree_matches_linear_identity():
    net = s_m(4)
    code = additive_code(net, 2)
    lin = identity_code(net, F2)
    assert verify_nonlinear(net, code)
    import itertools

    for bits in itertools.product((0, 1), repeat=4):
        x = {f"x{i+1}": bits[i] for i in range(4)}
        nl = eval_nonlinear(net, code, x)
        ln = eval_linear(net, lin, {m: [v] for m, v in x.items()})
        assert all(nl[t] == ln[t][0][0] for t in net.terminals)


def test_verify_nonlinear_budget():
    net = s_m(4)
    with pytest.raises(BudgetExceededError):
        verify_nonlinear(net, additive_code(net, 2), budget=3)
