from itertools import product

import pytest

from sumnet import FieldSpec, is_solution, known_code
from sumnet.families import (
    COMPONENT_DESIGNATED_EDGES,
    FamilySpec,
    bottleneck_mun,
    component,
    generate,
    s_m,
    s_m_star,
)
from sumnet.netmodel import NetworkError, connectivity, min_cut
from sumnet.transforms import c2

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)


def test_family_spec_validation():
    with pytest.raises(NetworkError):
        FamilySpec("s_m", 2)
    with pytest.raises(NetworkError):
        FamilySpec("s_m_star", 1)
    with pytest.raises(NetworkError):
        FamilySpec("bottleneck_mun", 1)
    with pytest.raises(NetworkError):
        FamilySpec("nope", 3)
    assert generate(FamilySpec("component")).name == "component"


def test_s_m_structure():
    net = s_m(4)
    assert len(net.source_nodes()) == 4
    assert len(net.terminal_nodes()) == 4
    assert len(net.nodes) == 14
    assert len(net.edges) == 21
    assert {v for v in net.nodes if v.startswith("u_")} == {"u_1", "u_2", "u_3"}
    # terminal t_m is fed only through the relay lines
    assert all(e.tail.startswith("v_") for e in net.in_edges("t_4"))


def test_s_m_edge_count_closed_form():
    for m in (3, 4, 5, 7):
        assert len(s_m(m).edges) == (m - 1) * (m + 3)


def test_s_m_star_structure():
    net = s_m_star(4)
    assert len(net.source_nodes()) == 3
    assert len(net.terminal_nodes()) == 4
    assert len(net.edges) == (4 - 1) * (4 + 2)


def test_family_node_counts_and_every_node_an_edge_endpoint():
    nets = [(s_m(m), 4 * m - 2) for m in range(3, 9)] + [(s_m_star(m), 4 * m - 3) for m in range(3, 9)]
    nets += [(bottleneck_mun(m), 2 * m + 2) for m in range(2, 7)] + [(component(), 9)]
    for net, count in nets:
        assert len(net.nodes) == count, net.name
        assert set(net.nodes) == {v for e in net.edges for v in (e.tail, e.head)}, net.name


def test_s_m_connectivity_all_pairs():
    for m in (3, 4, 5):
        _, _, matrix = connectivity(s_m(m))
        assert all(all(row) for row in matrix)
        _, _, matrix = connectivity(s_m_star(m))
        assert all(all(row) for row in matrix)


def test_bottleneck_min_cut_one_for_all_pairs():
    net = bottleneck_mun(3)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert min_cut(net, f"w_{i}", f"z_{j}") == 1


# -- known codes -----------------------------------------------------------------


def test_known_code_s4_gf2_identity_solves():
    code = known_code(FamilySpec("s_m", 4), F2)
    assert code is not None
    assert all(m.is_identity() for m in code.source_coeff.values())
    assert is_solution(s_m(4), code)


def test_known_code_s5_gf3_solves():
    code = known_code(FamilySpec("s_m", 5), F3)
    assert code is not None
    assert is_solution(s_m(5), code)


def test_known_code_s_m_absent_when_char_wrong():
    assert known_code(FamilySpec("s_m", 4), F3) is None
    assert known_code(FamilySpec("s_m_star", 4), F2) is None
    assert known_code(FamilySpec("component"), F2) is None


def test_known_code_s_m_star_gf3_decode_is_inverse():
    code = known_code(FamilySpec("s_m_star", 4), F3)
    net = s_m_star(4)
    assert code is not None
    for e in net.in_edges("t_4"):
        assert code.decode("t_4", e.id, 0).tolists() == [[2]]  # (4-2)^{-1} mod 3
    assert is_solution(net, code)


def test_known_code_s_m_star_gf5_solves():
    code = known_code(FamilySpec("s_m_star", 4), F5)
    net = s_m_star(4)
    for e in net.in_edges("t_4"):
        assert code.decode("t_4", e.id, 0).tolists() == [[3]]  # (4-2)^{-1} mod 5
    assert is_solution(net, code)


def test_known_code_bottleneck_fractional():
    net, _ = c2(bottleneck_mun(3))
    for f in (F2, F3, F5):
        code = known_code(FamilySpec("bottleneck_mun", 3), f)
        assert code.k == 1 and code.n == 2
        assert is_solution(net, code)


# -- component forcing -------------------------------------------------------------


def _component_forcing_reduced(p: int) -> tuple[int, bool]:
    """Enumerate reduced interiors; returns (#solvable, forcing held).

    Source coefficients are folded to 1 and the fanout relay to identity,
    which leaves both designated edge symbols untouched, so the forcing
    property is checked against every solution.
    """
    solvable = 0
    vecs = lambda: product(range(p), repeat=2)
    for a, b in vecs():  # rel_1 row
        y5 = (a, b, 0)
        for a2, b2 in vecs():  # rel_2 row
            y10 = (a2, b2, 0)
            for pm, qm in vecs():  # mix row
                y7 = ((pm * a) % p, (pm * b) % p, qm)
                ok1 = any(
                    tuple((g1 * c + g2 * d) % p for c, d in zip(y7, (0, 0, 1))) == (1, 0, 0)
                    for g1 in range(p)
                    for g2 in range(p)
                )
                ok2 = any(
                    tuple((g3 * c + g4 * d) % p for c, d in zip(y7, y10)) == (0, 0, 1)
                    for g3 in range(p)
                    for g4 in range(p)
                )
                if ok1 and ok2:
                    solvable += 1
                    pure = b == 0 and a != 0 and b2 == 0 and a2 != 0
                    if not pure:
                        return solvable, False
    return solvable, True


@pytest.mark.parametrize("p", [2, 3])
def test_component_forcing_property(p):
    solvable, held = _component_forcing_reduced(p)
    assert solvable > 0
    assert held


def test_component_designated_edges_exist():
    net = component()
    for eid in COMPONENT_DESIGNATED_EDGES:
        assert net.has_edge(eid)
