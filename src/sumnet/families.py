"""Built-in generator networks and their known closed-form codes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .codes import LinearCode, coefficient_table, identity_code, linear_code
from .gflin import FieldSpec, MatrixGF
from .netmodel import Demand, Edge, Network, NetworkError, recover
from .transforms import c2

# Relay out-edges of the component gadget that every solution is forced to
# fill with an invertible multiple of x1.
COMPONENT_DESIGNATED_EDGES = ("rel_1>mix", "rel_2>t_2")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    m: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise NetworkError(f"unknown family {self.family!r}")
        _check_m(self.family, self.m)


def _check_m(family: str, m: int) -> None:
    """Reject an m below the family's least m."""
    least = _BUILDERS[family][1]
    if least is not None and m < least:
        raise NetworkError(f"{family} needs m >= {least}")


def _network(name: str, edges: list[tuple[str, str]], sources: dict, terminals: dict) -> Network:
    """The network of ``edges``, each a (tail, head) pair with id "tail>head", on the edges' endpoints."""
    return Network(
        name=name,
        nodes=tuple({v for e in edges for v in e}),
        edges=tuple(Edge(f"{tail}>{head}", tail, head) for tail, head in edges),
        sources=sources,
        terminals=terminals,
    )


def s_m(m: int) -> Network:
    """Sum network solvable exactly when the characteristic divides m - 2.

    Sources s_1..s_m; s_1..s_{m-1} reach every terminal but their own index
    directly, while the shared relays u_i, v_i merge s_i with s_m and fan out
    to t_i and t_m.
    """
    _check_m("s_m", m)
    edges = []
    for i in range(1, m):
        edges += [(f"s_{i}", f"t_{j}") for j in range(1, m) if j != i]
        edges += [(f"s_{i}", f"u_{i}"), (f"s_{m}", f"u_{i}"), (f"u_{i}", f"v_{i}"), (f"v_{i}", f"t_{i}"),
                  (f"v_{i}", f"t_{m}")]
    return _network(f"s_{m}", edges, {f"s_{i}": (f"x{i}",) for i in range(1, m + 1)},
                    {f"t_{i}": Demand("sum") for i in range(1, m + 1)})


def s_m_star(m: int) -> Network:
    """Sum network solvable exactly when the characteristic does not divide m - 2."""
    _check_m("s_m_star", m)
    edges = []
    for i in range(1, m):
        edges += [(f"s_{i}", f"t_{i}")] + [(f"s_{i}", f"u_{j}") for j in range(1, m) if j != i]
        edges += [(f"u_{i}", f"v_{i}"), (f"v_{i}", f"t_{i}"), (f"v_{i}", f"t_{m}")]
    return _network(f"s_{m}_star", edges, {f"s_{i}": (f"x{i}",) for i in range(1, m)},
                    {f"t_{i}": Demand("sum") for i in range(1, m + 1)})


def component() -> Network:
    """Three-source forcing gadget with two terminals.

    t_1 demands x1 and only sees it through the mix line, t_2 demands x3 and
    must cancel the mixed-in x1 using rel_2's edge; together the demands force
    both relay out-edges to carry an invertible multiple of x1 and nothing
    else, in every solution.
    """
    edges = [("s_1", "rel_1"), ("s_2", "rel_1"), ("s_1", "rel_2"), ("s_2", "rel_2"), ("rel_1", "mix"),
             ("s_3", "mix"), ("mix", "fan"), ("fan", "t_1"), ("fan", "t_2"), ("rel_2", "t_2"), ("s_3", "t_1")]
    return _network("component", edges, {"s_1": ("x1",), "s_2": ("x2",), "s_3": ("x3",)},
                    {"t_1": recover("x1"), "t_2": recover("x3")})


def bottleneck_mun(m: int) -> Network:
    """m unicast pairs all squeezed through one shared unit edge."""
    _check_m("bottleneck_mun", m)
    edges = [("hub_in", "hub_out")]
    for i in range(1, m + 1):
        edges += [(f"w_{i}", "hub_in"), ("hub_out", f"z_{i}")]
    return _network(f"bottleneck_{m}", edges, {f"w_{i}": (f"x{i}",) for i in range(1, m + 1)},
                    {f"z_{i}": recover(f"x{i}") for i in range(1, m + 1)})


# Each family's builder and its least m; component takes no m.
_BUILDERS = {"s_m": (s_m, 3), "s_m_star": (s_m_star, 3), "component": (component, None),
             "bottleneck_mun": (bottleneck_mun, 2)}
FAMILIES = tuple(_BUILDERS)


def generate(spec: FamilySpec) -> Network:
    build, least = _BUILDERS[spec.family]
    return build() if least is None else build(spec.m)


def _bottleneck_fractional_code(m: int, field: FieldSpec) -> LinearCode:
    """(1, 2) time-sharing code for the sum network built on bottleneck_mun(m).

    First symbol slot: the bottleneck carries the sum of the first m messages
    to every left terminal while the mix lines carry only x_{m+1}.  Second
    slot: each right terminal combines its direct edge with its mix line.
    """
    net, roles = c2(bottleneck_mun(m))
    top = MatrixGF(field, [[1], [0]])
    bottom = MatrixGF(field, [[0], [1]])
    both = MatrixGF(field, [[1], [1]])
    eye2 = MatrixGF.identity(field, 2)
    coeffs = {}
    for u in coefficient_table(net, 1, 2):
        # The role of an alpha's edge, or of a gamma's terminal.
        role = roles.get(u[2] if u[0] == "alpha" else u[1], "")
        if u[0] == "beta":
            coeffs[u] = eye2
        elif u[0] == "gamma":
            coeffs[u] = (bottom if role.startswith("right") else top).transpose()
        elif role.startswith("source feed"):
            coeffs[u] = top
        elif role.startswith("extra source feed"):
            coeffs[u] = both
        else:  # cross feed / direct right
            coeffs[u] = bottom
    return linear_code(field, 1, 2, coeffs)


def known_code(spec: FamilySpec, field: FieldSpec) -> Optional[LinearCode]:
    """The explicit closed-form solution for a family, when one exists.

    s_m: the all-identity scalar code, valid when p divides m - 2.
    s_m_star: identity everywhere except the last terminal, which decodes
    with (m - 2)^{-1}; valid when p does not divide m - 2.
    bottleneck_mun: the (1, 2) code above, bound to c2(bottleneck_mun(m)).
    """
    p = field.p
    if spec.family == "s_m":
        if (spec.m - 2) % p != 0:
            return None
        return identity_code(s_m(spec.m), field, k=1)
    if spec.family == "s_m_star":
        if (spec.m - 2) % p == 0:
            return None
        net = s_m_star(spec.m)
        code = identity_code(net, field, k=1)
        inv = MatrixGF(field, [[field.inv(spec.m - 2)]])
        t_last = f"t_{spec.m}"
        dec = {key: inv if key[0] == t_last else m for key, m in code.decode_coeff.items()}
        return LinearCode(field, 1, 1, code.source_coeff, code.local_coeff, dec)
    if spec.family == "bottleneck_mun":
        return _bottleneck_fractional_code(spec.m, field)
    return None
