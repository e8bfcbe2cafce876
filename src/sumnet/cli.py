"""Command-line entry point: generation, transforms, search and export.

Every subcommand reads and writes JSON (``-`` for standard streams), so runs
are reproducible from the shell.  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import codes, families, solver, transforms
from .codes import (
    CodeError,
    LinearCode,
    code_from_json,
    code_to_json,
    canonical_reverse_code,
    is_solution,
    matrix_from_json,
    nonlinear_from_json,
    transfer_entries,
    transfer_rows,
    validate_code,
    verify_nonlinear,
)
from .gflin import FieldSpec, MatrixGF
from .netmodel import (
    Network,
    connectivity,
    json_int,
    json_obj,
    json_str,
    min_cut,
    network_from_json,
    network_to_json,
    reverse_network,
)
from .solver import SearchOptions


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_net(path: str) -> Network:
    return network_from_json(_read(path))


def _load_bound_code(args) -> tuple[Network, LinearCode]:
    """The ``--net`` network and the ``--code`` linear code, validated against it."""
    net, code = _load_net(args.net), code_from_json(_read(args.code))
    validate_code(net, code)
    return net, code


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _dot_quote(*lines: str) -> str:
    """A DOT string literal of ``lines`` joined by label breaks, quotes and backslashes escaped."""
    return '"' + "\\n".join(x.replace("\\", "\\\\").replace('"', '\\"') for x in lines) + '"'


def export_dot(net: Network, roles: Optional[dict[str, str]] = None) -> str:
    """Graphviz text with sources and terminals visually distinguished, each id labelled with its role."""
    roles = roles or {}
    lines = [f"digraph {_dot_quote(net.name or 'network')} {{", "  rankdir=LR;"]
    for v in net.nodes:
        attrs = ['shape=ellipse']
        label = [v]
        if v in net.sources:
            attrs = ["shape=box", "style=filled", "fillcolor=lightblue"]
            label.append(",".join(net.sources[v]))
        elif v in net.terminals:
            d = net.terminals[v]
            attrs = ["shape=doubleoctagon", "style=filled", "fillcolor=lightyellow"]
            label.append("sum" if d.kind == "sum" else ",".join(d.messages))
        if roles.get(v):
            label.append("[" + roles[v] + "]")
        attrs.append(f"label={_dot_quote(*label)}")
        lines.append(f'  {_dot_quote(v)} [{", ".join(attrs)}];')
    for e in net.edges:
        label = [e.id]
        if roles.get(e.id):
            label.append("[" + roles[e.id] + "]")
        lines.append(f"  {_dot_quote(e.tail)} -> {_dot_quote(e.head)} [label={_dot_quote(*label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sumnet", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    net, code, out = _option("--net", required=True), _option("--code", required=True), _option("-o", "--out")
    budget = _option("--budget", type=int, default=SearchOptions.budget)

    def command(name: str, handler, about: str, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=about, parents=parents)
        p.set_defaults(handler=handler)
        return p

    p = command("family", _cmd_family, "emit a built-in network", out)
    p.add_argument("--name", required=True, choices=families.FAMILIES)
    p.add_argument("--m", type=int, default=0)

    p = command("known-code", _cmd_known_code, "emit a family's closed-form code, or null", out)
    p.add_argument("--family", required=True, choices=families.FAMILIES)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--field", type=int, required=True)

    p = command("transform", _cmd_transform, "apply a construction to a network", net, out)
    p.add_argument("--op", required=True, choices=_TRANSFORMS)
    p.add_argument("--trace-out", help="write construction roles as a JSON sidecar")

    p = command("search", _cmd_search, "decide (k,n) linear solvability", net, budget, out)
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--no-reduce", action="store_true")

    p = command("search-nonlinear", _cmd_search_nonlinear, "decide Z_q table-code solvability", net, budget, out)
    p.add_argument("--q", type=int, required=True)

    p = command("classify", _cmd_classify, "solvability pattern of a family per prime", budget, out)
    p.add_argument("--family", required=True, choices=["s_m", "s_m_star"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--primes", default="2,3,5")

    command("verify", _cmd_verify, "check a linear code against a network", net, code)
    p = command("verify-nonlinear", _cmd_verify_nonlinear, "check a table code exhaustively", net, code)
    p.add_argument("--budget", type=int, default=codes.MAX_INPUTS)
    command("reverse-code", _cmd_reverse_code, "canonical code for the reversed network", net, code, out)
    command("transfer", _cmd_transfer, "emit the transfer matrix of a code", net, code, out)

    p = command("scale-sources", _cmd_scale_sources, "compose source coefficients with scales", code, out)
    p.add_argument("--scales", required=True, help="JSON file mapping message -> k x k matrix or scalar")

    p = command("mincut", _cmd_mincut, "unit-capacity max-flow between two nodes", net)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)

    command("connectivity", _cmd_connectivity, "source x terminal reachability matrix", net)
    p = command("export-dot", _cmd_export_dot, "emit Graphviz text", net, out)
    p.add_argument("--trace", help="role sidecar JSON to label nodes and edges")
    return ap


# Each construction of ``transform --op``, returning the network and its roles or None.
_TRANSFORMS = {"c1": transforms.c1, "c2": transforms.c2, "c3": transforms.c3,
               "reverse": lambda net: (reverse_network(net), None), "to-type-ia": transforms.to_type_ia}


def _cmd_family(args) -> str:
    spec = families.FamilySpec(args.name, args.m)
    return network_to_json(families.generate(spec))


def _cmd_known_code(args) -> str:
    code = families.known_code(families.FamilySpec(args.family, args.m), FieldSpec(args.field))
    return "null\n" if code is None else code_to_json(code)


def _cmd_transform(args) -> str:
    net = _load_net(args.net)
    out, roles = _TRANSFORMS[args.op](net)
    if args.trace_out and roles is not None:
        _write(args.trace_out, _dump_json(roles))
    return network_to_json(out)


def _cmd_search(args) -> str:
    net = _load_net(args.net)
    opts = SearchOptions(budget=args.budget, reduce=not args.no_reduce)
    report = solver.search_linear(net, FieldSpec(args.field), args.k, args.n, opts)
    return _dump_json(report.to_dict())


def _cmd_search_nonlinear(args) -> str:
    net = _load_net(args.net)
    report = solver.search_nonlinear(net, args.q, SearchOptions(budget=args.budget))
    return _dump_json(report.to_dict())


def _cmd_classify(args) -> str:
    primes = [int(x) for x in args.primes.split(",") if x]
    verdicts = solver.classify_characteristics(
        families.FamilySpec(args.family, args.m),
        args.k,
        primes,
        SearchOptions(budget=args.budget),
    )
    out = {
        "family": args.family,
        "m": args.m,
        "k": args.k,
        "verdicts": {str(p): v for p, v in verdicts.items()},
    }
    return _dump_json(out)


def _format_transfer(net: Network, code: LinearCode) -> dict:
    # The raw rows, since a network without terminals or messages has an
    # empty transfer matrix, which MatrixGF rejects.
    return {
        "k": code.k,
        "rows": [[term, label] for term, label in transfer_rows(net)],
        "cols": list(net.messages()),
        "matrix": [list(r) for r in transfer_entries(net, code)],
    }


def _cmd_verify(args) -> str:
    net, code = _load_bound_code(args)
    ok = is_solution(net, code)
    return ("SOLUTION\n" if ok else "NOT A SOLUTION\n") + _dump_json(_format_transfer(net, code))


def _cmd_verify_nonlinear(args) -> str:
    net = _load_net(args.net)
    code = nonlinear_from_json(_read(args.code))
    ok = verify_nonlinear(net, code, budget=args.budget)
    return "SOLUTION\n" if ok else "NOT A SOLUTION\n"


def _cmd_reverse_code(args) -> str:
    net, code = _load_bound_code(args)
    return code_to_json(canonical_reverse_code(net, code))


def _cmd_transfer(args) -> str:
    net, code = _load_bound_code(args)
    return _dump_json(_format_transfer(net, code))


def _cmd_scale_sources(args) -> str:
    code = code_from_json(_read(args.code))
    raw = json_obj(json.loads(_read(args.scales)), "scales", CodeError)
    known = {msg for msg, _ in code.source_coeff}
    scales = {}
    for msg, val in raw.items():
        what = f"scale for {msg!r}"
        if msg not in known:
            raise CodeError(f"{msg!r} is not a source message of the code")
        if isinstance(val, list):
            scales[msg] = matrix_from_json(val, code.field, what)
        else:
            c = json_int(val, what, CodeError) % code.field.p
            eye = MatrixGF.identity(code.field, code.k)
            scales[msg] = MatrixGF(code.field, [[c * x for x in row] for row in eye.tolists()])
    return code_to_json(transforms.scale_sources(code, scales))


def _cmd_mincut(args) -> str:
    net = _load_net(args.net)
    value = min_cut(net, args.s, args.t)
    return _dump_json({"s": args.s, "t": args.t, "min_cut": value})


def _cmd_connectivity(args) -> str:
    net = _load_net(args.net)
    srcs, terms, matrix = connectivity(net)
    return _dump_json({"sources": list(srcs), "terminals": list(terms), "matrix": matrix})


def _cmd_export_dot(args) -> str:
    net = _load_net(args.net)
    roles = json_obj(json.loads(_read(args.trace)), "trace") if args.trace else {}
    for ident, role in roles.items():
        json_str(role, f"trace role of {ident!r}")
    return export_dot(net, roles)


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand and write the text its handler returns to ``-o`` or standard output."""
    args = _build_parser().parse_args(argv)
    try:  # NetworkError, CodeError and json.JSONDecodeError are ValueErrors
        _write(getattr(args, "out", None), args.handler(args))
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
