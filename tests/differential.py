"""Differential of the exhaustive searches: one digest of every verdict, count and witness.

Run it from the repository root, before and after a change that must not move
any search result, and compare the two digests:

    python tests/differential.py            # search count and sha256
    python tests/differential.py --lines    # one line per search, then the digest
    python tests/differential.py --outputs  # a second digest, over the outputs that are not searches

The searches: the 200 seed-7 ``random_sum_network(rng, max_nodes=8)`` networks,
``s_m(3..6)``, ``s_m_star(3..7)``, ``component()``, ``two_message_source()``,
``c3(sum_bipartite22())``, ``c1(mun_crossed())``, ``c1(mun_disjoint2())`` and
``c2(bottleneck_mun(2))``.  Each runs ``search_linear`` over GF(2) and GF(3)
at (k, n) = (1, 1), (2, 1), (1, 2) and (2, 2), and ``search_nonlinear`` over
Z_2 and Z_3, all at budget 3,000.  A search is recorded as its
``SearchReport.to_dict()`` without ``elapsed_s``, or as the error it raised.

``--outputs`` digests, per case of ``output_cases`` (the known codes and
seed-11 random codes on small networks, their c1/c2/c3 images and their
reverses): the network and code JSON, the code read back, the canonical
reverse code, ``scale_sources`` there and back, the transfer matrix of the
code and of its reverse, and what every subcommand of ``cli.main`` makes of
the case (``case_commands``).  Then it digests ``family``, ``known-code`` and
``classify`` over a fixed grid (``grid_commands``).  A command is recorded as
its exit status, stdout and stderr, with a search's ``elapsed_s`` blanked.  A
command that takes ``-o`` runs once more with ``-o`` to a file, which is
recorded too, and the case's ``transfer`` once with ``-o`` under a missing
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
import time
from functools import partial
from itertools import product
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from sumnet import (  # noqa: E402
    FamilySpec, FieldSpec, MatrixGF, SearchOptions, c1, c2, c3, canonical_reverse_code, cli, known_code,
    mat_inv, network_to_json, reverse_network, scale_sources, search_linear, search_nonlinear, transfer_matrix,
)
from sumnet.codes import additive_code, code_from_json, code_to_json, nonlinear_to_json  # noqa: E402
from sumnet.families import bottleneck_mun, component, s_m, s_m_star  # noqa: E402

from helpers import (  # noqa: E402
    mun_crossed, mun_disjoint2, random_code, random_sum_network, sum_bipartite22, two_message_source,
)

RATES = ((1, 1), (2, 1), (1, 2), (2, 2))
BUDGET = 3_000
# The subcommands that take -o, and transform's constructions.
OUT_COMMANDS = {"family", "known-code", "transform", "search", "search-nonlinear", "classify", "reverse-code",
                "transfer", "scale-sources", "export-dot"}
OPS = ("c1", "c2", "c3", "reverse", "to-type-ia")


def networks() -> list:
    rng = random.Random(7)
    nets = [random_sum_network(rng, max_nodes=8) for _ in range(200)]
    nets += [s_m(m) for m in range(3, 7)] + [s_m_star(m) for m in range(3, 8)]
    nets += [component(), two_message_source(), c3(sum_bipartite22())[0], c1(mun_crossed())[0],
             c1(mun_disjoint2())[0], c2(bottleneck_mun(2))[0]]
    return nets


def searches():
    """Every search of the differential as (label, thunk), in a fixed order."""
    opts = SearchOptions(budget=BUDGET)
    for i, net in enumerate(networks()):
        for p in (2, 3):
            for k, n in RATES:
                yield f"{i} {net.name} GF({p}) ({k},{n})", partial(search_linear, net, FieldSpec(p), k, n, opts)
        for q in (2, 3):
            yield f"{i} {net.name} Z_{q}", partial(search_nonlinear, net, q, opts)


def record(thunk) -> str:
    try:
        out = thunk().to_dict()
    except Exception as exc:  # a search that refuses its input is part of the record
        return json.dumps({"error": type(exc).__name__, "message": str(exc)})
    del out["elapsed_s"]
    return json.dumps(out, sort_keys=True)


def output_cases():
    """Each (label, network, code) whose outputs ``--outputs`` digests, in a fixed order."""
    known = (("s_m", s_m, (4, 5, 10), (2, 3)), ("s_m_star", s_m_star, (4, 5, 6), (2, 3, 65521)),
             ("bottleneck_mun", lambda m: c2(bottleneck_mun(m))[0], (2, 3), (2, 3)))
    for family, build, ms, primes in known:
        for m, p in product(ms, primes):
            code = known_code(FamilySpec(family, m), FieldSpec(p))
            if code is not None:
                yield f"known {family}({m}) GF({p})", build(m), code
    rng = random.Random(11)
    nets = [sum_bipartite22(), s_m(3), mun_crossed(), c1(mun_crossed())[0], c2(bottleneck_mun(2))[0],
            c3(sum_bipartite22())[0], c3(s_m(3))[0]]
    for net in nets:
        for p, (k, n) in zip((2, 3, 65521, 5), RATES):
            yield f"random {net.name} GF({p}) ({k},{n})", net, random_code(rng, net, p, k, n)


def _scales(rng: random.Random, code) -> dict:
    """An invertible k x k scale for every other source message of ``code``."""
    out = {}
    for msg in sorted({msg for msg, _ in code.source_coeff})[::2]:
        a = None
        while a is None or mat_inv(a) is None:
            a = MatrixGF(code.field, [[rng.randrange(code.field.p) for _ in range(code.k)] for _ in range(code.k)])
        out[msg] = a
    return out


def _attempt(thunk) -> str:
    """What ``thunk()`` returns, or the error it raised, as text."""
    try:
        return str(thunk())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _cli_output(argv: list[str]) -> str:
    """The exit status, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = _attempt(lambda: cli.main(argv))
    return f"{status}\n{out.getvalue()}\n{err.getvalue()}"


def cli_records(argvs, tmp: Path) -> Iterator[str]:
    """Each command's record; a command that takes -o runs again with it, and the file is recorded."""
    def clean(text: str) -> str:
        return re.sub(r'"elapsed_s": [-+.e0-9]+', '"elapsed_s": -', text.replace(str(tmp), "<tmp>"))

    out = tmp / "out.txt"
    for argv in argvs:
        yield clean(_cli_output(argv))
        if argv[0] in OUT_COMMANDS and "-o" not in argv:
            out.unlink(missing_ok=True)
            record = _cli_output([*argv, "-o", str(out)])
            yield clean(record + (out.read_text() if out.exists() else "<no file>"))


def case_commands(net, code, files: dict[str, str], tmp: Path) -> Iterator[list[str]]:
    """Every subcommand on one case; each ``transform`` writes a trace sidecar, which an ``export-dot`` reads."""
    bound = ["--net", files["net"], "--code", files["code"]]
    yield from (["transfer", *bound], ["verify", *bound], ["reverse-code", *bound],
                ["scale-sources", "--code", files["code"], "--scales", files["scales"]])
    yield ["transfer", *bound, "-o", str(tmp / "missing" / "out.txt")]
    yield ["verify-nonlinear", "--net", files["net"], "--code", files["table"]]
    p, k, n = code.field.p, code.k, code.n
    yield ["search", "--net", files["net"], "--field", str(p), "--k", str(k), "--n", str(n), "--budget", "100"]
    yield ["search-nonlinear", "--net", files["net"], "--q", "2", "--budget", "20"]
    yield ["mincut", "--net", files["net"], "--s", net.source_nodes()[0], "--t", net.terminal_nodes()[-1]]
    yield ["connectivity", "--net", files["net"]]
    yield ["export-dot", "--net", files["net"]]
    trace = tmp / "trace.json"
    for op in OPS:
        trace.unlink(missing_ok=True)
        yield ["transform", "--op", op, "--net", files["net"], "--trace-out", str(trace)]
        yield ["export-dot", "--net", files["net"], "--trace", str(trace)]


def grid_commands() -> Iterator[list[str]]:
    """``family``, ``known-code`` and ``classify`` over a fixed grid, invalid values included."""
    for name, m in product(("s_m", "s_m_star", "component", "bottleneck_mun"), (0, 2, 3, 5)):
        yield ["family", "--name", name, "--m", str(m)]
        for p in (2, 3, 5):
            yield ["known-code", "--family", name, "--m", str(m), "--field", str(p)]
    yield ["classify", "--family", "s_m", "--m", "4", "--primes", "2,3"]
    yield ["classify", "--family", "s_m_star", "--m", "5", "--k", "2", "--primes", "2,3", "--budget", "50"]
    yield ["classify", "--family", "s_m", "--m", "2"]


def output_records(net, code, rng: random.Random, tmp: Path) -> Iterator[str]:
    """Every output of one case, one text each."""
    rev, rcode = reverse_network(net), canonical_reverse_code(net, code)
    scales = _scales(rng, code)
    scaled = scale_sources(code, scales)
    yield network_to_json(net)
    yield code_to_json(code)
    yield code_to_json(code_from_json(code_to_json(code)))
    yield network_to_json(rev)
    yield code_to_json(rcode)
    yield code_to_json(scaled)
    yield code_to_json(scale_sources(scaled, {msg: mat_inv(a) for msg, a in scales.items()}))
    yield _attempt(lambda: transfer_matrix(net, code).matrix.tolists())
    yield _attempt(lambda: transfer_matrix(rev, rcode).matrix.tolists())
    # The CLI takes every other scale as the scalar p - 1, the rest as matrices.
    cli_scales = {msg: a.tolists() if i % 2 else code.field.p - 1 for i, (msg, a) in enumerate(scales.items())}
    texts = {"net": network_to_json(net), "code": code_to_json(code), "scales": json.dumps(cli_scales),
             "table": _attempt(lambda: nonlinear_to_json(additive_code(net, 2)))}
    files = {}
    for name, text in texts.items():
        files[name] = str(tmp / f"{name}.json")
        Path(files[name]).write_text(text)
    yield from cli_records(case_commands(net, code, files, tmp), tmp)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lines", action="store_true", help="print each search's label and record")
    ap.add_argument("--outputs", action="store_true", help="also digest the outputs that are not searches")
    args = ap.parse_args(argv)
    start = time.monotonic()
    digest, count = hashlib.sha256(), 0
    for label, thunk in searches():
        line = record(thunk)
        digest.update(line.encode() + b"\n")
        count += 1
        if args.lines:
            print(label, line)
    print(f"{count} searches sha256 {digest.hexdigest()} in {time.monotonic() - start:.1f} s")
    if args.outputs:
        start, rng = time.monotonic(), random.Random(13)
        digest, count = hashlib.sha256(), 0
        with tempfile.TemporaryDirectory() as tmp:
            for label, net, code in output_cases():
                for text in output_records(net, code, rng, Path(tmp)):
                    digest.update(text.encode() + b"\n")
                    count += 1
                    if args.lines:
                        print(label, hashlib.sha256(text.encode()).hexdigest()[:16])
            for text in cli_records(grid_commands(), Path(tmp)):
                digest.update(text.encode() + b"\n")
                count += 1
                if args.lines:
                    print("grid", hashlib.sha256(text.encode()).hexdigest()[:16])
        print(f"{count} outputs sha256 {digest.hexdigest()} in {time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
