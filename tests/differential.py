"""Differential of the exhaustive searches: one digest of every verdict, count and witness.

Run it from the repository root, before and after a change that must not move
any search result, and compare the two digests:

    python tests/differential.py            # search count and sha256
    python tests/differential.py --lines    # one line per search, then the digest

The searches: the 200 seed-7 ``random_sum_network(rng, max_nodes=8)`` networks,
``s_m(3..6)``, ``s_m_star(3..7)``, ``component()``, ``two_message_source()``,
``c3(sum_bipartite22())``, ``c1(mun_crossed())``, ``c1(mun_disjoint2())`` and
``c2(bottleneck_mun(2))``.  Each runs ``search_linear`` over GF(2) and GF(3)
at (k, n) = (1, 1), (2, 1), (1, 2) and (2, 2), and ``search_nonlinear`` over
Z_2 and Z_3, all at budget 3,000.  A search is recorded as its
``SearchReport.to_dict()`` without ``elapsed_s``, or as the error it raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from sumnet import FieldSpec, SearchOptions, c1, c2, c3, search_linear, search_nonlinear  # noqa: E402
from sumnet.families import bottleneck_mun, component, s_m, s_m_star  # noqa: E402

from helpers import (  # noqa: E402
    mun_crossed, mun_disjoint2, random_sum_network, sum_bipartite22, two_message_source,
)

RATES = ((1, 1), (2, 1), (1, 2), (2, 2))
BUDGET = 3_000


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lines", action="store_true", help="print each search's label and record")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
