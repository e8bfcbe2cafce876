"""The three benchmark workloads.

Each workload builds its instances once per set-up (``build``), runs one
timed pass over them (``run`` per instance) and then checks every output
against a known answer, outside the timed pass (``check``).  Calls into
sumnet sit inside spans named ``<module>.<function>``, except the set-up calls
that compute the CLI slice's expected outputs.  On the untraced run a span is
one shared do-nothing object.

* ``paper_verdicts``: the paper's exhaustive decisions, about 100 searches.
* ``random_decide``: 400 tiny searches under a 20,000-tick budget.
* ``construct_verify``: constructions and code checks at scale, no search.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from sumnet import (
    FieldSpec,
    LinearCode,
    SearchOptions,
    canonical_reverse_code,
    is_solution,
    search_linear,
    search_nonlinear,
    transfer_matrix,
    verify_nonlinear,
)
from sumnet import cli, gflin
from sumnet.codes import code_from_json, code_to_json
from sumnet.families import FamilySpec, generate, known_code
from sumnet.netmodel import (
    min_cut,
    min_source_terminal_cut,
    network_from_json,
    network_to_json,
    reachable,
    reverse_network,
)
from sumnet.transforms import c1, c2, c3, scale_sources

import inputs

SOLVABLE, UNSOLVABLE = "solvable", "unsolvable"

# paper_verdicts: far above its largest instance (s_m_star(8)/GF(5), 136,717
# ticks), so every search decides.
PAPER_BUDGET = 2_000_000
# random_decide: a fixed pool drawn once from this seed; --seed relabels its
# ids and shuffles its order.  Fresh networks per seed swing the number of
# budget-exceeded searches (the dominant cost) from 14 to 30 per 400.
POOL_SEED = 7
POOL_SIZE = 200
RANDOM_BUDGET = 20_000


class Mismatch(Exception):
    """An output disagrees with its known answer."""


def _verdict(solvable: bool) -> str:
    return SOLVABLE if solvable else UNSOLVABLE


def _rule(family: str, m: int, p: int) -> bool:
    """The paper's answer: s_m is solvable iff p | m - 2, s_m_star iff p does not."""
    divides = (m - 2) % p == 0
    return divides if family == "s_m" else not divides


@dataclass
class Outcome:
    """What one instance did in the timed pass."""

    attempted: int
    ok: int
    ticks: int = 0
    report: object = None
    data: dict = field(default_factory=dict)


# -- shared helpers that wrap each call in its span -------------------------------


def _generate(tr, family: str, m: int):
    with tr.span("families.generate", f"{family}({m})"):
        return generate(FamilySpec(family, m))


def _known_code(tr, family: str, m: int, p: int):
    with tr.span("families.known_code", f"{family}({m})/GF({p})"):
        return known_code(FamilySpec(family, m), FieldSpec(p))


def _transform(tr, op, net, label: str):
    with tr.span(f"transforms.{op.__name__}", label) as sp:
        out, _ = op(net)
        sp.work = len(out.edges)
    return out


def _reverse(tr, net, label: str):
    with tr.span("netmodel.reverse_network", label):
        return reverse_network(net)


def _is_solution(tr, net, code, label: str) -> bool:
    with tr.span("codes.is_solution", label) as sp:
        ok = is_solution(net, code)
        sp.work = len(net.edges)
    return ok


def _reaches_all(tr, net, label: str) -> bool:
    """Ramamoorthy's condition: every source reaches every terminal."""
    for s in net.source_nodes():
        with tr.span("netmodel.reachable", label):
            seen = reachable(net, s)
        if not all(t in seen for t in net.terminal_nodes()):
            return False
    return True


# -- search workloads ------------------------------------------------------------


@dataclass
class Search:
    label: str
    net: object
    p: int  # field size, or q for a nonlinear search
    k: int = 1
    n: int = 1
    nonlinear: bool = False
    expect: Optional[str] = None  # the oracle's verdict, when it gives one
    same_as: Optional[str] = None  # label of a search whose verdict must match


class _SearchWorkload:
    budget: int

    def run(self, s: Search, tr) -> Outcome:
        opts = SearchOptions(budget=self.budget)
        if s.nonlinear:
            with tr.span("solver.search_nonlinear", s.label) as sp:
                r = search_nonlinear(s.net, s.p, opts)
                sp.work = r.enumerated
        else:
            with tr.span("solver.search_linear", s.label) as sp:
                r = search_linear(s.net, FieldSpec(s.p), s.k, s.n, opts)
                sp.work = r.enumerated
                sp.tag = r.mode.split("(")[0]
        decided = r.verdict in (SOLVABLE, UNSOLVABLE)
        return Outcome(1, int(decided), r.enumerated, r)

    def check(self, searches: list[Search], outcomes: list[Outcome], tr) -> list[str]:
        """One line per search whose verdict or witness is wrong."""
        verdicts = {s.label: o.report.verdict for s, o in zip(searches, outcomes)}
        problems = []
        for s, o in zip(searches, outcomes):
            got = o.report.verdict
            other = verdicts.get(s.same_as)
            if got not in (SOLVABLE, UNSOLVABLE):
                continue
            if s.expect is not None and got != s.expect:
                problems.append(f"{s.label}: verdict {got}, oracle says {s.expect}")
            elif other in (SOLVABLE, UNSOLVABLE) and got != other:
                problems.append(f"{s.label}: verdict {got}, but {s.same_as} is {other}")
            elif got == SOLVABLE and not self._reverify(s, o.report.witness, tr):
                problems.append(f"{s.label}: witness fails re-verification")
        return problems

    @staticmethod
    def _reverify(s: Search, witness, tr) -> bool:
        if witness is None:
            return False
        if s.nonlinear:
            with tr.span("codes.verify_nonlinear", s.label):
                return verify_nonlinear(s.net, witness)
        return _is_solution(tr, s.net, witness, s.label)


class PaperVerdicts(_SearchWorkload):
    """The paper's exhaustive decisions; --seed only shuffles their order."""

    name = "paper_verdicts"
    budget = PAPER_BUDGET

    def build(self, seed: int, tr, tmp: Path) -> list[Search]:
        out: list[Search] = []
        nets = {(f, m): _generate(tr, f, m) for f in ("s_m", "s_m_star") for m in range(3, 9)}
        # The closed-form code must exist exactly when the rule says solvable.
        for p, ms in ((2, range(3, 9)), (3, range(3, 9)), (5, range(3, 9)), (7, range(3, 7))):
            for m in ms:
                for family in ("s_m", "s_m_star"):
                    solvable = _rule(family, m, p)
                    if (_known_code(tr, family, m, p) is not None) != solvable:
                        raise Mismatch(f"known_code({family}({m}), GF({p})) disagrees with the rule")
                    out.append(Search(f"{family}({m})/GF({p})", nets[(family, m)], p,
                                      expect=_verdict(solvable)))
        # The k = n = 2 vector clause follows the same rule.
        vector = [("s_m", m, 2) for m in range(3, 7)] + [("s_m_star", m, 2) for m in (4, 5)]
        for family, m, p in vector + [("s_m", 3, 3)]:
            out.append(Search(f"{family}({m})/GF({p}) k=2", nets[(family, m)], p, 2, 2,
                              expect=_verdict(_rule(family, m, p))))
        # The paper's fractional example: the (1, 2) time-sharing code exists,
        # while rate 1 and rate 2 are impossible on c2(bottleneck_mun(3)).
        bn2 = _transform(tr, c2, _generate(tr, "bottleneck_mun", 2), "bottleneck_mun(2)")
        bn3 = _transform(tr, c2, _generate(tr, "bottleneck_mun", 3), "bottleneck_mun(3)")
        out.append(Search("c2(bottleneck_mun(2)) (1,2)", bn2, 2, 1, 2, expect=SOLVABLE))
        out.append(Search("c2(bottleneck_mun(3)) (1,1)", bn3, 2, 1, 1, expect=UNSOLVABLE))
        out.append(Search("c2(bottleneck_mun(3)) (2,1)", bn3, 2, 2, 1, expect=UNSOLVABLE))
        # c1 preserves scalar linear solvability, in both directions of reversal.
        c1_images = {}
        for make, gf2 in inputs.MUN_CORPUS:
            mun = make()
            name = mun.name
            c1_images[name] = img = _transform(tr, c1, mun, name)
            rev_mun = _reverse(tr, mun, name)
            rev_img = _reverse(tr, img, f"c1({name})")
            for p in (2, 3):
                base, rev = f"{name}/GF({p})", f"rev({name})/GF({p})"
                out.append(Search(base, mun, p, expect=gf2 if p == 2 else None))
                out.append(Search(f"c1({name})/GF({p})", img, p, same_as=base))
                out.append(Search(rev, rev_mun, p))
                out.append(Search(f"rev(c1({name}))/GF({p})", rev_img, p, same_as=rev))
        # c3 preserves solvability, and bi22 meets Ramamoorthy's condition.
        bi22 = inputs.bi22()
        bi22_verdict = _verdict(_reaches_all(tr, bi22, "bi22"))
        c3_bi22 = _transform(tr, c3, bi22, "bi22")
        out.append(Search("c3(bi22)/GF(2)", c3_bi22, 2, expect=bi22_verdict))
        # Z_2 table codes: a linear solution is a table code, and no code
        # crosses a missing path.
        for label, net, verdict in (
            ("c1(path1)", c1_images["path1"], SOLVABLE),
            ("c1(disc1)", c1_images["disc1"], UNSOLVABLE),
            ("bi22", bi22, bi22_verdict),
            ("c1(disjoint2)", c1_images["disjoint2"], SOLVABLE),
        ):
            out.append(Search(f"{label} nonlinear q=2", net, 2, nonlinear=True, expect=verdict))
        random.Random(seed).shuffle(out)
        return out


class RandomDecide(_SearchWorkload):
    """Many tiny searches; the oracle is Ramamoorthy's connectivity rule."""

    name = "random_decide"
    budget = RANDOM_BUDGET

    def build(self, seed: int, tr, tmp: Path) -> list[Search]:
        pool_rng = random.Random(POOL_SEED)
        pool = [inputs.random_sum_network(pool_rng, max_nodes=8) for _ in range(POOL_SIZE)]
        rng = random.Random(seed)
        nets = [inputs.relabel(rng, net) for net in pool]
        rng.shuffle(nets)
        out = []
        for i, net in enumerate(nets):
            # With at most two sources (or two terminals), solvable iff every
            # source reaches every terminal, over every field.
            expect = _verdict(_reaches_all(tr, net, f"#{i}"))
            for p in (2, 3):
                out.append(Search(f"#{i} {net.name}/GF({p})", net, p, expect=expect))
        return out


# -- construct_verify ------------------------------------------------------------


# min_source_terminal_cut grows fast: 1.5 s on s_m_star(30) and 13 s on
# c2(bottleneck_mun(40)), so those families stop short of s_m's sizes.
S_M_SIZES = (10, 14, 18, 22, 26, 30)
S_M_STAR_SIZES = (10, 14, 18, 22)
BOTTLENECK_SIZES = (10, 15, 20)
C3_SIZES = (10, 20)
CLI_SIZE = 14


@dataclass
class Bundle:
    """One verification job of construct_verify, with the answers its checks need."""

    kind: str  # "code", "c3" or "cli"
    label: str
    net: object = None
    code: object = None
    base: object = None  # network the construction starts from
    scales: dict = field(default_factory=dict)  # message -> invertible k x k matrix
    files: dict = field(default_factory=dict)  # CLI input and output paths
    want: dict = field(default_factory=dict)  # expected outputs, computed at set-up


class ConstructVerify:
    """Constructions and code checks at scale; the solver stays idle."""

    name = "construct_verify"

    def build(self, seed: int, tr, tmp: Path) -> list[Bundle]:
        rng = random.Random(seed)
        out: list[Bundle] = []
        # Each field is one where the rule gives the family its closed-form code.
        cases = [("s_m", m, 2) for m in S_M_SIZES]
        cases += [("s_m_star", m, 3 if (m - 2) % 3 else 5) for m in S_M_STAR_SIZES]
        for family, m, p in cases:
            net = _generate(tr, family, m)
            code = _known_code(tr, family, m, p)
            out.append(self._code_bundle(rng, f"{family}({m})/GF({p})", net, code))
        for m in BOTTLENECK_SIZES:
            base = _generate(tr, "bottleneck_mun", m)
            code = _known_code(tr, "bottleneck_mun", m, 2)
            net = _transform(tr, c2, base, f"bottleneck_mun({m})")
            out.append(self._code_bundle(rng, f"c2(bottleneck_mun({m}))", net, code, base))
        for m in C3_SIZES:
            base = _generate(tr, "s_m", m)
            net = _transform(tr, c3, base, f"s_m({m})")
            code = inputs.random_code(rng, net, FieldSpec(2), 2)
            b = Bundle("c3", f"c3(s_m({m})) k=2", code=code, base=base)
            b.scales = {msg: inputs.random_invertible(rng, code.field, 2) for msg in net.messages()}
            b.want["net"] = net
            out.append(b)
        out.append(self._cli_bundle(tmp, _generate(tr, "s_m", CLI_SIZE),
                                    _known_code(tr, "s_m", CLI_SIZE, 2)))
        return out

    @staticmethod
    def _code_bundle(rng, label, net, code, base=None) -> Bundle:
        """A known code on ``net``; given ``base``, the pass builds ``net`` as c2(base)."""
        b = Bundle("code", label, net if base is None else None, code, base)
        if base is not None:
            b.want["net"] = net
        msgs = {m for m, _ in code.source_coeff}
        b.scales = {m: inputs.random_invertible(rng, code.field, code.k) for m in sorted(msgs)}
        # A negative control: with its first terminal's decoders zeroed, the
        # code must stop being a solution.
        starved = net.terminal_nodes()[0]
        dec = {key: m for key, m in code.decode_coeff.items() if key[0] != starved}
        b.want["starved"] = LinearCode(code.field, code.k, code.n, code.source_coeff,
                                       code.local_coeff, dec)
        return b

    @staticmethod
    def _cli_bundle(tmp: Path, net, code) -> Bundle:
        files = {name: str(tmp / f"{name}.json") for name in ("net", "code", "c3", "rev")}
        Path(files["net"]).write_text(network_to_json(net))
        Path(files["code"]).write_text(code_to_json(code))
        want = {
            "c3": c3(net)[0],
            "rev": canonical_reverse_code(net, code),
            "mincut": min_cut(net, "s_1", "t_2"),
        }
        return Bundle("cli", f"cli s_m({CLI_SIZE})", net, code, files=files, want=want)

    def run(self, b: Bundle, tr) -> Outcome:
        if b.kind == "cli":
            return self._run_cli(b, tr)
        if b.kind == "c3":
            return self._run_c3(b, tr)
        return self._run_code(b, tr)

    def _run_code(self, b: Bundle, tr) -> Outcome:
        net, code, d = b.net, b.code, {}
        if b.base is not None:
            net = d["net"] = _transform(tr, c2, b.base, b.label)
        d["ok"] = _is_solution(tr, net, code, b.label)
        d["starved_ok"] = _is_solution(tr, net, b.want["starved"], f"starved {b.label}")
        rev = _reverse(tr, net, b.label)
        with tr.span("codes.canonical_reverse_code", b.label):
            rcode = canonical_reverse_code(net, code)
        d["rev_ok"] = _is_solution(tr, rev, rcode, f"rev {b.label}")
        with tr.span("netmodel.min_source_terminal_cut", b.label):
            d["mincut"] = min_source_terminal_cut(net)
        d["restored"] = self._scale_round_trip(b, code, tr)
        with tr.span("netmodel.json_roundtrip", b.label):
            d["net_json"] = network_from_json(network_to_json(net))
        with tr.span("codes.code_json", b.label):
            d["code_json"] = code_from_json(code_to_json(code))
        calls = 10 + len(b.scales) + (b.base is not None)
        return Outcome(calls, calls, data=d)

    @staticmethod
    def _scale_round_trip(b: Bundle, code, tr):
        inverse = {}
        for msg, a in b.scales.items():
            with tr.span("gflin.mat_inv", b.label):
                inverse[msg] = gflin.mat_inv(a)
        with tr.span("transforms.scale_sources", b.label):
            scaled = scale_sources(code, b.scales)
        with tr.span("transforms.scale_sources", b.label):
            return scale_sources(scaled, inverse)

    def _run_c3(self, b: Bundle, tr) -> Outcome:
        d = {}
        net = d["net"] = _transform(tr, c3, b.base, b.label)
        with tr.span("codes.transfer_matrix", b.label) as sp:
            t = d["t"] = transfer_matrix(net, b.code)
            sp.work = len(net.edges)
        rev = _reverse(tr, net, b.label)
        with tr.span("codes.canonical_reverse_code", b.label):
            rcode = canonical_reverse_code(net, b.code)
        with tr.span("codes.transfer_matrix", f"rev {b.label}") as sp:
            rt = d["rt"] = transfer_matrix(rev, rcode)
            sp.work = len(rev.edges)
        for key, m in (("rank", t.matrix), ("rank_rev", rt.matrix)):
            with tr.span("gflin.rank", b.label):
                d[key] = gflin.rank(m)
        d["restored"] = self._scale_round_trip(b, b.code, tr)
        with tr.span("codes.code_json", b.label):
            d["code_json"] = code_from_json(code_to_json(b.code))
        calls = 10 + len(b.scales)
        return Outcome(calls, calls, data=d)

    @staticmethod
    def _run_cli(b: Bundle, tr) -> Outcome:
        f = b.files
        argvs = {
            "transform": ["transform", "--op", "c3", "--net", f["net"], "-o", f["c3"]],
            "verify": ["verify", "--net", f["net"], "--code", f["code"]],
            "reverse_code": ["reverse-code", "--net", f["net"], "--code", f["code"], "-o", f["rev"]],
            "mincut": ["mincut", "--net", f["net"], "--s", "s_1", "--t", "t_2"],
        }
        d = {}
        for name, argv in argvs.items():
            buf = io.StringIO()
            with tr.span(f"cli.{name}", b.label), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            d[name] = (code, buf.getvalue())
        return Outcome(len(argvs), len(argvs), data=d)

    def check(self, bundles: list[Bundle], outcomes: list[Outcome], tr) -> list[str]:
        """One line per bundle with a wrong output."""
        problems = []
        for b, o in zip(bundles, outcomes):
            found = list(self._problems(b, o.data))
            if found:
                problems.append(f"{b.label}: " + "; ".join(found))
        return problems

    @staticmethod
    def _problems(b: Bundle, d: dict):
        if b.kind == "cli":
            if any(code != 0 for code, _ in d.values()):
                yield "a CLI command did not exit 0"
            if network_from_json(Path(b.files["c3"]).read_text()) != b.want["c3"]:
                yield "cli transform --op c3 differs from transforms.c3"
            if not d["verify"][1].startswith("SOLUTION\n"):
                yield "cli verify rejects the known code"
            if code_from_json(Path(b.files["rev"]).read_text()) != b.want["rev"]:
                yield "cli reverse-code differs from canonical_reverse_code"
            if json.loads(d["mincut"][1])["min_cut"] != b.want["mincut"]:
                yield "cli mincut differs from netmodel.min_cut"
            return
        if "net" in b.want and d["net"] != b.want["net"]:
            yield "construction is not deterministic"
        code = b.code
        if d["restored"] != code:
            yield "scaling by A then by A^-1 does not restore the code"
        if d["code_json"] != code:
            yield "code JSON round trip changes the code"
        if b.kind == "c3":
            if d["rt"].matrix != d["t"].matrix.transpose():
                yield "reverse transfer matrix is not the transpose"
            if d["rank"] != d["rank_rev"]:
                yield "transfer matrix and its transpose differ in rank"
            return
        net = d.get("net", b.net)
        if not d["ok"]:
            yield "known code is not a solution"
        if d["starved_ok"]:
            yield "a code that starves a terminal passes is_solution"
        if not d["rev_ok"]:
            yield "canonical reverse code is not a solution of the reverse"
        if code.k > code.n * d["mincut"]:
            yield f"rate {code.k}/{code.n} exceeds the min cut {d['mincut']}"
        if d["net_json"] != net:
            yield "network JSON round trip changes the network"


WORKLOADS = {w.name: w for w in (PaperVerdicts(), RandomDecide(), ConstructVerify())}
