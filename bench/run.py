"""Run one benchmark workload against the sumnet sources of this checkout.

    python3 bench/run.py --workload paper_verdicts --seed 1 --seconds 20 --trace 0

The run times set-up (a fresh-interpreter ``import sumnet`` plus building the
workload's inputs) several times, then repeats timed passes over the inputs
until ``--seconds`` of passes have run, checking every output against its
known answer after each pass.  End-to-end times are calibrated: each stretch
of timed work is rescaled by a fixed pure-Python probe timed just before and
after it, giving seconds on a host where the probe takes ``REF_PROBE_S``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they are
the per-layer ones, and the spans are written to ``.bench_out/``.  The line
before it records the source line count, commit and seed, for information.

Exit codes: 0 for a correct run, 1 when an output is wrong, 2 when the
checkout has no sumnet sources or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

from tracing import NULL_TRACER, Tracer, percentile_ms

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# The probe takes about this long on a 2-vCPU Xeon VM; a calibrated second is
# a second on a host where it takes exactly this long.
REF_PROBE_S = 0.01
SEGMENT_S = 0.5

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import sumnet; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Time ``import sumnet`` in a fresh interpreter, which nothing has warmed."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def _provenance(seed: int) -> dict:
    files = sorted((SRC / "sumnet").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        text = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + text)
        lines += sum(1 for line in text.decode().splitlines() if line.strip())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {"src_lines": lines, "src_sha256": digest.hexdigest(), "commit": commit, "seed": seed}


def _probe() -> float:
    """Time a fixed pure-Python computation, which measures the host's speed now."""
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(40_000):
        d[i % 97] = d.get(i % 89, 0) + i * 3 % 7
    return time.perf_counter() - start


class _Clock:
    """Sums timed work in raw seconds and in calibrated seconds.

    On a shared host the CPU speed drifts by a quarter over tens of seconds,
    so each stretch of about ``SEGMENT_S`` of work is rescaled by the mean of
    the probes taken just before and just after it.  Probes are not counted.
    """

    def __init__(self) -> None:
        self.raw = self.cal = 0.0
        self._segment = 0.0
        self._before = _probe()

    def add(self, seconds: float) -> None:
        self._segment += seconds
        if self._segment >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        if self._segment:
            after = _probe()
            self.raw += self._segment
            self.cal += self._segment * 2 * REF_PROBE_S / (self._before + after)
            self._before, self._segment = after, 0.0


def _timed_pass(wl, instances, tr):
    """Run every instance once; return the pass's clock and outcomes."""
    clock, outcomes = _Clock(), []
    with tr.span("bench.pass"):
        for inst in instances:
            start = time.perf_counter()
            outcomes.append(wl.run(inst, tr))
            clock.add(time.perf_counter() - start)
        clock.flush()
    return clock, outcomes


def _checked(wl, instances, outcomes, tr) -> list[str]:
    with tr.span("bench.check"):
        return wl.check(instances, outcomes, tr)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def _end_to_end(setup: list[float], walls: list[float], ok: list[int], attempted: list[int]) -> dict:
    """Set-up and pass times here are calibrated seconds."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_cal_s": (statistics.median(walls), "s"),
        "ops_per_cal_s": (statistics.median(o / w for o, w in zip(ok, walls)), "1/s"),
        "ok_share": (sum(ok) / sum(attempted), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


_PLAIN_LAYERS = (
    "codes.transfer_matrix", "codes.canonical_reverse_code", "codes.verify_nonlinear",
    "codes.code_json", "netmodel.min_source_terminal_cut", "netmodel.reverse_network",
    "netmodel.json_roundtrip", "netmodel.reachable", "transforms.scale_sources",
    "families.generate", "families.known_code", "gflin.rank", "gflin.mat_inv",
)


def _per_layer(tracer, outcomes, overhead_s: float) -> dict:
    """Per-layer metrics from the set-up, the first traced pass and its checks."""
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0, "durations": [], "tags": {}}
    layers = defaultdict(lambda: empty, tracer.layers())
    out = {}
    lin = layers["solver.search_linear"]
    reports = [o.report for o in outcomes
               if o.report is not None and not o.report.mode.startswith("nonlinear")]
    decided = sum(r.verdict in ("solvable", "unsolvable") for r in reports)
    out.update({
        "solver.search_linear.calls": (lin["calls"], "count"),
        "solver.search_linear.busy_s": (lin["busy_s"], "s"),
        "solver.search_linear.ticks": (lin["work"], "count"),
        "solver.search_linear.ticks_per_s": (_rate(lin["work"], lin["busy_s"]), "1/s"),
        "solver.search_linear.p50_ms": (percentile_ms(lin["durations"], 50), "ms"),
        "solver.search_linear.p90_ms": (percentile_ms(lin["durations"], 90), "ms"),
        "solver.search_linear.budget_exceeded": (len(reports) - decided, "count"),
        "solver.search_linear.decided_share": (_rate(decided, len(reports)), "ratio"),
    })
    for mode in ("scalar", "vector", "fractional"):
        out[f"solver.search_linear.{mode}.busy_s"] = (lin["tags"].get(mode, 0.0), "s")
    nl = layers["solver.search_nonlinear"]
    out.update({
        "solver.search_nonlinear.calls": (nl["calls"], "count"),
        "solver.search_nonlinear.busy_s": (nl["busy_s"], "s"),
        "solver.search_nonlinear.ticks": (nl["work"], "count"),
        "solver.search_nonlinear.ticks_per_s": (_rate(nl["work"], nl["busy_s"]), "1/s"),
    })
    sol = layers["codes.is_solution"]
    out.update({
        "codes.is_solution.calls": (sol["calls"], "count"),
        "codes.is_solution.busy_s": (sol["busy_s"], "s"),
        "codes.is_solution.edges_per_s": (_rate(sol["work"], sol["busy_s"]), "1/s"),
    })
    for name in _PLAIN_LAYERS:
        d = layers[name]
        out[f"{name}.calls"] = (d["calls"], "count")
        out[f"{name}.busy_s"] = (d["busy_s"], "s")
        out[f"{name}.self_s"] = (d["self_s"], "s")
    for op in ("c1", "c2", "c3"):
        d = layers[f"transforms.{op}"]
        out[f"transforms.{op}.busy_s"] = (d["busy_s"], "s")
        out[f"transforms.{op}.edges_built_per_s"] = (_rate(d["work"], d["busy_s"]), "1/s")
    for cmd in ("transform", "verify", "reverse_code", "mincut"):
        out[f"cli.{cmd}.busy_s"] = (layers[f"cli.{cmd}"]["busy_s"], "s")
    for phase in ("setup", "pass", "check"):
        d = layers[f"bench.{phase}"]
        out[f"bench.{phase}.busy_s"] = (d["busy_s"], "s")
        out[f"bench.{phase}.self_s"] = (d["self_s"], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["search_ticks"] = (sum(o.ticks for o in outcomes), "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sumnet" / "__init__.py").is_file():
        print(f"error: no sumnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Mismatch

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    setups, passes, traced, ok, attempted, ticks, problems = [], [], [], [], [], [], []
    first_outcomes = None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        try:
            # The last set-up is the one traced, and its inputs are the ones run.
            for i in range(SETUP_REPEATS):
                tr = tracer if tracer and i == SETUP_REPEATS - 1 else NULL_TRACER
                clock = _Clock()
                clock.add(_import_seconds())
                with tr.span("bench.setup"):
                    start = time.perf_counter()
                    instances = wl.build(args.seed, tr, Path(tmp))
                    clock.add(time.perf_counter() - start)
                clock.flush()
                setups.append(clock)
        except Mismatch as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # Untraced passes give the end-to-end metrics; on a traced run they
        # alternate with traced passes, and the difference is the overhead.
        while not passes or sum(c.raw for c in passes + traced) < args.seconds:
            clock, outcomes = _timed_pass(wl, instances, NULL_TRACER)
            problems += _checked(wl, instances, outcomes, NULL_TRACER)
            passes.append(clock)
            ok.append(sum(o.ok for o in outcomes))
            attempted.append(sum(o.attempted for o in outcomes))
            ticks.append(sum(o.ticks for o in outcomes))
            if tracer:
                tr = tracer if first_outcomes is None else Tracer()
                clock, outcomes = _timed_pass(wl, instances, tr)
                problems += _checked(wl, instances, outcomes, tr)
                traced.append(clock)
                if first_outcomes is None:
                    first_outcomes = outcomes

    info = _provenance(args.seed)
    # search_ticks is the same on every pass, and 0 on construct_verify, so it
    # is recorded here and as a per-layer metric rather than end to end.
    info.update(
        workload=wl.name, trace=args.trace, passes=len(passes), search_ticks=ticks,
        pass_raw_s=[c.raw for c in passes], pass_cal_s=[c.cal for c in passes],
        traced_pass_raw_s=[c.raw for c in traced], traced_pass_cal_s=[c.cal for c in traced],
        setup_raw_s=[c.raw for c in setups], setup_cal_s=[c.cal for c in setups],
    )
    if tracer:
        path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
        tracer.write(path)
        info["spans"] = str(path.relative_to(ROOT))
        overhead = statistics.median(c.cal for c in traced) - statistics.median(c.cal for c in passes)
        metrics = _per_layer(tracer, first_outcomes, overhead)
    else:
        metrics = _end_to_end([c.cal for c in setups], [c.cal for c in passes], ok, attempted)
    for line in problems:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(attempted),
        "failed": len(problems),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
