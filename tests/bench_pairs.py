"""Alternating parent/change pairs of ``bench/run.py``, written as one ``BENCH_<pr>.json``.

Run it from the repository root:

    python tests/bench_pairs.py --parent HEAD~1 --pr <number> --pairs 10

The parent revision is extracted with ``git archive`` into a temporary
directory, and the working tree's ``src/`` and ``bench/`` are copied next to
it, so both sides start from fresh copies.  For each workload of ``BENCHMARK.json``,
pair i (1, 2, ...) runs

    python3 bench/run.py --workload <workload> --seed <seed + i - 1> --seconds <run_seconds>

once on each side, one run at a time, the change first on odd pairs and the
parent first on even ones, for the ``run_seconds`` of ``BENCHMARK.json``.  A
run whose output is wrong stops the script, and so does a pair whose two
runs report different ``search_ticks``: the change must search the same.

The file holds, per workload and end-to-end metric of ``BENCHMARK.json``, each
side's median, q1, q3 and n, and ``change_better_pairs``, the pairs in which
the change's value is strictly better than the parent's.  The same summary is
made of ``first_pass_cal_s``, each run's first timed pass (``pass_cal_s[0]``
of its info line): ``wall_cal_s`` is a median over passes, so a gain from
state kept across passes, such as what a network keeps from its first search,
shows there but not in the first pass.  Then come ``src_lines`` of both sides,
as ``bench/run.py`` reports them, and ``code_lines``, the lines of
``src/sumnet`` that hold code, with docstrings, comments and blank lines left
out, so that a change to the docs is not read as one to the code; and one
line per run, each holding the distinct ``search_ticks`` of the run's
passes, its ``first_pass_cal_s`` and the result line of ``bench/run.py``.

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHANGE_PARTS = ("src", "bench")  # what bench/run.py reads


def _trees(tmp: Path, parent: str) -> dict[str, Path]:
    """The parent revision from ``git archive`` and a copy of the working tree, under ``tmp``."""
    trees = {"parent": tmp / "parent", "change": tmp / "change"}
    for path in trees.values():
        path.mkdir()
    # Piped, so that this process stays small: a child's peak RSS starts from its parent's.
    archive = subprocess.Popen(["git", "archive", parent], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit(f"git archive {parent} failed")
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".bench_out")
    for part in CHANGE_PARTS:
        shutil.copytree(ROOT / part, trees["change"] / part, ignore=skip)
    return trees


def _code_lines(package: Path) -> int:
    """The lines of the Python files under ``package`` that hold a token of code, docstrings left out."""
    total = 0
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        docs: set[int] = set()
        for node in ast.walk(ast.parse(text)):
            scope = isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            if scope and ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        code: set[int] = set()
        skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in skip:
                code.update(range(tok.start[0], tok.end[0] + 1))
        total += len(code - docs)
    return total


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``bench/run.py`` run: its info line and its result line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _values(run: dict) -> dict:
    """A run's end-to-end metrics and its first pass, by name."""
    return {**{name: m["value"] for name, m in run["r"]["metrics"].items()},
            "first_pass_cal_s": run["first_pass_cal_s"]}


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    out: dict = {}
    for w in dict.fromkeys(r["w"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["w"] == w:
                pairs.setdefault(r["pair"], {})[r["side"]] = _values(r)
        out[w] = {}
        for m in metrics + [{"name": "first_pass_cal_s", "better": "lower"}]:
            name, lower = m["name"], m["better"] == "lower"
            got = [(p["parent"][name], p["change"][name]) for p in pairs.values()
                   if name in p["parent"] and name in p["change"]]
            if not got:
                continue
            better = sum(c < a if lower else c > a for a, c in got)
            out[w][name] = {"better": m["better"], "parent": _stats([a for a, _ in got]),
                            "change": _stats([c for _, c in got]), "change_better_pairs": better}
    return out


def _write(path: Path, head: dict, runs: list[dict]) -> None:
    """``head`` indented, then the runs one per line."""
    text = json.dumps(head, indent=1)[:-2]
    lines = ",\n  ".join(json.dumps(r) for r in runs)
    path.write_text(f'{text},\n "runs": [\n  {lines}\n ]\n}}\n')


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="the git revision the change is measured against")
    ap.add_argument("--pr", required=True, help="the file written is BENCH_<pr>.json in the repository root")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="the seed of pair 1; pair i runs seed + i - 1")
    ap.add_argument("--claim", default="none", help="the gain the change claims, recorded as given")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent = subprocess.run(["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    runs: list[dict] = []
    src_lines: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="sumnet-bench-pairs-") as tmp:
        trees = _trees(Path(tmp), parent)
        for w in (w["name"] for w in bench["workloads"]):
            for pair in range(1, args.pairs + 1):
                seed = args.seed + pair - 1
                for side in ("change", "parent") if pair % 2 else ("parent", "change"):
                    info, result = _run(trees[side], w, seed, seconds)
                    src_lines[side] = info["src_lines"]
                    # bench/run.py lists each pass's ticks; they are the same on every pass.
                    runs.append({"pair": pair, "w": w, "side": side, "seed": seed,
                                 "search_ticks": sorted(set(info["search_ticks"])),
                                 "first_pass_cal_s": info["pass_cal_s"][0], "r": result})
                    print(f"{w} pair {pair} {side}: " + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
                if runs[-1]["search_ticks"] != runs[-2]["search_ticks"]:
                    raise SystemExit(f"{w} seed {seed}: search_ticks {runs[-2]['search_ticks']} "
                                     f"and {runs[-1]['search_ticks']} differ")
        code_lines = {side: _code_lines(tree / "src" / "sumnet") for side, tree in trees.items()}
    head = {
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> --seconds {seconds:g}",
        "tool": "python tests/bench_pairs.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "host": f"{platform.machine()}, Python {platform.python_version()}; one run at a time",
        "claim": args.claim,
        "note": (f"{args.pairs} parent/change pairs per workload on fresh copies of each tree, parent "
                 f"{parent[:7]}; the change runs first on odd pairs. Pair i runs seed {args.seed} + i - 1 on "
                 "both sides, and both report the same search_ticks. Each run line holds the run's search_ticks, "
                 "its first timed pass (first_pass_cal_s) and the result line of bench/run.py."),
        "src_lines": {"parent": src_lines.get("parent"), "change": src_lines.get("change")},
        "code_lines": code_lines,
        "summary": _summary(runs, bench["end_to_end"]),
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    _write(path, head, runs)
    print(f"wrote {path.name}: {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
