"""A standing list of mutants of ``src/sumnet``, each of which a named test must kill.

Run it from the repository root:

    python tests/mutants.py

Each mutant is one textual edit of one source file, whose old text must occur
there exactly once, with the test node ids that must fail under it.  The named
tests of every mutant first run once on an unmutated copy, where they must
pass.  Then, two mutants at a time, each mutant's edit is applied to a fresh
copy of ``src/``, ``tests/`` and ``pyproject.toml`` in a temporary directory,
and only its tests run there, under the ``mutants`` hypothesis profile of
``tests/conftest.py``, which does not shrink a failing example.  A mutant is
killed when one of them fails, or when they run past ``TIMEOUT_S``.  The
script prints one line per mutant and exits 0 when every mutant is killed, 1
otherwise: when a mutant survives, its edit no longer matches, or its tests do
not pass unmutated.

pytest does not collect this file.  A mutant that survives means a test lost
its check: mend the test and keep the mutant.  A change that adds a check adds
its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120
WORKERS = 2


class Mutant(NamedTuple):
    name: str
    file: str  # under src/sumnet
    old: str
    new: str
    tests: tuple[str, ...]


PACKED = "tests/test_solver.py::test_packed_rows_match_list_arithmetic"
TRANSFER = "tests/test_codes.py::test_transfer_matches_path_enumeration"
PLANS = "tests/test_solver.py::test_check_plans_match_the_whole_cone_check"
# cli.main's error guard, after the statement it guards.
GUARD = ("    except (NetworkError, CodeError, ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:\n"
         '        print(f"error: {exc}", file=sys.stderr)\n        return 1\n')

MUTANTS = [
    # The packed row kernel.
    Mutant("bias off by one", "gflin.py", "ones * ((1 << (self.b - 1)) - p)", "ones * ((1 << (self.b - 1)) - p + 1)",
           (PACKED,)),
    Mutant("no mod in the column path", "gflin.py",
           "return s - (((s + self.bias) & self.high) >> (self.b - 1)) * self.p", "return s", (PACKED,)),
    Mutant("unnormalized basis rows", "gflin.py",
           "basis[j] = self.mul(pow(self.entry(r, j), self.p - 2, self.p), r)", "basis[j] = r", (PACKED,)),
    Mutant("b one bit short", "gflin.py", "p, p.bit_length() + 1, cols", "p, p.bit_length(), cols", (PACKED,)),
    Mutant("pivot at the top bit", "gflin.py", "return ((r & -r).bit_length() - 1) // self.b",
           "return (r.bit_length() - 1) // self.b", (PACKED,)),
    Mutant("Montgomery without its final reduction", "gflin.py", "return self.add(out >> self.b, 0)",
           "return out >> self.b", (PACKED,)),
    Mutant("Montgomery takes the even columns twice", "gflin.py", "for half in self.halves:",
           "for half in (self.halves[0],) * 2:", (PACKED,)),
    Mutant("Montgomery with +1/p for -1/p", "gflin.py", "pow(-p, -1, 1 << self.b)", "pow(p, -1, 1 << self.b)",
           (PACKED,)),
    Mutant("Montgomery without c scaled by 2^b", "gflin.py", "c, out = (c << self.b) % self.p, 0",
           "c, out = c % self.p, 0", (PACKED,)),
    Mutant("pack drops the last column", "gflin.py", "compress(range(len(entries)), entries)",
           "compress(range(len(entries) - 1), entries)", (PACKED,)),
    Mutant("unpack skips one column short", "gflin.py", "            j += s\n", "            j += s - 1\n",
           (PACKED, TRANSFER)),
    Mutant("unpack mask one bit short", "gflin.py", "b, m, out, j = self.b, self.mask,",
           "b, m, out, j = self.b, self.mask >> 2,", (PACKED, TRANSFER)),
    Mutant("times passes rows through at c <= 2", "gflin.py", "y = srow if c == 1 else", "y = srow if c <= 2 else",
           (PACKED,)),
    Mutant("the kernel cache keyed by p alone", "gflin.py", "packed_rows = lru_cache(maxsize=256)(PackedRows)",
           "packed_rows = lambda p, cols, _kernels={}: _kernels.setdefault(p, PackedRows(p, cols))",
           ("tests/test_gflin.py::test_packed_rows_keeps_one_kernel_per_field_and_width",)),
    Mutant("MatrixGF without % p", "gflin.py", "tuple([int(x) % p for x in r])", "tuple([int(x) for x in r])",
           ("tests/test_gflin.py::test_entries_reduced_mod_p",)),
    # The linear search.
    Mutant("a bucket never made contextual", "solver.py", "contextual=not local)", "contextual=False)",
           ("tests/test_solver.py::test_staged_matches_naive_on_micro_corpus",
            "tests/test_solver.py::test_determinism")),
    Mutant("blocks one column wider than n pinned", "solver.py", "            if cols > n:\n",
           "            if cols > n + 1:\n", ("tests/test_solver.py::test_staged_matches_naive_on_micro_corpus",)),
    Mutant("the lone source coefficient pinned when n < k", "solver.py", "            if cols > n:\n",
           "            if cols > n and len(us) > 1:\n", ("tests/test_solver.py::test_fractional_modes",)),
    Mutant("the open-prefix rows not loose", "solver.py", "loose += [ins[j] for j in {j for _, j in open_}]", "pass",
           ("tests/test_solver.py::test_relaxed_check_is_sound_under_partial_assignments",)),
    Mutant("an unassigned block's inputs not loose", "solver.py", "                loose += ins\n",
           "                pass\n", ("tests/test_solver.py::test_s4_scalar_gf2_solvable_with_identity_interior",)),
    Mutant("a pinned map without its zero rows", "solver.py", "maps[eid] = ins + [0] * (self.n - len(ins))",
           "maps[eid] = ins", ("tests/test_solver.py::test_fractional_modes",)),
    Mutant("a pinned map one row too long", "solver.py", "maps[eid] = ins + [0] * (self.n - len(ins))",
           "maps[eid] = ins + [0] * (self.n + 1 - len(ins))", ("tests/test_solver.py::test_fractional_modes",)),
    Mutant("the constant in-edge rows left out of a plan's basis", "solver.py",
           "for row in self.const_maps.get(e, ()):", "for row in ():", (PLANS,)),
    Mutant("a plan's walk skips pinned edges with variable inputs", "solver.py",
           "self.plans[t] = ([e for e in cone if e not in self.const_maps]",
           "self.plans[t] = ([e for e in cone if e not in self.pinned]", (PLANS,)),
    Mutant("the no-target shortcut with one reduced target left", "solver.py", "if not targets:",
           "if len(targets) <= 1:", (PLANS,)),
    Mutant("a cone edge dropped from deps", "solver.py", "for eid in cone if eid not in self.pinned}",
           "for eid in sorted(cone)[1:] if eid not in self.pinned}",
           ("tests/test_solver.py::test_setup_pass_states_the_coefficient_table",)),
    Mutant("free RREF entries only at 0", "solver.py", "for vals in product(range(p), repeat=len(free)):",
           "for vals in product(range(1), repeat=len(free)):",
           ("tests/test_solver.py::test_rref_blocks_list_each_row_space_once",)),
    Mutant("the oracle writes a source coefficient one column to the right", "solver.py", "row[o:o + k] = arow",
           "row[o + 1:o + k + 1] = arow", ("tests/test_solver.py::test_staged_matches_naive_on_micro_corpus",)),
    Mutant("the oracle's product skips a relay's last input row", "solver.py", "for c, src in zip(crow, ins):",
           "for c, src in zip(crow[:-1], ins):", ("tests/test_solver.py::test_staged_matches_naive_on_micro_corpus",)),
    Mutant("witness rows as lists", "solver.py", "MatrixGF._reduced(f, rows) for rows in set(values.values())",
           "MatrixGF._reduced(f, [list(r) for r in rows]) for rows in set(values.values())",
           ("tests/test_solver.py::test_witness_matrices_are_read_only_residue_arrays",)),
    # Z_q table codes.
    Mutant("a decoder that never reports a conflict", "solver.py", "want) != want:", "want) != want and False:",
           ("tests/test_solver.py::test_nonlinear_pigeonhole_unsolvable",)),
    Mutant("unseen tuples decoded to 1", "solver.py", "dec.get(i, 0)", "dec.get(i, 1)",
           ("tests/test_solver.py::test_nonlinear_decoder_is_the_first_valid_table",)),
    Mutant("table_arities without its multi-slot check", "codes.py",
           "if any(len(d.slots()) != 1 for d in net.terminals.values()):", "if False:",
           ("tests/test_codes.py::test_validate_nonlinear_rejects_each_bad_table",)),
    Mutant("a length check that accepts long tables", "codes.py", "if len(table) != code.q ** arity:",
           "if len(table) < code.q ** arity:", ("tests/test_codes.py::test_validate_nonlinear_rejects_each_bad_table",)),
    # Linear codes and their verification.
    Mutant("the transfer walk without its decoder branch", "codes.py", "        if v in net.terminals:\n",
           "        if v in net.terminals and False:\n", (TRANSFER,)),
    Mutant("validate_code without its shape check", "codes.py", "if (m.rows, m.cols) != shape:", "if False:",
           ("tests/test_codes.py::test_validate_code_rejects_each_bad_key",)),
    Mutant("validate_code without its field check", "codes.py", "if m.field != code.field:", "if False:",
           ("tests/test_codes.py::test_validate_code_rejects_bad_shapes",)),
    Mutant("the transfer walk without its shape check", "codes.py",
           "if len(m.entries) != rows or len(m.entries[0]) != len(x):", "if False:",
           ("tests/test_codes.py::test_validate_code_rejects_each_bad_key",)),
    Mutant("path_gain from the n x n identity", "codes.py", "code.n if msg is None else code.k", "code.n",
           ("tests/test_codes.py::test_path_gain_order_and_virtuals",)),
    # Code files.
    Mutant("code lines with their fields in declared order", "codes.py", "for x in sorted(names)) + ",
           "for x in names) + ", ("tests/test_codes.py::test_json_writers_match_one_encoder_call_per_item",)),
    Mutant("a shared-matrix hit without its integer check", "codes.py",
           "if m is None or not all([type(x) is int for r in rows for x in r]):", "if m is None:",
           ("tests/test_codes.py::test_code_reader_rejects_malformed_matrices",)),
    Mutant("eval_linear without its per-message length check", "codes.py", "if len(symbols) != k:", "if False:",
           ("tests/test_codes.py::test_eval_needs_k_symbols_per_message",)),
    Mutant("eval_nonlinear without its missing-message check", "codes.py",
           "if missing := [m for m in net.messages() if m not in x]:", "if False:",
           ("tests/test_codes.py::test_eval_rejects_symbols_that_are_not_integers",)),
    # The network model and the CLI.
    Mutant("a flow search without its backward walk", "netmodel.py",
           "if e.tail not in prev and e.id in used:", "if False:",
           ("tests/test_netmodel.py::test_min_cut_cancels_flow_on_a_used_edge",)),
    Mutant("every later node on level 1", "netmodel.py", "level[w] = level[v] + 1", "level[w] = 1",
           ("tests/test_netmodel.py::test_topo_chain_and_isolated",)),
    Mutant("messages in declaration order", "netmodel.py", "tuple(m for v in self._sources for m in sources[v])",
           "tuple(msg_source)", ("tests/test_netmodel.py::test_stored_orders_match_their_derivations",)),
    Mutant("reachable returns only its start", "netmodel.py", "return set(_residual_search(net, start, set()))",
           "return {start}", ("tests/test_netmodel.py::test_connectivity_false_entry",)),
    Mutant("no backslash escape in export-dot", "cli.py", '.replace("\\\\", "\\\\\\\\")', "",
           ("tests/test_cli.py::test_export_dot_escapes_quotes_and_backslashes",)),
    Mutant("verify-nonlinear with the search budget", "cli.py", "default=codes.MAX_INPUTS)",
           "default=SearchOptions.budget)", ("tests/test_cli.py::test_each_subcommand_declares_its_options_and_defaults",)),
    Mutant("main writes outside its guard", "cli.py",
           '        _write(getattr(args, "out", None), args.handler(args))\n' + GUARD,
           "        text = args.handler(args)\n" + GUARD + '    _write(getattr(args, "out", None), text)\n',
           ("tests/test_cli.py::test_unwritable_out_is_an_error_without_traceback",)),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", dest)


def _pytest(tests, mutant: Mutant | None = None) -> str:
    """Run ``tests`` on a fresh copy, with ``mutant`` applied: "pass", "fail", "timeout" or an error."""
    with tempfile.TemporaryDirectory(prefix="sumnet-mutant-") as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        if mutant is not None:
            path = tmp / "src" / "sumnet" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                return f"its old text occurs {text.count(mutant.old)} times in {mutant.file}"
            path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-profile=mutants",
               *tests]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    if proc.returncode in (0, 1):
        return "pass" if proc.returncode == 0 else "fail"
    return f"pytest exit {proc.returncode}: " + ((proc.stdout + proc.stderr).strip().splitlines() or [""])[-1]


def main() -> int:
    start = time.monotonic()
    tests = sorted({t for m in MUTANTS for t in m.tests})
    if (clean := _pytest(tests)) != "pass":
        print(f"the named tests do not pass unmutated: {clean}")
        return 1
    killed = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for m, result in zip(MUTANTS, pool.map(lambda m: _pytest(m.tests, m), MUTANTS)):
            killed += result in ("fail", "timeout")
            mark = "killed" if result in ("fail", "timeout") else "NOT KILLED"
            print(f"{mark}  {m.file}: {m.name}" + ("" if result == "fail" else f" ({result})"), flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed in {time.monotonic() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
