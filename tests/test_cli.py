import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sumnet import FieldSpec, SearchOptions, known_code, s_m
from sumnet.cli import _build_parser, export_dot, main
from sumnet.codes import MAX_INPUTS, code_from_json, code_to_json, nonlinear_to_json, additive_code, linear_code
from sumnet.families import FamilySpec
from sumnet.netmodel import Demand, Edge, Network, network_from_json, network_to_json
from sumnet.solver import search_linear, search_nonlinear


def run_cli(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_family_emits_valid_network(tmp_path, capsys):
    out = tmp_path / "net.json"
    rc, _ = run_cli(capsys, "family", "--name", "s_m", "--m", "4", "-o", str(out))
    assert rc == 0
    net = network_from_json(out.read_text())
    assert len(net.nodes) == 14


def test_family_roundtrip_byte_identical(tmp_path, capsys):
    out = tmp_path / "net.json"
    run_cli(capsys, "family", "--name", "s_m_star", "--m", "4", "-o", str(out))
    blob = out.read_text()
    assert network_to_json(network_from_json(blob)) == blob


def test_search_cli_matches_library(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    run_cli(capsys, "family", "--name", "s_m", "--m", "4", "-o", str(net_file))
    rc, out = run_cli(capsys, "search", "--net", str(net_file), "--field", "2", "--k", "1", "--n", "1")
    assert rc == 0
    report = json.loads(out)
    assert report["verdict"] == "solvable"
    lib = search_linear(s_m(4), FieldSpec(2), 1, 1)
    assert report["enumerated"] == lib.enumerated
    assert report["witness"]["local_coeff"]  # witness embedded
    rc, out = run_cli(capsys, "search", "--net", str(net_file), "--field", "2", "--no-reduce")
    assert rc == 0
    unreduced = json.loads(out)
    assert unreduced["verdict"] == report["verdict"]
    lib = search_linear(s_m(4), FieldSpec(2), 1, 1, SearchOptions(reduce=False))
    assert unreduced["enumerated"] == lib.enumerated


def test_verify_cli_known_code(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    code_file = tmp_path / "code.json"
    run_cli(capsys, "family", "--name", "s_m", "--m", "4", "-o", str(net_file))
    rc, _ = run_cli(capsys, "known-code", "--family", "s_m", "--m", "4", "--field", "2",
                    "-o", str(code_file))
    assert rc == 0
    rc, out = run_cli(capsys, "verify", "--net", str(net_file), "--code", str(code_file))
    assert rc == 0
    assert out.startswith("SOLUTION")
    assert '"matrix"' in out


def test_verify_cli_non_solution(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    code_file = tmp_path / "code.json"
    run_cli(capsys, "family", "--name", "s_m", "--m", "4", "-o", str(net_file))
    code = known_code(FamilySpec("s_m", 4), FieldSpec(2))
    # over GF(3) the identity pattern stops working; rebuild the same shape there
    from sumnet.codes import identity_code

    code_file.write_text(code_to_json(identity_code(s_m(4), FieldSpec(3))))
    rc, out = run_cli(capsys, "verify", "--net", str(net_file), "--code", str(code_file))
    assert rc == 0
    assert out.startswith("NOT A SOLUTION")


def test_known_code_absent_emits_null(capsys):
    rc, out = run_cli(capsys, "known-code", "--family", "s_m", "--m", "4", "--field", "3")
    assert rc == 0
    assert out.strip() == "null"


def test_classify_cli(capsys):
    rc, out = run_cli(capsys, "classify", "--family", "s_m", "--m", "5", "--k", "1",
                      "--primes", "2,3,5")
    assert rc == 0
    report = json.loads(out)
    assert report["verdicts"] == {"2": "unsolvable", "3": "solvable", "5": "unsolvable"}


def test_transform_with_trace_sidecar(tmp_path, capsys):
    net_file = tmp_path / "mun.json"
    out_file = tmp_path / "sum.json"
    trace_file = tmp_path / "trace.json"
    run_cli(capsys, "family", "--name", "bottleneck_mun", "--m", "2", "-o", str(net_file))
    rc, _ = run_cli(capsys, "transform", "--op", "c1", "--net", str(net_file),
                    "-o", str(out_file), "--trace-out", str(trace_file))
    assert rc == 0
    net = network_from_json(out_file.read_text())
    assert len(net.terminals) == 4
    roles = json.loads(trace_file.read_text())
    assert roles["u_1"] == "mix relay i=1"


def test_reverse_code_and_transfer_cli(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    code_file = tmp_path / "code.json"
    rev_net_file = tmp_path / "rev.json"
    rev_code_file = tmp_path / "rev_code.json"
    run_cli(capsys, "family", "--name", "s_m", "--m", "4", "-o", str(net_file))
    run_cli(capsys, "known-code", "--family", "s_m", "--m", "4", "--field", "2", "-o", str(code_file))
    run_cli(capsys, "transform", "--op", "reverse", "--net", str(net_file), "-o", str(rev_net_file))
    rc, _ = run_cli(capsys, "reverse-code", "--net", str(net_file), "--code", str(code_file),
                    "-o", str(rev_code_file))
    assert rc == 0
    rc, out = run_cli(capsys, "verify", "--net", str(rev_net_file), "--code", str(rev_code_file))
    assert out.startswith("SOLUTION")
    rc, out = run_cli(capsys, "transfer", "--net", str(net_file), "--code", str(code_file))
    t = json.loads(out)
    assert t["matrix"] == [[1, 1, 1, 1]] * 4


def test_scale_sources_cli(tmp_path, capsys):
    code_file = tmp_path / "code.json"
    scales_file = tmp_path / "scales.json"
    out_file = tmp_path / "scaled.json"
    run_cli(capsys, "known-code", "--family", "s_m_star", "--m", "4", "--field", "3",
            "-o", str(code_file))
    scales_file.write_text(json.dumps({"x1": 2}))
    rc, _ = run_cli(capsys, "scale-sources", "--code", str(code_file),
                    "--scales", str(scales_file), "-o", str(out_file))
    assert rc == 0
    scaled = code_from_json(out_file.read_text())
    assert scaled.source_coeff[("x1", "s_1>t_1")].tolists() == [[2]]


def test_mincut_and_connectivity_cli(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    run_cli(capsys, "family", "--name", "bottleneck_mun", "--m", "3", "-o", str(net_file))
    rc, out = run_cli(capsys, "mincut", "--net", str(net_file), "--s", "w_1", "--t", "z_2")
    assert rc == 0
    assert json.loads(out)["min_cut"] == 1
    rc, out = run_cli(capsys, "connectivity", "--net", str(net_file))
    mat = json.loads(out)
    assert all(all(row) for row in mat["matrix"])


def test_mincut_cli_names_an_undeclared_node(tmp_path, capsys):
    # The message has the form build_network uses for an undeclared node.
    net_file = tmp_path / "net.json"
    run_cli(capsys, "family", "--name", "bottleneck_mun", "--m", "2", "-o", str(net_file))
    for flag, other in (("--s", ("--t", "z_1")), ("--t", ("--s", "w_1"))):
        rc = main(["mincut", "--net", str(net_file), flag, "nope", *other])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: node 'nope' not declared\n"


def test_export_dot_deterministic_with_roles(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    trace_file = tmp_path / "trace.json"
    run_cli(capsys, "family", "--name", "bottleneck_mun", "--m", "2", "-o", str(net_file))
    run_cli(capsys, "transform", "--op", "c1", "--net", str(net_file),
            "-o", str(net_file), "--trace-out", str(trace_file))
    rc, a = run_cli(capsys, "export-dot", "--net", str(net_file), "--trace", str(trace_file))
    rc, b = run_cli(capsys, "export-dot", "--net", str(net_file), "--trace", str(trace_file))
    assert a == b
    assert '"s_1" [shape=box' in a
    assert "mix relay i=1" in a
    assert a.strip().endswith("}")


def test_export_dot_single_edge(capsys, tmp_path):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps({
        "name": "tiny",
        "nodes": ["s", "t"],
        "edges": [{"id": "e", "tail": "s", "head": "t"}],
        "sources": {"s": ["x"]},
        "terminals": {"t": {"kind": "sum"}},
    }))
    rc, out = run_cli(capsys, "export-dot", "--net", str(net_file))
    assert rc == 0
    assert out.count("->") == 1


def test_verify_nonlinear_cli(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    code_file = tmp_path / "code.json"
    run_cli(capsys, "family", "--name", "s_m", "--m", "4", "-o", str(net_file))
    code_file.write_text(nonlinear_to_json(additive_code(s_m(4), 2)))
    rc, out = run_cli(capsys, "verify-nonlinear", "--net", str(net_file), "--code", str(code_file))
    assert rc == 0
    assert out.startswith("SOLUTION")


def test_search_nonlinear_cli(tmp_path, capsys, monkeypatch):
    net_file = tmp_path / "net.json"
    run_cli(capsys, "family", "--name", "bottleneck_mun", "--m", "2", "-o", str(net_file))
    rc, out = run_cli(capsys, "search-nonlinear", "--net", str(net_file), "--q", "2")
    assert rc == 0
    assert json.loads(out)["verdict"] == "unsolvable"
    # A solvable network read from standard input: the printed witness is a table code that verifies.
    monkeypatch.setattr(sys, "stdin", io.StringIO(network_to_json(s_m(4))))
    rc, out = run_cli(capsys, "search-nonlinear", "--net", "-", "--q", "2")
    report = json.loads(out)
    assert rc == 0 and report["verdict"] == "solvable" and report["witness"]["kind"] == "nonlinear"
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(report["witness"]))
    network_file = tmp_path / "s4.json"
    network_file.write_text(network_to_json(s_m(4)))
    rc, out = run_cli(capsys, "verify-nonlinear", "--net", str(network_file), "--code", str(code_file))
    assert (rc, out) == (0, "SOLUTION\n")


def test_search_nonlinear_cli_on_wide_tables(tmp_path, capsys):
    # s_m_star(12)'s relays read 10 symbols: tables of 1,024 entries.
    net_file = tmp_path / "net.json"
    run_cli(capsys, "family", "--name", "s_m_star", "--m", "12", "-o", str(net_file))
    rc, out = run_cli(capsys, "search-nonlinear", "--net", str(net_file), "--q", "2", "--budget", "2000")
    assert rc == 0
    assert json.loads(out)["verdict"] == "budget_exceeded"


def test_search_decides_networks_without_terminals_or_sources(tmp_path, capsys):
    # No terminal demands anything, and with no source the sum is 0, so the
    # empty code solves each network.
    nets = [
        Network("empty", ("a",), (), {}, {}),
        Network("no_terminal", ("s", "a"), (Edge("e", "s", "a"),), {"s": ("x",)}, {}),
        Network("no_source", ("a", "t"), (Edge("e", "a", "t"),), {}, {"t": Demand("sum")}),
    ]
    for net in nets:
        net_file = tmp_path / f"{net.name}.json"
        net_file.write_text(network_to_json(net))
        assert search_nonlinear(net, 2).verdict == "solvable", net.name
        for k, n in ((1, 1), (2, 1), (1, 2)):
            assert search_linear(net, FieldSpec(2), k, n).verdict == "solvable", (net.name, k, n)
            rc, out = run_cli(capsys, "search", "--net", str(net_file), "--field", "2", "--k", str(k), "--n", str(n))
            assert rc == 0, (net.name, k, n)
            assert json.loads(out)["verdict"] == "solvable"


def test_transfer_and_verify_on_an_empty_transfer_matrix(tmp_path, capsys):
    # No terminal and no message: the transfer matrix has no rows and no
    # columns, and the empty code solves the network.
    net_file, code_file = tmp_path / "net.json", tmp_path / "code.json"
    net_file.write_text(network_to_json(Network("empty", ("a",), (), {}, {})))
    code_file.write_text(code_to_json(linear_code(FieldSpec(2), 1, 1, {})))
    want = {"k": 1, "rows": [], "cols": [], "matrix": []}
    rc, out = run_cli(capsys, "transfer", "--net", str(net_file), "--code", str(code_file))
    assert rc == 0
    assert json.loads(out) == want
    rc, out = run_cli(capsys, "verify", "--net", str(net_file), "--code", str(code_file))
    assert rc == 0
    head, body = out.split("\n", 1)
    assert head == "SOLUTION"
    assert json.loads(body) == want


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["family", "--name", "not-a-family"])
    assert exc.value.code == 2


def test_domain_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "cycle",
        "nodes": ["a", "b"],
        "edges": [{"id": "e1", "tail": "a", "head": "b"},
                  {"id": "e2", "tail": "b", "head": "a"}],
        "sources": {},
        "terminals": {},
    }))
    rc = main(["mincut", "--net", str(bad), "--s", "a", "--t", "b"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_exit_1(tmp_path, capsys):
    edge = {"id": "a>t", "tail": "a", "head": "t"}
    net = {"name": "n", "nodes": ["a", "t"], "edges": [edge],
           "sources": {"a": ["x"]}, "terminals": {"t": {"kind": "sum"}}}
    headless = dict(net, edges=[{"id": "a>t", "tail": "a"}])
    string_messages = dict(net, sources={"a": "xy"})
    list_node = dict(net, nodes=[["a"], "t"])
    code = {"field": 2, "k": 1, "n": 1,
            "source_coeff": [{"msg": "x", "edge": "a>t", "mat": [[1]]}],
            "decode_coeff": [{"terminal": "t", "edge": "a>t", "slot": 0, "mat": [[1]]}]}

    def with_mat(mat):
        return dict(code, source_coeff=[{"msg": "x", "edge": "a>t", "mat": mat}])

    def with_entry(value):
        return with_mat([[value]])

    bad_mats = {
        "ragged_mat": with_mat([[1], [1, 0]]),
        "no_rows": with_mat([]),
        "empty_row": with_mat([[]]),
        "nested_entry": with_mat([[[1]]]),
        "bool_entry": with_entry(True),
        "float_entry": with_entry(1.5),
    }
    bad_codes = {
        "fieldless": {"k": 1, "n": 1},
        "string_k": dict(code, k="1"),
        "bool_k": dict(code, k=True),
        "null_entry": with_entry(None),
        # Loads, and fails validation by the coefficient's key.
        "wrong_shape": with_mat([[1, 0], [0, 1]]),
        **bad_mats,
    }
    # The code's only source message is x.
    bad_scales = {
        "null_scale": {"x": None},
        "list_scales": [1],
        "float_scale": {"x": [[1.5]]},
        "bool_scale": {"x": True},
        "unknown_message": {"nope": 1},
    }
    # Codes scale-sources refuses under any scales: k = 0, and a 2 x 1 source coefficient at k = n = 1.
    bad_scaled = {"k_zero": dict(code, k=0), "tall_source": with_mat([[1], [1]])}
    good_scales = {"no_scales": {}, "unit_scale": {"x": 1}}
    bad_traces = {"list_trace": ["a"], "int_role": {"a": 1}}
    table_code = {"q": 2, "edge_fn": [{"edge": "a>t", "table": [0, 1]}],
                  "decode_fn": [{"terminal": "t", "table": [0, 1]}]}

    def with_table(table):
        return dict(table_code, edge_fn=[{"edge": "a>t", "table": table}])

    # Each table code with the message it exits with.
    bad_tables = {
        "list_table_code": ([table_code], "table code must be a JSON object"),
        "qless": ({"edge_fn": []}, "table code has no 'q'"),
        "string_q": (dict(table_code, q="2"), "q must be an integer"),
        "bool_q": (dict(table_code, q=True), "q must be an integer"),
        "dict_edge_fn": (dict(table_code, edge_fn={}), "edge_fn must be a JSON list"),
        "tableless": (dict(table_code, edge_fn=[{"edge": "a>t"}]), "edge_fn entry has no 'table'"),
        "int_edge": (dict(table_code, edge_fn=[{"edge": 1, "table": [0, 1]}]),
                     "edge_fn entry edge must be a string"),
        "bool_table_entry": (with_table([True, 1]), "edge_fn table entries must be integers"),
        "float_table_entry": (with_table([0.5, 1]), "edge_fn table entries must be integers"),
        "string_table": (with_table("01"), "edge_fn table must be a JSON list"),
        "list_entry": (dict(table_code, edge_fn=[["a>t", [0, 1]]]), "edge_fn entry must be a JSON object"),
        "short_table": (with_table([0]), "table for edge 'a>t' is not total"),
    }
    files = {}
    for name, blob in [("net", net), ("code", code), ("headless", headless),
                       ("string_messages", string_messages), ("list_node", list_node),
                       ("table_code", table_code), *bad_codes.items(), *bad_scales.items(),
                       *bad_scaled.items(), *good_scales.items(),
                       *bad_traces.items(), *((name, blob) for name, (blob, _) in bad_tables.items())]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(blob))
    for argv in (
        ["connectivity", "--net", str(files["headless"])],
        ["connectivity", "--net", str(files["string_messages"])],
        ["connectivity", "--net", str(files["list_node"])],
        *(["verify", "--net", str(files["net"]), "--code", str(files[name])] for name in bad_codes),
        *(["scale-sources", "--code", str(files["code"]), "--scales", str(files[name])]
          for name in bad_scales),
        *(["scale-sources", "--code", str(files[name]), "--scales", str(files[scales])]
          for name in bad_scaled for scales in good_scales),
        *(["export-dot", "--net", str(files["net"]), "--trace", str(files[name])]
          for name in bad_traces),
        *(["verify-nonlinear", "--net", str(files["net"]), "--code", str(files[name])]
          for name in bad_tables),
    ):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1, argv
        assert "error:" in captured.err
        assert "Traceback" not in captured.out + captured.err
        name = Path(argv[-1]).stem
        if name in bad_mats:
            assert "source_coeff mat" in captured.err, name
        if name == "wrong_shape":
            assert "('x', 'a>t')" in captured.err
        if name in bad_tables:
            assert captured.err == f"error: {bad_tables[name][1]}\n", name
    assert main(["verify-nonlinear", "--net", str(files["net"]), "--code", str(files["table_code"])]) == 0
    assert capsys.readouterr().out == "SOLUTION\n"
    # An entry beyond int64 loads, reduced mod p: 10**30 is even, so the
    # source coefficient is 0 and the code is no solution.
    files["huge"] = tmp_path / "huge.json"
    files["huge"].write_text(json.dumps(with_entry(10**30)))
    assert main(["verify", "--net", str(files["net"]), "--code", str(files["huge"])]) == 0
    assert capsys.readouterr().out.startswith("NOT A SOLUTION\n")


def test_removed_search_flags_are_usage_errors(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    run_cli(capsys, "family", "--name", "s_m", "--m", "3", "-o", str(net_file))
    for flag in ("--parallel", "--normalize-sources", "--no-collapse"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--net", str(net_file), "--field", "2", flag])
        assert exc.value.code == 2


def test_each_subcommand_declares_its_options_and_defaults(capsys):
    budget, out = SearchOptions.budget, {"out": None}
    # Per subcommand, its required options as flag-value pairs, then every parsed field but the handler.
    cases = {
        "family": (["--name", "s_m"], {"name": "s_m", "m": 0, **out}),
        "known-code": (["--family", "s_m", "--field", "2"], {"family": "s_m", "m": 0, "field": 2, **out}),
        "transform": (["--op", "c1", "--net", "n"], {"op": "c1", "net": "n", "trace_out": None, **out}),
        "search": (["--net", "n", "--field", "2"],
                   {"net": "n", "field": 2, "k": 1, "n": 1, "budget": budget, "no_reduce": False, **out}),
        "search-nonlinear": (["--net", "n", "--q", "2"], {"net": "n", "q": 2, "budget": budget, **out}),
        "classify": (["--family", "s_m", "--m", "4"],
                     {"family": "s_m", "m": 4, "k": 1, "primes": "2,3,5", "budget": budget, **out}),
        "verify": (["--net", "n", "--code", "c"], {"net": "n", "code": "c"}),
        "verify-nonlinear": (["--net", "n", "--code", "c"], {"net": "n", "code": "c", "budget": MAX_INPUTS}),
        "reverse-code": (["--net", "n", "--code", "c"], {"net": "n", "code": "c", **out}),
        "transfer": (["--net", "n", "--code", "c"], {"net": "n", "code": "c", **out}),
        "scale-sources": (["--code", "c", "--scales", "s"], {"code": "c", "scales": "s", **out}),
        "mincut": (["--net", "n", "--s", "a", "--t", "b"], {"net": "n", "s": "a", "t": "b"}),
        "connectivity": (["--net", "n"], {"net": "n"}),
        "export-dot": (["--net", "n"], {"net": "n", "trace": None, **out}),
    }
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(cases)
    for cmd, (required, fields) in cases.items():
        args = vars(parser.parse_args([cmd, *required]))
        args.pop("handler", None)
        assert args == {"cmd": cmd, **fields}, cmd
        for flag in ("-o", "--out") if "out" in fields else ():
            assert parser.parse_args([cmd, *required, flag, "f"]).out == "f", cmd
        for i in range(0, len(required), 2):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([cmd, *required[:i], *required[i + 2:]])
            assert exc.value.code == 2, (cmd, required[i])
    search = ["search", "--net", "n", "--field", "2"]
    assert parser.parse_args([*search, "--no-reduce"]).no_reduce is True
    with pytest.raises(SystemExit):
        parser.parse_args([*search, "--reduce"])
    capsys.readouterr()


def test_console_entry_point_runs():
    # pytest's pythonpath setting does not reach a child interpreter.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "sumnet.cli", "family", "--name", "s_m", "--m", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert '"s_1"' in proc.stdout


def test_importing_sumnet_does_not_load_numpy():
    # numpy is a test dependency only; a fresh interpreter shows what the package itself loads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import sumnet, sumnet.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True)
    modules = proc.stdout.split()
    assert "sumnet.codes" in modules and "numpy" not in modules


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps({
        "name": 'say "hi"',
        "nodes": ['s"1', "t\\2"],
        "edges": [{"id": 'e"', "tail": 's"1', "head": "t\\2"}],
        "sources": {'s"1': ['x"']},
        "terminals": {"t\\2": {"kind": "sum"}},
    }))
    rc, out = run_cli(capsys, "export-dot", "--net", str(net_file))
    assert rc == 0
    assert out.splitlines() == [
        'digraph "say \\"hi\\"" {',
        "  rankdir=LR;",
        '  "s\\"1" [shape=box, style=filled, fillcolor=lightblue, label="s\\"1\\nx\\""];',
        '  "t\\\\2" [shape=doubleoctagon, style=filled, fillcolor=lightyellow, label="t\\\\2\\nsum"];',
        '  "s\\"1" -> "t\\\\2" [label="e\\""];',
        "}",
    ]


def test_export_dot_library_matches_cli(tmp_path, capsys):
    net = s_m(3)
    direct = export_dot(net)
    net_file = tmp_path / "net.json"
    run_cli(capsys, "family", "--name", "s_m", "--m", "3", "-o", str(net_file))
    rc, out = run_cli(capsys, "export-dot", "--net", str(net_file))
    assert out == direct


# -- fuzz: generated JSON through the CLI ------------------------------------

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-2, 3) | st.text("abv0>", max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("abv0", max_size=2), inner, max_size=2),
    max_leaves=5,
)


@st.composite
def _broken(draw, fields: dict) -> dict:
    """``fields``, or one time in four, with one of them replaced by any JSON value."""
    if draw(st.integers(0, 3)) < 3:
        return fields
    return {**fields, draw(st.sampled_from(list(fields))): draw(_JUNK)}


@st.composite
def _net_json(draw):
    """A small layered network description, at most one of its parts broken."""
    nodes = [f"v{i}" for i in range(draw(st.integers(2, 5)))]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = [draw(_broken({"id": f"e{i}", "tail": a, "head": b}))
             for i, (a, b) in enumerate(draw(st.lists(st.sampled_from(pairs), max_size=6)))]
    demand = draw(st.sampled_from([{"kind": "sum"}, {"kind": "recover", "messages": ["m0"]},
                                   {"kind": "sum", "slots": ["m0", "m1"]}]))
    return draw(_broken({
        "name": "fuzz",
        "nodes": nodes,
        "edges": edges,
        "sources": {v: [f"m{i}"] for i, v in enumerate(nodes[:draw(st.integers(1, 2))])},
        "terminals": {nodes[-1]: draw(_broken(demand))},
    }))


@st.composite
def _code_json(draw):
    """A (k, n) code whose keys may or may not fit the network, at most one part broken."""
    k, n = (draw(st.sampled_from([1, 2, 0])) for _ in "kn")
    edge, node = st.sampled_from(["e0", "e1", "e2"]), st.sampled_from(["v1", "v2", "v4"])

    def entries(keys: dict, rows: int, cols: int):
        mat = st.lists(st.lists(st.integers(0, 2), min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        return st.lists(st.fixed_dictionaries({**keys, "mat": mat}), max_size=1)

    return draw(_broken({
        "field": draw(st.sampled_from([2, 3, 4, 1])),
        "k": k,
        "n": n,
        "source_coeff": draw(entries({"msg": st.sampled_from(["m0", "m1"]), "edge": edge}, n, k)),
        "local_coeff": draw(entries({"in": edge, "out": edge}, n, n)),
        "decode_coeff": draw(entries({"terminal": node, "edge": edge, "slot": st.integers(0, 1)}, k, n)),
    }))


def test_cli_fuzz_exits_cleanly(tmp_path):
    # ROADMAP 5: whatever JSON it is given, the CLI exits 0, 1 or 2 and never
    # prints a traceback.  An uncaught exception fails the test here.
    net_file, code_file = tmp_path / "net.json", tmp_path / "code.json"
    node = st.sampled_from(["v0", "v1", "v2", "v4"])

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(net=_net_json(), code=_code_json(), s=node, t=node,
           field=st.sampled_from(["2", "3", "4"]), k=st.sampled_from(["0", "1", "2"]))
    def run(net, code, s, t, field, k):
        net_file.write_text(json.dumps(net))
        code_file.write_text(json.dumps(code))
        for argv in (
            ["connectivity", "--net", str(net_file)],
            ["mincut", "--net", str(net_file), "--s", s, "--t", t],
            ["verify", "--net", str(net_file), "--code", str(code_file)],
            ["search", "--net", str(net_file), "--field", field, "--k", k, "--budget", "1000"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
            assert rc in (0, 1, 2), argv
            assert "Traceback" not in out.getvalue() + err.getvalue()

    run()


def _out_commands(tmp_path) -> dict[str, list[str]]:
    """Per subcommand that takes -o, an argv that succeeds, on s_m(4) and its known GF(2) code."""
    texts = {"net": network_to_json(s_m(4)), "code": code_to_json(known_code(FamilySpec("s_m", 4), FieldSpec(2))),
             "scales": json.dumps({"x1": 1, "x3": [[1]]})}
    f = {}
    for name, text in texts.items():
        f[name] = str(tmp_path / f"{name}.json")
        Path(f[name]).write_text(text)
    bound = ["--net", f["net"], "--code", f["code"]]
    commands = {
        "family": ["--name", "s_m", "--m", "4"],
        "known-code": ["--family", "s_m", "--m", "4", "--field", "2"],
        "transform": ["--op", "c3", "--net", f["net"]],
        "search": ["--net", f["net"], "--field", "2"],
        "search-nonlinear": ["--net", f["net"], "--q", "2", "--budget", "20"],
        "classify": ["--family", "s_m", "--m", "4", "--primes", "2"],
        "reverse-code": bound,
        "transfer": bound,
        "scale-sources": ["--code", f["code"], "--scales", f["scales"]],
        "export-dot": ["--net", f["net"]],
    }
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands) == {cmd for cmd, p in sub.choices.items() if any(a.dest == "out" for a in p._actions)}
    return {cmd: [cmd, *argv] for cmd, argv in commands.items()}


def test_out_file_gets_the_bytes_stdout_gets(tmp_path, capsys):
    # main makes the one write: with -o the file gets what stdout gets without
    # it, and stdout gets nothing.  A search's elapsed time is blanked.
    def same(text: str) -> str:
        return re.sub(r'"elapsed_s": [-+.e0-9]+', '"elapsed_s": -', text)

    out = tmp_path / "out.txt"
    for cmd, argv in _out_commands(tmp_path).items():
        rc, stdout = run_cli(capsys, *argv)
        assert rc == 0 and stdout, cmd
        rc, rest = run_cli(capsys, *argv, "-o", str(out))
        assert rc == 0 and rest == "", cmd
        assert same(out.read_text()) == same(stdout), cmd
        out.unlink()


def test_unwritable_out_is_an_error_without_traceback(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "out.json")
    for cmd, argv in _out_commands(tmp_path).items():
        assert main([*argv, "-o", missing]) == 1, cmd
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), cmd
        assert "Traceback" not in captured.err, cmd
