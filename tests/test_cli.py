import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pegstack import rules as r
from pegstack.cli import _error_json, _event_json, _json_values, _value_json, main
from pegstack.engine import GENERATE_AT, InternalFault, Parser, RunResult, TraceEvent
from pegstack.errors import format_error
from pegstack.notation import _meta_parser
from pegstack.values import (UNIT, Value, list_value, node_value, render_value,
                             str_value)

from conftest import GRAMMARS, source_of
from generators import big_expression

CALC = str(GRAMMARS / "calc.peg")
FOO = str(GRAMMARS / "foo.peg")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_failure_exit_and_message(capsys):
    code, out, err = run_cli(capsys, "run", "--grammar", CALC,
                             "--start", "InputLine", "--input", "1+2!3")
    assert code == 1
    assert "Invalid input '!', expected" in err
    assert "(line 1, column 4):" in err
    assert "1+2!3" in err


def test_prefix_success_output(capsys):
    code, out, err = run_cli(capsys, "run", "--grammar", CALC,
                             "--start", "Expression", "--input", "1+2!3")
    assert code == 0
    assert out == 'Add(Val("1"),Val("2"))\n'


def test_check_reports_rule_arities(capsys):
    code, out, err = run_cli(capsys, "check", "--grammar", CALC)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "InputLine : (0 -> 1)"
    assert "Expression : (0 -> 1)" in lines


def test_check_rejects_branch_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.peg"
    bad.write_text("R : (0 -> 1) <- capture('a') / 'b'\n")
    code, out, err = run_cli(capsys, "check", "--grammar", str(bad))
    assert code == 2
    assert "alternative" in err


def test_json_and_text_agree_on_position_and_expected(capsys):
    code, out, err = run_cli(capsys, "run", "--grammar", CALC, "--input", "1+2!3",
                             "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] == "error"
    assert payload["position"] == {"index": 3, "line": 1, "column": 4}

    code2, out2, err2 = run_cli(capsys, "run", "--grammar", CALC, "--input", "1+2!3")
    assert code2 == 1
    assert f"(line {payload['position']['line']}, column {payload['position']['column']}):" in err2
    for want in payload["expected"]:
        assert want in err2
    assert payload["message"] in err2 or payload["message"].split("\n")[0] in err2


def test_json_success_values(capsys):
    code, out, _ = run_cli(capsys, "run", "--grammar", CALC, "--input", "2*3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"result": "success", "values": [
        {"label": "Mul", "children": [
            {"label": "Val", "children": ["2"]},
            {"label": "Val", "children": ["3"]},
        ]}]}


def test_trace_flag_streams_steps(capsys):
    code, out, err = run_cli(capsys, "run", "--grammar", FOO, "--input", "abd",
                             "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert lines[0] == "step 1: foo @ 0 -> start"
    assert lines[-1] == "step 13: foo @ 0 -> match (0->3)"


def test_trace_json_prints_json_lines(capsys):
    for text, code, result in (("abd", 0, "success"), ("abx", 1, "error")):
        got, out, err = run_cli(capsys, "run", "--grammar", FOO, "--input", text,
                                "--trace", "--json")
        assert (got, err) == (code, "")
        records = [json.loads(line) for line in out.splitlines()]
        *events, last = records
        assert last["result"] == result
        assert [e["step"] for e in events] == list(range(1, len(events) + 1))
        assert all(list(e) == ["step", "summary", "cursor", "outcome", "moved_from", "moved_to"]
                   for e in events)
    assert events[0] == {"step": 1, "summary": "foo", "cursor": 0, "outcome": "start",
                         "moved_from": None, "moved_to": None}
    assert events[6] == {"step": 7, "summary": "'b' 'c' / 'b' 'd'", "cursor": 1,
                         "outcome": "reset", "moved_from": 2, "moved_to": 1}


def test_trace_memory_does_not_grow_with_the_events(tmp_path):
    # a streamed trace holds no event after printing it: a traced run peaks
    # where an untraced one does, though it prints tens of thousands of lines
    doc = tmp_path / "doc.json"
    rows = ",".join(f'{{"id": {i}, "name": "n{i}", "ok": true, "xs": [1.5, -2e3]}}'
                    for i in range(200))
    doc.write_text(f"[{rows}]")
    grammar = str(GRAMMARS.parent / "bench" / "json.peg")
    argv = ["run", "--grammar", grammar, "--input-file", str(doc)]
    lines = io.StringIO()
    with contextlib.redirect_stdout(lines):  # also loads what later runs reuse
        assert main(argv + ["--trace"]) == 0
        assert main(argv) == 0  # a new Parser, which compiles json's module itself
    assert lines.getvalue().count("\n") > 50_000
    # the process's meta-grammar Parser writes its module on the process's
    # second grammar load, at the latest the one above: before either peak
    assert source_of(_meta_parser()) is not None

    def peak(*flags):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(argv + list(flags)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak("--trace") < peak() + 256 * 1024


def test_default_run_reports_the_error_of_the_grammar_as_written(tmp_path, capsys):
    grammar = tmp_path / "abc.peg"
    grammar.write_text("S <- 'a' 'b' 'c' EOI\n")
    code, out, err = run_cli(capsys, "run", "--grammar", str(grammar), "--input", "abx")
    assert code == 1
    assert "Invalid input 'x', expected 'c' (line 1, column 3):" in err


def test_single_char_choice_names_each_character(tmp_path, capsys):
    grammar = tmp_path / "sign.peg"
    grammar.write_text("S <- ('+' / '-') EOI\n")
    code, out, err = run_cli(capsys, "run", "--grammar", str(grammar), "--input", "x")
    assert code == 1
    assert "expected '+' or '-' (line 1, column 1):" in err
    code, out, err = run_cli(capsys, "run", "--grammar", str(grammar), "--input", "x",
                             "--json")
    assert code == 1
    assert json.loads(out)["expected"] == ["'+'", "'-'"]


def test_large_valid_input_prints_without_traceback(calc_grammar, capsys):
    text = big_expression(random.Random(1010), 100_000)
    code, out, err = run_cli(capsys, "run", "--grammar", CALC, "--input", text)
    assert (code, err) == (0, "")
    value, = Parser(calc_grammar).run(text).values
    assert out == render_value(value) + "\n"
    nodes = out.count("(")  # the strings are digits, so every "(" opens a node
    code, out, err = run_cli(capsys, "run", "--grammar", CALC, "--input", text, "--json")
    assert (code, err) == (0, "")
    assert out.startswith('{"result": "success", "values": [{"label": ')
    assert out.endswith("]}]}\n")
    assert out.count('"label": ') == nodes


def test_json_text_matches_json_dumps():
    leaf = str_value("\u00e9\n\"")
    values = (node_value("N"), node_value("T", leaf, UNIT), leaf, UNIT,
              list_value([list_value([]), list_value([str_value("x"), node_value("k", leaf)])]),
              Value("Odd", None), Value("Int", 3))
    for items in (values, values[:1], ()):
        assert _json_values(items) == json.dumps([_value_json(v) for v in items])


def test_json_text_writes_the_error_object_like_json_dumps():
    g = r.grammar({"S": r.seq(r.first_of(r.ch("\t"), r.lit("\u00e9\x01")), r.EOI)})
    text = 'x"y"\n'
    err = Parser(g).run(text).error
    message = format_error(err, text)
    obj = {"result": "error", "position": {"index": 0, "line": 1, "column": 1},
           "expected": err.expected(), "message": message}
    assert len(obj["expected"]) == 2 and "\n" in message and '"' in message
    assert _error_json(err, message) == json.dumps(obj)


@pytest.mark.parametrize("summary, moved", [
    ("'\"'", (None, None)),
    ("[\\\\]", (0, 1)),
    ("'\\n' \t\x00\x1f\x7f", (5, 5)),
    ("caf\u00e9 \u2028 \U0001f600", (None, None)),
    ("Rule", (12, 40)),
])
def test_a_json_lines_trace_record_is_what_json_dumps_writes(summary, moved):
    event = TraceEvent(7, summary, 3, "match" if moved[0] is not None else "start", *moved)
    fields = {"step": 7, "summary": summary, "cursor": 3, "outcome": event.outcome,
              "moved_from": moved[0], "moved_to": moved[1]}
    assert _event_json(event) == json.dumps(fields)


def test_importing_the_cli_leaves_out_the_json_package():
    code = "import sys, pegstack.cli; print('json' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(GRAMMARS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.stdout == "False\n", proc.stderr


def test_a_small_run_leaves_out_the_code_generator():
    # neither the meta-parse of calc.peg nor a parse of 100 characters reaches
    # the threshold, so the process never imports the module writer; one
    # whose input reaches it does. One run per process: a process's second
    # grammar load writes the meta-grammar's module whatever its input
    short, long = "1+" * 49 + "12", "1+" * (GENERATE_AT // 2) + "1"
    env = dict(os.environ, PYTHONPATH=str(GRAMMARS.parent / "src"))

    def imports_the_writer(text):
        code = ("import sys, pegstack.cli\n"
                f"code = pegstack.cli.main(['run', '--grammar', {CALC!r}, '--input', {text!r}])\n"
                "print(code, 'pegstack.generate' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.stdout.splitlines()[-1:] in (["0 False"], ["0 True"]), proc.stderr
        return proc.stdout.splitlines()[-1] == "0 True"

    assert len(short) == 100
    assert not imports_the_writer(short)
    assert imports_the_writer(long)


def test_missing_grammar_file(capsys):
    code, out, err = run_cli(capsys, "run", "--grammar", "does-not-exist.peg",
                             "--input", "x")
    assert code == 2
    assert err


def test_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["run"]) == 2  # --grammar required
    capsys.readouterr()


def test_grammar_error_exit(tmp_path, capsys):
    broken = tmp_path / "broken.peg"
    broken.write_text("A <- B\n")
    code, out, err = run_cli(capsys, "check", "--grammar", str(broken))
    assert code == 2
    assert "unresolved-ref" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1+2\n"))
    code, out, err = run_cli(capsys, "run", "--grammar", CALC)
    assert code == 0
    assert out.strip() == 'Add(Val("1"),Val("2"))'


def test_input_file(tmp_path, capsys):
    source = tmp_path / "input.txt"
    source.write_text("3*4")
    code, out, err = run_cli(capsys, "run", "--grammar", CALC,
                             "--input-file", str(source))
    assert code == 0
    assert out.strip() == 'Mul(Val("3"),Val("4"))'


def test_no_caret_flag(capsys):
    _, _, with_caret = run_cli(capsys, "run", "--grammar", CALC, "--input", "1+!")
    _, _, without = run_cli(capsys, "run", "--grammar", CALC, "--input", "1+!",
                            "--no-caret")
    assert "^" in with_caret
    assert "^" not in without


def test_internal_fault_exit_code(capsys, monkeypatch):
    deep = "(" * 5000 + "1" + ")" * 5000
    code, out, err = run_cli(capsys, "run", "--grammar", CALC, "--input", deep)
    assert (code, out, err) == (0, 'Val("1")\n', "")

    class FaultingParser:
        def __init__(self, grammar):
            pass

        def run(self, text, **kwargs):
            return RunResult(fault=InternalFault("stub fault"))

    monkeypatch.setattr("pegstack.cli.Parser", FaultingParser)
    code, out, err = run_cli(capsys, "run", "--grammar", CALC, "--input", "1")
    assert code == 3
    assert "internal fault" in err


def test_grammar_too_deep_to_compile_exits_3_with_one_line(capsys, tmp_path):
    src = "'a'"
    for _ in range(200):
        src = f"('b' {src})?"
    grammar = tmp_path / "deep.peg"
    grammar.write_text(f"Top <- {src} EOI\n")
    for argv in (("run", "--grammar", str(grammar), "--input", "bba"),
                 ("check", "--grammar", str(grammar))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", "internal fault: grammar nested too deeply to compile\n")


def test_grammar_too_deep_to_validate_exits_3_with_one_line(capsys, tmp_path):
    src = "'a'"
    for _ in range(400):
        src = f"('b' {src})?"
    grammar = tmp_path / "deeper.peg"
    grammar.write_text(f"Top <- {src} EOI\n")
    for argv in (("run", "--grammar", str(grammar), "--input", "bba"),
                 ("check", "--grammar", str(grammar))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", "internal fault: grammar nested too deeply to compile\n")


def test_a_flat_chain_of_1500_rules_checks_with_exit_0(capsys, tmp_path):
    # R_i <- R_i+1 'x': neither validation nor the effect check recurses
    # through the references
    grammar = tmp_path / "chain.peg"
    grammar.write_text("".join(f"R{i} <- R{i + 1} 'x'\n" for i in range(1500)) + "R1500 <- 'a'\n")
    code, out, err = run_cli(capsys, "check", "--grammar", str(grammar))
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"R{i} : (0 -> 0)" for i in range(1501)]


def test_a_chain_of_600_rules_ending_in_a_failing_rule_exits_2(capsys, tmp_path):
    # each rule reports the last rule's effect error, not a depth fault
    grammar = tmp_path / "chain.peg"
    grammar.write_text("".join(f"R{i} <- R{i + 1} 'x'\n" for i in range(600))
                       + "R600 <- capture('a') / 'b'\n")
    code, out, err = run_cli(capsys, "check", "--grammar", str(grammar))
    message = "alternative 1 does not unify with the preceding alternatives: ([],[Str]) vs ([],[])"
    assert (code, out) == (2, "")
    assert err == "; ".join(f"R{i}: {message}" for i in range(601)) + "\n"


def test_deep_nesting_parses_at_the_callers_recursion_limit(calc_grammar, capsys):
    limit = sys.getrecursionlimit()
    deep = "(" * 20_000 + "1" + ")" * 20_000
    value, = Parser(calc_grammar).run(deep).values
    assert render_value(value) == 'Val("1")'
    for flags in ([], ["--json"]):
        code, out, err = run_cli(capsys, "run", "--grammar", CALC, "--input", deep, *flags)
        assert (code, err) == (0, "")
        assert sys.getrecursionlimit() == limit
    code, out, err = run_cli(capsys, "run", "--grammar", CALC, "--input", deep[:-1])
    assert code == 1 and "Unexpected end of input" in err


def _cli_process(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-m", "pegstack.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_bad_start_rule_and_undecodable_input_exit_2_without_traceback(tmp_path):
    proc = _cli_process("run", "--grammar", CALC, "--start", "Nope", "--input", "1")
    assert proc.returncode == 2
    assert "unknown rule 'Nope'" in proc.stderr
    assert "Traceback" not in proc.stderr
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"1+\xe9")
    proc = _cli_process("run", "--grammar", CALC, "--input-file", str(latin))
    assert proc.returncode == 2
    assert "UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unexpected_exception_is_an_internal_fault(capsys, monkeypatch):
    def broken(path):
        raise RuntimeError("boom")

    monkeypatch.setattr("pegstack.cli.load_grammar", broken)
    code, out, err = run_cli(capsys, "check", "--grammar", CALC)
    assert code == 3
    assert err == "internal fault: RuntimeError: boom\n"


def test_exit_code_totality(capsys, tmp_path):
    cases = [
        ["run", "--grammar", CALC, "--input", "1"],
        ["run", "--grammar", CALC, "--input", "!"],
        ["run", "--grammar", "nope.peg", "--input", "1"],
        ["nonsense"],
        ["check", "--grammar", CALC],
    ]
    for argv in cases:
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3)
