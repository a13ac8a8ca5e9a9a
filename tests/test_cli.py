import io
import json
import random

from pegstack.cli import _json_text, main
from pegstack.engine import Parser
from pegstack.values import render_value

from conftest import GRAMMARS
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
    obj = {"result": "success", "values": [
        {"label": "N", "children": []}, "\u00e9\n\"", None, [[], ["x", {"k": "v"}]]]}
    assert _json_text(obj) == json.dumps(obj)


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


def test_internal_fault_exit_code(capsys):
    deep = "(" * 5000 + "1" + ")" * 5000
    code, out, err = run_cli(capsys, "run", "--grammar", CALC, "--input", deep)
    assert code == 3
    assert "internal fault" in err


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
