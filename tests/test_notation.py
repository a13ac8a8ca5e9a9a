from functools import lru_cache
from itertools import count

import pytest

from pegstack import notation
from pegstack import rules as r
from pegstack.effects import EffectCheckError, StackEffect, WILDCARD, check_grammar, cons
from pegstack.engine import GENERATE_AT, Parser
from pegstack.notation import (GrammarSource, NotationError, load_grammar, meta_grammar,
                               parse_grammar, pretty_grammar)
from pegstack.rules import (DIGIT, LOWER_HEX_LETTER, GrammarError, GrammarTooDeep,
                            validate_grammar)
from pegstack.values import render_value

from conftest import ROOT
from run_states import recorded_states

CALC_TEXT = """\
InputLine <- Expression EOI
Expression : (0 -> 1) <- Term (('+' Term ~> cons(Add,2)) / ('-' Term ~> cons(Sub,2)))*
Term <- Factor (('*' Factor ~> cons(Mul,2)) / ('/' Factor ~> cons(Div,2)))*
Factor <- Number / ('(' Expression ')')
Number <- capture([0-9]+) ~> cons(Val,1)
"""


def test_calculator_file_parses_and_reproduces_paper_error(calc_grammar):
    g = parse_grammar(CALC_TEXT)
    assert g == calc_grammar
    result = Parser(g).run("1+2!3")
    assert result.kind == "parse-failure"
    assert result.error.position.index == 3
    assert set(result.error.expected()) == {"'/'", "'+'", "'*'", "'EOI'", "'-'", "Digit"}


def test_first_rule_is_the_start():
    g = parse_grammar("A <- 'a'\nB <- 'b'\n")
    assert g.start == "A"


def test_effect_declaration_expands_to_wildcard_arities():
    g = parse_grammar(CALC_TEXT)
    assert g.rules["Expression"].effect == StackEffect((), (WILDCARD,))
    assert g.rules["Term"].effect is None


def test_number_rule_structure():
    g = parse_grammar(CALC_TEXT)
    expr = g.rules["Number"].expr
    assert expr == r.seq(r.capture(r.one_or_more(r.CharPred(DIGIT))), cons("Val", 1))


def test_foo_notation_equals_hand_built(foo_grammar):
    hand = validate_grammar(r.grammar({
        "foo": r.seq(r.ch("a"),
                     r.first_of(r.seq(r.ch("b"), r.ch("c")),
                                r.seq(r.ch("b"), r.ch("d")))),
    }))
    assert foo_grammar == hand


def test_notation_construct_inventory():
    g = parse_grammar(
        'A <- &"ab" !EOI .? ^"ok" [a-f] quiet(\'q\') capture(\'c\') push("v") '
        '~> cons(N,2) drop push("x") push("y") drop[2] "z"* B+\n'
        "B <- 'b'\n"
    )
    nodes = list(r.walk(g.rules["A"].expr))
    kinds = {type(n) for n in nodes}
    assert {r.AndPredicate, r.NotPredicate, r.AnyChar, r.IgnoreCaseStr, r.CharPred,
            r.Quiet, r.Capture, r.Push, r.Drop, r.ZeroOrMore, r.OneOrMore,
            r.RuleRef, r.Action, r.Optional, r.EndOfInput} <= kinds
    drops = [n for n in nodes if type(n) is r.Drop]
    assert sorted(d.count for d in drops) == [1, 2]
    classes = [n for n in nodes if type(n) is r.CharPred]
    assert classes[0].pred is LOWER_HEX_LETTER  # [a-f] maps to the predefined set


def test_custom_char_class_ranges():
    g = parse_grammar("A <- [a-cx2-4]\n")
    pred = g.rules["A"].expr.pred
    for c in "abcx234":
        assert pred.contains(c)
    for c in "dy15":
        assert not pred.contains(c)
    assert pred.name == "[a-cx2-4]"


def test_comments_and_blank_lines():
    g = parse_grammar("# heading\n\nA <- 'a' # trailing\n# tail\n")
    assert list(g.rules) == ["A"]


def test_choice_is_ordered_left_to_right():
    g = parse_grammar("A <- 'a' / 'b' / 'c'\n")
    expr = g.rules["A"].expr
    assert expr == r.first_of(r.ch("a"), r.ch("b"), r.ch("c"))


def test_suffix_binds_tighter_than_prefix():
    g = parse_grammar("A <- !'a'*\n")
    assert g.rules["A"].expr == r.not_pred(r.zero_or_more(r.ch("a")))


def test_undefined_reference_diagnostic():
    with pytest.raises(GrammarError) as exc:
        parse_grammar("A <- B\n")
    assert any(i.kind == "unresolved-ref" and "B" in i.detail for i in exc.value.issues)


def test_duplicate_rule_diagnostic():
    with pytest.raises(GrammarError) as exc:
        parse_grammar("A <- 'a'\nA <- 'b'\n")
    assert any(i.kind == "duplicate-rule" for i in exc.value.issues)


def test_syntax_error_is_formatted_with_position():
    with pytest.raises(NotationError) as exc:
        parse_grammar(GrammarSource("A <- )\n", "broken.peg"))
    message = str(exc.value)
    assert "broken.peg" in message
    assert "line 1" in message


def test_an_empty_grammar_files_error_head_is_one_line():
    with pytest.raises(NotationError) as exc:
        parse_grammar(GrammarSource("", "empty.peg"))
    head, line, caret = str(exc.value).split("\n")
    assert head == ("empty.peg: Unexpected end of input, expected [ \\t\\r\\n], '#' or [A-Za-z_]"
                    " (line 1, column 1):")
    assert (line, caret) == ("", "^")


def test_an_error_inside_a_rule_name_names_its_characters():
    with pytest.raises(NotationError) as exc:
        parse_grammar("Ab_1")
    assert "expected [A-Za-z_0-9], [ \\t\\r\\n]" in str(exc.value)
    assert "<pred>" not in str(exc.value)


def test_a_grammar_too_deep_to_validate_raises_grammar_too_deep(tmp_path):
    src = "'a'"
    for _ in range(400):
        src = f"('b' {src})?"
    path = tmp_path / "deeper.peg"
    path.write_text(f"Top <- {src} EOI\n")
    with pytest.raises(GrammarTooDeep, match="^grammar nested too deeply to compile$"):
        load_grammar(path)
    e = r.ch("a")
    for _ in range(400):
        e = r.opt(r.seq(r.ch("b"), e))
    with pytest.raises(GrammarTooDeep):
        validate_grammar(r.grammar({"Top": e}))


def test_branch_effect_mismatch_passes_through():
    with pytest.raises(EffectCheckError):
        parse_grammar("R : (0 -> 1) <- capture('a') / 'b'\n")


def test_empty_literal_reported_by_validation():
    with pytest.raises(GrammarError) as exc:
        parse_grammar('A <- ""\n')
    assert any(i.kind == "empty-literal" for i in exc.value.issues)


def test_recursive_rule_requires_declaration():
    body = "'(' A ')' ~> cons(N,1) / capture('x') ~> cons(V,1)"
    with pytest.raises(EffectCheckError):
        parse_grammar(f"A <- {body}\n")
    g = parse_grammar(f"A : (0 -> 1) <- {body}\n")
    result = Parser(g).run("((x))")
    assert render_value(result.values[0]) == 'N(N(V("x")))'


# -- round-trips -------------------------------------------------------------------

def test_calculator_round_trip(calc_grammar):
    printed = pretty_grammar(calc_grammar)
    assert parse_grammar(printed) == calc_grammar


def test_foo_round_trip(foo_grammar):
    assert parse_grammar(pretty_grammar(foo_grammar)) == foo_grammar


def test_inventory_round_trip():
    src = ("A : (0 -> 1) <- &\"ab\" !EOI .? ^\"ok\" [a-f] quiet('q') capture('c') "
           "push(\"v\") ~> cons(N,2) push(\"d\") drop \"z\"* B+ ~> cons(M,1)\n"
           "B <- 'b' [0-9]\n")
    g = parse_grammar(src)
    assert parse_grammar(pretty_grammar(g)) == g


# -- dogfooding ---------------------------------------------------------------------

def test_meta_grammar_validates_and_checks():
    g = meta_grammar()
    assert g.validated
    report = check_grammar(g)
    assert report["Grammar"] == StackEffect((), ("ListOf(Def)",))
    assert report["Choice"] == StackEffect((), ("Expr",))


def test_meta_grammar_parses_itself_as_data():
    # the notation the meta-grammar accepts includes a rendering of a
    # realistic grammar: parse, print, and parse again
    g = parse_grammar(CALC_TEXT)
    printed = pretty_grammar(g)
    again = pretty_grammar(parse_grammar(printed))
    assert printed == again


def test_parse_result_values_render(calc_grammar):
    result = Parser(calc_grammar).run("2*3+4")
    assert [render_value(v) for v in result.values] == ['Add(Mul(Val("2"),Val("3")),Val("4"))']


def test_a_load_meta_parses_alike_whatever_the_process_loaded_before(monkeypatch):
    # the process's one meta-grammar Parser writes its module on the second
    # load: the first load of a process takes the exact table, every later
    # one the generated code, so a load's counters do not depend on what
    # the process loaded before it
    calc = CALC_TEXT
    json = (ROOT / "bench" / "json.peg").read_text()
    assert len(calc) + len(json) < GENERATE_AT

    def fresh_process(*texts):
        monkeypatch.setattr(notation, "_LOADS", count())
        monkeypatch.setattr(notation, "_meta_parser", lru_cache(maxsize=1)(
            lambda: Parser(meta_grammar())))
        out = []
        for text in texts:
            with recorded_states() as states:
                parse_grammar(text)
            assert len(states) == 1
            out.append((states[0].stats.steps, states[0].stats.terminal_mismatches))
        return out

    first, second, third = fresh_process(calc, calc, calc)
    assert first == (Parser(meta_grammar()).run_phase(calc).stats.steps,
                     Parser(meta_grammar()).run_phase(calc).stats.terminal_mismatches)
    assert first != second
    assert fresh_process(json, calc, json, calc)[1::2] == [second, second]
    assert fresh_process(calc, json)[1] == fresh_process(json, json)[1]
