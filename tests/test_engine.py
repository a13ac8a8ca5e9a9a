import random

import pytest

from pegstack import rules as r
from pegstack.effects import StackEffect, cons
from pegstack.engine import (ACTION_FAIL, EngineFault, InternalFault, ParseFailed, Parser,
                             ParserState, format_trace_event, match_expr, run)
from pegstack.errors import principal_error_index
from pegstack.rules import DIGIT, validate_grammar
from pegstack.values import Value, node_value, render_value, str_value

from conftest import DATA
from generators import gen_grammar, gen_input, gen_neutral
from reference_interp import ref_match, ref_run


def _grammar(expr, **extra):
    rules = {"Top": expr}
    rules.update(extra)
    return validate_grammar(r.grammar(rules, start="Top"))


def _state(text, stack=(), cursor=0):
    state = ParserState(text)
    state.cursor = cursor
    for v in stack:
        state.stack.push(v)
    return state


# -- the thirteen-step walkthrough --------------------------------------------------

def test_backtracking_walkthrough_trace(foo_grammar):
    events = []
    result = Parser(foo_grammar).run("abd", trace=events)
    assert result.kind == "success"
    lines = [format_trace_event(e) for e in events]
    golden = (DATA / "foo_trace.golden").read_text().splitlines()
    assert lines == golden
    assert len(lines) == 13


def test_walkthrough_final_cursor(foo_grammar):
    state = Parser(foo_grammar).run_phase("abd")
    assert state.cursor == 3  # after the last matched character


# -- single-expression semantics ---------------------------------------------------

def test_str_match_advances_and_leaves_stack():
    g = _grammar(r.Str("ab"))
    state = _state("abc", stack=[str_value("keep")])
    assert match_expr(state, r.Str("ab"), g)
    assert state.cursor == 2
    assert state.stack.values() == (str_value("keep"),)


def test_not_predicate_inverts_and_restores():
    g = _grammar(r.ch("a"))
    state = _state("abc")
    assert not match_expr(state, r.not_pred(r.ch("a")), g)
    assert state.cursor == 0
    assert state.stack.values() == ()


def test_and_predicate_restores_cursor_and_stack():
    g = _grammar(r.ch("a"))
    state = _state("abc")
    assert match_expr(state, r.and_pred(r.capture(r.Str("ab"))), g)
    assert state.cursor == 0
    assert state.stack.values() == ()


def test_capture_pushes_matched_slice():
    expr = r.capture(r.one_or_more(r.CharPred(DIGIT)))
    g = _grammar(expr)
    # expected value computed by the reference interpreter first
    ok, pos, stack = ref_match(g, expr, "42+", 0, ())
    assert (ok, pos, stack) == (True, 2, (str_value("42"),))

    state = _state("42+")
    assert match_expr(state, expr, g)
    assert state.cursor == 2
    assert state.stack.values() == (str_value("42"),)


def test_capture_failure_pushes_nothing():
    expr = r.capture(r.one_or_more(r.CharPred(DIGIT)))
    g = _grammar(expr)
    state = _state("x1")
    assert not match_expr(state, expr, g)
    assert state.cursor == 0
    assert state.stack.values() == ()


def test_ignore_case_matchers():
    g = _grammar(r.IgnoreCaseStr("ab"))
    state = _state("AbC")
    assert match_expr(state, r.IgnoreCaseStr("aB"), g)
    assert state.cursor == 2
    state = _state("zZ")
    assert match_expr(state, r.IgnoreCaseCh("Z"), g) and state.cursor == 1


def test_end_of_input_never_advances():
    g = _grammar(r.EOI)
    state = _state("ab", cursor=2)
    assert match_expr(state, r.EOI, g)
    assert state.cursor == 2
    state = _state("ab")
    assert not match_expr(state, r.EOI, g)


def test_any_char_fails_only_at_end():
    g = _grammar(r.ANY)
    state = _state("x")
    assert match_expr(state, r.ANY, g) and state.cursor == 1
    assert not match_expr(state, r.ANY, g)
    assert state.cursor == 1


def _outcome(grammar, text):
    state = _state(text)
    ok = Parser(grammar).match_rule(state, grammar.start)
    return ok, state.cursor, state.stack.values()


def test_any_of_matches_plus():
    g = _grammar(r.any_of("+-"))
    assert _outcome(g, "+")[0] is True
    assert _outcome(g, "x")[0] is False


def test_none_of_fails_at_end_of_input():
    g = _grammar(r.none_of("+-"))
    assert _outcome(g, "")[0] is False
    assert _outcome(g, "+")[0] is False
    assert _outcome(g, "z")[0] is True


def test_none_of_complement_accepts_non_ascii():
    g = _grammar(r.none_of("+-"))
    for text, ok in (("é", True), ("+", False), ("q", True)):
        assert _outcome(g, text) == (ok, 1 if ok else 0, ())


def test_prioritized_choice_commits_to_first_success():
    calls = []

    def probe(tag):
        def fn():
            calls.append(tag)
        return r.Action(0, fn, StackEffect((), ()), name=f"probe{tag}")

    expr = r.first_of(r.seq(r.ch("a"), probe(1)), r.seq(r.ch("a"), probe(2)))
    g = _grammar(expr)
    state = _state("a")
    assert match_expr(state, expr, g)
    assert calls == [1]  # the second alternative is never attempted


def test_zero_or_more_is_total():
    rng = random.Random(5)
    g = _grammar(r.ch("a"))
    for _ in range(300):
        inner = gen_neutral(rng, 3, [])
        state = _state(gen_input(rng))
        assert match_expr(state, r.zero_or_more(inner), g)


def test_nullable_repetition_body_terminates():
    g = _grammar(r.zero_or_more(r.opt(r.ch("a"))))
    state = Parser(g).run_phase("aaab")
    assert state.cursor == 3  # consumed the a's, then stopped without progress


def test_one_or_more_accepts_zero_width_first_iteration():
    g = _grammar(r.one_or_more(r.opt(r.ch("a"))))
    result = Parser(g).run("b")
    assert result.kind == "success"


def test_one_or_more_requires_first_success():
    g = _grammar(r.one_or_more(r.ch("a")))
    assert Parser(g).run("b").kind == "parse-failure"
    assert Parser(g).run("aab").kind == "success"


# -- action semantics -----------------------------------------------------------------

def test_action_argument_order_is_deepest_first():
    seen = {}

    def fn(v1, v2, v3):
        seen["args"] = (v1, v2, v3)
        return None

    expr = r.seq(r.push(str_value("bottom")), r.push(str_value("mid")),
                 r.push(str_value("top")),
                 r.Action(3, fn, StackEffect(("Str", "Str", "Str"), ()), name="probe"))
    g = _grammar(expr)
    state = _state("")
    assert match_expr(state, expr, g)
    assert seen["args"] == (str_value("bottom"), str_value("mid"), str_value("top"))
    assert state.stack.values() == ()  # unit action pushes nothing


def test_action_failure_restores_popped_values():
    def fn(v):
        return ACTION_FAIL

    action = r.Action(1, fn, StackEffect(("Str",), ()), name="nope")
    expr = r.seq(r.push(str_value("v")), action)
    g = _grammar(expr)
    state = _state("")
    assert not match_expr(state, expr, g)
    assert state.stack.values() == ()  # sequence failure restored everything

    state = _state("")
    state.stack.push(str_value("v"))
    assert not match_expr(state, action, g)
    assert state.stack.values() == (str_value("v"),)


def test_action_can_push_multiple_values():
    def fn():
        return (str_value("1"), str_value("2"))

    action = r.Action(0, fn, StackEffect((), ("Str", "Str")), name="two")
    g = _grammar(action)
    state = _state("")
    assert match_expr(state, action, g)
    assert state.stack.values() == (str_value("1"), str_value("2"))


def test_push_unit_pushes_nothing():
    g = _grammar(r.push(Value("Unit", None)))
    result = Parser(g).run("")
    assert result.values == ()


def test_cons_builds_nodes_in_argument_order():
    expr = r.seq(r.capture(r.ch("a")), r.capture(r.ch("b")), cons("Pair", 2))
    g = _grammar(expr)
    result = Parser(g).run("ab")
    assert [render_value(v) for v in result.values] == ['Pair("a","b")']


# -- collecting repetitions ------------------------------------------------------------

def test_zero_or_more_collects_single_value_bodies():
    g = _grammar(r.zero_or_more(r.capture(r.CharPred(DIGIT))))
    result = Parser(g).run("123x")
    assert [render_value(v) for v in result.values] == ['["1","2","3"]']
    assert result.values[0].tag == "ListOf(Str)"


def test_collecting_repetition_empty_case():
    g = _grammar(r.zero_or_more(r.capture(r.CharPred(DIGIT))))
    result = Parser(g).run("x")
    assert [render_value(v) for v in result.values] == ["[]"]


def test_optional_collects():
    g = _grammar(r.opt(r.capture(r.ch("a"))))
    assert render_value(Parser(g).run("a").values[0]) == '["a"]'
    assert render_value(Parser(g).run("b").values[0]) == "[]"


def test_one_or_more_collects():
    g = _grammar(r.one_or_more(r.capture(r.ch("a"))))
    assert render_value(Parser(g).run("aa").values[0]) == '["a","a"]'
    assert Parser(g).run("b").kind == "parse-failure"


def test_zero_width_collecting_body_rolls_back():
    g = _grammar(r.zero_or_more(r.push(str_value("v"))))
    result = Parser(g).run("")
    assert [render_value(v) for v in result.values] == ["[]"]


def test_reduction_repetition_is_not_collected(calc_grammar):
    result = Parser(calc_grammar).run("1+2+3", start="Expression")
    assert len(result.values) == 1
    assert render_value(result.values[0]) == 'Add(Add(Val("1"),Val("2")),Val("3"))'


# -- restoration and stack invariants ----------------------------------------------------

def test_failure_restores_cursor_and_stack_randomized():
    rng = random.Random(11)
    for _ in range(400):
        g = gen_grammar(rng)
        parser = Parser(g)
        expr = g.rules["Top"].expr
        text = gen_input(rng)
        state = _state(text, stack=[str_value("a"), node_value("N")],
                       cursor=rng.randrange(len(text) + 1))
        before = (state.cursor, state.stack.values())
        if not parser.match(state, expr):
            assert (state.cursor, state.stack.values()) == before


def test_standard_expressions_never_change_stack():
    rng = random.Random(23)
    g = _grammar(r.ch("a"))
    for _ in range(400):
        expr = gen_neutral(rng, 3, [])
        if _has_stack_ops(expr):
            continue
        state = _state(gen_input(rng), stack=[str_value("s")])
        match_expr(state, expr, g)
        assert state.stack.values() == (str_value("s"),)


def _has_stack_ops(expr):
    return any(type(n) in (r.Capture, r.Push, r.Drop, r.Action) for n in r.walk(expr))


# -- runs and delivery modes ---------------------------------------------------------------

def test_run_reports_paper_error_position(calc_grammar):
    result = Parser(calc_grammar).run("1+2!3")
    assert result.kind == "parse-failure"
    err = result.error
    assert (err.position.index, err.position.line, err.position.column) == (3, 1, 4)
    assert err.principal_position == err.position


def test_run_prefix_match_without_eoi(calc_grammar):
    result = Parser(calc_grammar).run("1+2!3", start="Expression")
    assert result.kind == "success"
    assert len(result.values) == 1
    assert render_value(result.values[0]) == 'Add(Val("1"),Val("2"))'


def test_run_full_expression_ast(calc_grammar):
    expected = node_value(
        "Add",
        node_value("Val", str_value("1")),
        node_value(
            "Div",
            node_value("Sub",
                       node_value("Val", str_value("2")),
                       node_value("Mul",
                                  node_value("Val", str_value("3")),
                                  node_value("Val", str_value("4")))),
            node_value("Val", str_value("5")),
        ),
    )
    result = Parser(calc_grammar).run("1+(2-3*4)/5")
    assert result.values == (expected,)
    # cross-checked against the independent reference interpreter
    ok, pos, stack = ref_run(calc_grammar, "1+(2-3*4)/5")
    assert ok and stack == (expected,)


def test_delivery_mode_result(calc_grammar):
    result = run(calc_grammar, "InputLine", "1+2", mode="result")
    assert result.ok and result.error is None and result.fault is None


def test_delivery_mode_either(calc_grammar):
    values, err = run(calc_grammar, "InputLine", "1+2", mode="either")
    assert err is None and len(values) == 1
    values, err = run(calc_grammar, "InputLine", "1+2!3", mode="either")
    assert values is None and err.position.index == 3

    g = _grammar(r.seq(r.ch("a"), r.drop(1)))  # underflows at runtime
    values, err = run(g, "Top", "a", mode="either")
    assert values is None and isinstance(err, InternalFault)


def test_delivery_mode_raising(calc_grammar):
    values = run(calc_grammar, "InputLine", "1+2", mode="raising")
    assert len(values) == 1
    with pytest.raises(ParseFailed) as exc:
        run(calc_grammar, "InputLine", "1+2!3", mode="raising")
    assert "Invalid input" in str(exc.value)

    g = _grammar(r.seq(r.ch("a"), r.drop(1)))
    with pytest.raises(EngineFault):
        run(g, "Top", "a", mode="raising")


def test_unknown_delivery_mode(calc_grammar):
    with pytest.raises(ValueError):
        run(calc_grammar, "InputLine", "1", mode="maybe")


def test_action_exception_becomes_internal_fault():
    def boom():
        raise ZeroDivisionError("1/0")

    g = _grammar(r.Action(0, boom, StackEffect((), ()), name="boom"))
    result = Parser(g).run("")
    assert result.kind == "internal-fault"
    assert "ZeroDivisionError" in result.fault.description


def test_unchecked_underflow_becomes_internal_fault():
    g = _grammar(r.drop(1))
    result = Parser(g).run("")
    assert result.kind == "internal-fault"
    assert "underflow" in result.fault.description


# -- quiet transparency -----------------------------------------------------------------------

def _wrap_nth(expr, n, counter=None):
    """Rebuild expr with its n-th node (preorder) wrapped in Quiet."""
    if counter is None:
        counter = [0]
    index = counter[0]
    counter[0] += 1
    if index == n:
        return r.Quiet(expr)
    t = type(expr)
    if t is r.Sequence:
        return r.Sequence(tuple(_wrap_nth(c, n, counter) for c in expr.children))
    if t is r.FirstOf:
        return r.FirstOf(tuple(_wrap_nth(a, n, counter) for a in expr.alternatives))
    if t in (r.Optional, r.ZeroOrMore, r.OneOrMore, r.AndPredicate, r.NotPredicate,
             r.Capture, r.Quiet):
        return t(_wrap_nth(expr.inner, n, counter))
    return expr


def test_quiet_never_changes_match_or_principal():
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        g = gen_grammar(rng)
        expr = g.rules["Top"].expr
        nodes = sum(1 for _ in r.walk(expr))
        wrapped = _wrap_nth(expr, rng.randrange(nodes))
        gq = validate_grammar(r.grammar({**{k: v.expr for k, v in g.rules.items()},
                                         "Top": wrapped}, start="Top"))
        text = gen_input(rng)
        p, pq = Parser(g), Parser(gq)
        s1, s2 = ParserState(text), ParserState(text)
        ok1 = p.match_rule(s1, "Top")
        ok2 = pq.match_rule(s2, "Top")
        assert ok1 == ok2
        assert s1.cursor == s2.cursor
        assert s1.stack.values() == s2.stack.values()
        if not ok1:
            assert principal_error_index(p, text) == principal_error_index(pq, text)
            checked += 1
    assert checked > 10


def test_steps_counter_is_monotone(calc_grammar):
    state = Parser(calc_grammar).run_phase("1+2*3")
    assert state.stats.steps > 0
    assert state.stats.max_cursor <= len("1+2*3")
