import gc
import json
import random
import re
import sys
import threading

import pytest

from pegstack import rules as r
from pegstack.effects import StackEffect, cons
from pegstack.engine import (ACTION_FAIL, GENERATE_AT, ActionRaised, EngineFault, InternalFault,
                             ParseFailed, Parser, ParserState, RunResult, Trace,
                             format_trace_event)
from pegstack.errors import build_parse_error, principal_error_index
from pegstack.instructions import ALT, OPT, REF, REP
from pegstack.notation import load_grammar, parse_grammar
from pegstack.rules import DIGIT, validate_grammar
from pegstack.values import Node, StackUnderflow, Value, node_value, render_value, str_value

from conftest import DATA, ROOT, generated, source_of
from generators import (ALPHABET, LOWERABLE_ALPHABET, big_expression, gen_grammar, gen_input,
                        gen_lowerable_grammar, gen_neutral, gen_sound_grammar)
from reference_interp import ref_match, ref_run
from run_states import recorded_states
from tag_check import tag_checked


def _grammar(expr, **extra):
    rules = {"Top": expr}
    rules.update(extra)
    return validate_grammar(r.grammar(rules, start="Top"))


def _match(grammar, state, expr):
    """Match expr at the state's cursor as the rule ``Matched`` of grammar,
    an unwatched run on the exact table."""
    rules = dict(grammar.rules, Matched=expr)
    return Parser(r.grammar(rules, start=grammar.start)).match_rule(state, "Matched")


def _state(text, stack=(), cursor=0):
    state = ParserState(text)
    state.cursor = cursor
    for v in stack:
        state.stack.push(v)
    return state


# -- the thirteen-step walkthrough --------------------------------------------------

def test_backtracking_walkthrough_trace(foo_grammar):
    events = []
    result = Parser(foo_grammar).run("abd", observer=Trace(events))
    assert result.kind == "success"
    lines = [format_trace_event(e) for e in events]
    golden = (DATA / "foo_trace.golden").read_text().splitlines()
    assert lines == golden
    assert len(lines) == 13


def test_a_reset_reports_where_the_failed_alternative_last_failed():
    # the rule body's root choice logs only its reset, and the reset starts
    # from the mismatch inside the predicate, not from the choice's entry
    g = parse_grammar("Top <- !('a' 'b'*) / 'a'\n")
    events = []
    assert Parser(g).run("abbc", observer=Trace(events)).values == ()
    assert [format_trace_event(e) for e in events] == [
        "step 1: Top @ 0 -> start",
        "step 2: 'a' 'b'* @ 0 -> start",
        "step 3: 'a' @ 0 -> match (0->1)",
        "step 4: 'b' @ 1 -> match (1->2)",
        "step 5: 'b' @ 2 -> match (2->3)",
        "step 6: 'b' @ 3 -> mismatch",
        "step 7: 'a' 'b'* @ 0 -> match (0->3)",
        "step 8: !('a' 'b'*) / 'a' @ 0 -> reset (3->0)",
        "step 9: 'a' @ 0 -> match (0->1)",
        "step 10: Top @ 0 -> match (0->1)",
    ]


class _RuleLog:
    """Observer that logs rule entries and exits and checks that they nest."""

    def __init__(self):
        self.open: list[tuple[str, int]] = []
        self.log: list[tuple] = []

    def enter(self, name, at):
        self.open.append((name, at))
        self.log.append((name, at, "start", None, None))

    def leave(self, name, at, ok, pos):
        assert self.open.pop() == (name, at)
        self.log.append((name, at, "match", at, pos) if ok else (name, at, "mismatch", None, None))

    def event(self, node, cursor, outcome, moved_from, moved_to):
        pass


def test_a_custom_observer_sees_the_rule_events_of_a_trace(calc_grammar):
    parser = Parser(calc_grammar)
    for text in ("1+(2-3*4)/5", "1+2!3", "((1)", ""):
        observer, events = _RuleLog(), []
        assert parser.run(text, observer=observer) == parser.run(text, observer=Trace(events))
        assert observer.open == []
        rule_events = [(e.summary, e.cursor, e.outcome, e.moved_from, e.moved_to)
                       for e in events if e.summary in calc_grammar.rules]
        assert observer.log == rule_events
        assert len(rule_events) > 2


class _RulesOnly(_RuleLog):
    """A _RuleLog without events: the executor must not call ``event``."""

    event = None


@pytest.mark.parametrize("make", [gen_grammar, gen_sound_grammar, gen_lowerable_grammar])
def test_an_observer_without_events_sees_the_rule_events_of_a_trace(make):
    rng = random.Random(f"seam:{make.__name__}")
    alphabet = LOWERABLE_ALPHABET if make is gen_lowerable_grammar else ALPHABET
    logged = 0
    for _ in range(60):
        grammar = make(rng)
        parser = Parser(grammar)
        for _ in range(3):
            text = gen_input(rng, alphabet=alphabet)
            observer, events = _RulesOnly(), []
            assert parser.run(text, observer=observer) == parser.run(text, observer=Trace(events))
            rule_events = [(e.summary, e.cursor, e.outcome, e.moved_from, e.moved_to)
                           for e in events if e.summary in grammar.rules]
            assert (observer.open, observer.log) == ([], rule_events), text
            state = ParserState(text)
            state.observer = observer = _RulesOnly()
            parser.match_rule(state, grammar.start)
            assert observer.log == rule_events, text
            logged += len(rule_events)
    assert logged > 300


def test_walkthrough_final_cursor(foo_grammar):
    state = Parser(foo_grammar).run_phase("abd")
    assert state.cursor == 3  # after the last matched character


# -- single-expression semantics ---------------------------------------------------

def test_str_match_advances_and_leaves_stack():
    g = _grammar(r.Str("ab"))
    state = _state("abc", stack=[str_value("keep")])
    assert _match(g, state, r.Str("ab"))
    assert state.cursor == 2
    assert state.stack.values() == (str_value("keep"),)


def test_not_predicate_inverts_and_restores():
    g = _grammar(r.ch("a"))
    state = _state("abc")
    assert not _match(g, state, r.not_pred(r.ch("a")))
    assert state.cursor == 0
    assert state.stack.values() == ()


def test_and_predicate_restores_cursor_and_stack():
    g = _grammar(r.ch("a"))
    state = _state("abc")
    assert _match(g, state, r.and_pred(r.capture(r.Str("ab"))))
    assert state.cursor == 0
    assert state.stack.values() == ()


def test_capture_pushes_matched_slice():
    expr = r.capture(r.one_or_more(r.CharPred(DIGIT)))
    g = _grammar(expr)
    # expected value computed by the reference interpreter first
    ok, pos, stack = ref_match(g, expr, "42+", 0, ())
    assert (ok, pos, stack) == (True, 2, (str_value("42"),))

    state = _state("42+")
    assert _match(g, state, expr)
    assert state.cursor == 2
    assert state.stack.values() == (str_value("42"),)


def test_capture_failure_pushes_nothing():
    expr = r.capture(r.one_or_more(r.CharPred(DIGIT)))
    g = _grammar(expr)
    state = _state("x1")
    assert not _match(g, state, expr)
    assert state.cursor == 0
    assert state.stack.values() == ()


def test_ignore_case_matchers():
    g = _grammar(r.IgnoreCaseStr("ab"))
    state = _state("AbC")
    assert _match(g, state, r.IgnoreCaseStr("aB"))
    assert state.cursor == 2
    state = _state("zZ")
    assert _match(g, state, r.ignore_case("Z")) and state.cursor == 1


def test_ignore_case_and_none_of_steps_are_traced_by_their_notation():
    g = _grammar(r.seq(r.ignore_case("z"), r.one_or_more(r.none_of("+-"))))
    events = []
    assert Parser(g).run("Zq+", observer=Trace(events)).ok
    assert [format_trace_event(e) for e in events] == [
        "step 1: Top @ 0 -> start",
        'step 2: ^"z" @ 0 -> match (0->1)',
        "step 3: ![+-] . @ 1 -> match (1->2)",
        "step 4: ![+-] . @ 2 -> mismatch",
        "step 5: Top @ 0 -> match (0->2)",
    ]


def test_end_of_input_never_advances():
    g = _grammar(r.EOI)
    state = _state("ab", cursor=2)
    assert _match(g, state, r.EOI)
    assert state.cursor == 2
    state = _state("ab")
    assert not _match(g, state, r.EOI)


def test_any_char_fails_only_at_end():
    g = _grammar(r.ANY)
    state = _state("x")
    assert _match(g, state, r.ANY) and state.cursor == 1
    assert not _match(g, state, r.ANY)
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


# the mask decides ASCII only: its bit 0xE9 makes no member of "\u00e9",
# which has no extra function
_HIGH_BIT = r.CharPredicate((1 << 97) | (1 << 0xE9))


@pytest.mark.parametrize("expr, text, ok", [
    (r.seq(r.capture(r.seq(r.char_pred(_HIGH_BIT), r.ch("!"))), r.EOI), "\u00e9!", False),
    (r.seq(r.capture(r.one_or_more(r.char_pred(_HIGH_BIT))), r.EOI), "\u00e9", False),
    (r.seq(r.capture(r.seq(r.NoneOf(_HIGH_BIT), r.ch("!"))), r.EOI), "\u00e9!", True),
])
def test_mask_bits_at_or_above_128_are_no_members_on_any_path(expr, text, ok):
    # a regex fragment of the generated code, a fused scan in both forms and a
    # none-of set, each against the reference
    assert _HIGH_BIT.contains("\u00e9") is False
    g = _grammar(expr)
    parser = generated(g)
    expected = ref_run(g, text)
    assert expected[0] is ok
    values = expected[2] if ok else None
    assert parser.run(text).values == values
    assert parser.run(text, observer=Trace([])).values == values
    state = parser.run_phase(text)
    assert (state.cursor, state.stack.values()) == expected[1:]


def _exact_counts(parser, text):
    """(matched, cursor, steps, terminal mismatches, max cursor, stack) of the
    start rule on the exact table."""
    state = ParserState(text)
    ok = parser.match_rule(state, parser.grammar.start)
    stats = state.stats
    return (ok, state.cursor, stats.steps, stats.terminal_mismatches, stats.max_cursor,
            tuple(state.stack.values()))


def _reference_counts(grammar, text):
    """The same counts from the reference interpreter, which takes no
    shortcut: one step per expression matched."""
    mismatches, steps = [], [0]
    ok, pos, stack = ref_run(grammar, text, mismatches=mismatches, steps=steps)
    return ok, pos, steps[0], len(mismatches), max(mismatches, default=0), stack


def test_fused_character_runs_count_like_single_steps():
    # the exact table scans a repeated single-character terminal in one go;
    # the reference steps through it one attempt at a time
    terminals = [r.ch("a"), r.ANY, r.char_pred(DIGIT), r.any_of("a1"), r.any_of("aé"),
                 r.none_of("b"), r.none_of("bé")]
    texts = ["", "a", "aa1b", "éa", "1é1", "bbb", "aéaé", "\n\n"]
    for terminal in terminals:
        for repeat in (r.zero_or_more, r.one_or_more):
            for expr in (repeat(terminal), r.capture(repeat(terminal))):
                g = _grammar(r.seq(expr, r.ANY))
                parser = Parser(g)
                for text in texts:
                    assert _exact_counts(parser, text) == _reference_counts(g, text), \
                        (expr, text)


def test_exact_runs_count_like_the_reference_on_random_grammars():
    # the reference takes none of the exact table's shortcuts (fused scans
    # and captures), so it is their oracle; it bundles collecting
    # repetitions as the engine does, so the stacks must agree too
    rng = random.Random(20261018)
    for i in range(150):
        make, alphabet = [(gen_grammar, ALPHABET), (gen_sound_grammar, ALPHABET),
                          (gen_lowerable_grammar, LOWERABLE_ALPHABET)][i % 3]
        g = make(rng)
        parser = Parser(g)
        for _ in range(3):
            text = gen_input(rng, alphabet=alphabet)
            assert _exact_counts(parser, text) == _reference_counts(g, text), (g, text)


def _counted(state, ok):
    stats = state.stats
    return (ok, state.cursor, [render_value(v) for v in state.stack.values()],
            stats.steps, stats.terminal_mismatches, stats.max_cursor)


# (expression, input) -> (matched, cursor, rendered stack, steps, terminal
# mismatches, max cursor) of a plain match of the expression as written,
# pinned from an engine that opened a frame for every sequence, predicate
# and capture, as this one does for all but the fused captures
SHORTCUT_CASES = [
    # a sequence whose only child is a terminal (validation would collapse it)
    (r.Sequence((r.ch("a"),)), "a", (True, 1, [], 2, 0, 0)),
    (r.Sequence((r.ch("a"),)), "b", (False, 0, [], 2, 1, 0)),
    (r.Sequence((r.ch("a"),)), "", (False, 0, [], 2, 1, 0)),
    # a terminal head followed only by an action
    (r.seq(r.ch("a"), cons("Leaf", 0)), "a", (True, 1, ["Leaf()"], 3, 0, 0)),
    (r.seq(r.ch("a"), cons("Leaf", 0)), "b", (False, 0, [], 2, 1, 0)),
    (r.seq(r.Str("ab"), r.push(str_value("x"))), "ab", (True, 2, ['"x"'], 3, 0, 0)),
    (r.seq(r.Str("ab"), r.push(str_value("x"))), "ax", (False, 0, [], 2, 1, 0)),
    # predicates over a terminal: no mismatch is registered under '!'
    (r.not_pred(r.ch("x")), "x", (False, 0, [], 2, 0, 0)),
    (r.not_pred(r.ch("x")), "y", (True, 0, [], 2, 0, 0)),
    (r.not_pred(r.ch("x")), "", (True, 0, [], 2, 0, 0)),
    (r.and_pred(r.ch("x")), "x", (True, 0, [], 2, 0, 0)),
    (r.and_pred(r.ch("x")), "y", (False, 0, [], 2, 1, 0)),
    (r.and_pred(r.ch("x")), "", (False, 0, [], 2, 1, 0)),
    # fused captures: an empty run pushes "", and a set with a non-ASCII
    # character scans without a regex
    (r.capture(r.zero_or_more(r.char_pred(DIGIT))), "a", (True, 0, ['""'], 3, 1, 0)),
    (r.capture(r.zero_or_more(r.char_pred(DIGIT))), "12a", (True, 2, ['"12"'], 5, 1, 2)),
    (r.capture(r.one_or_more(r.none_of("bé"))), "aé", (True, 1, ['"a"'], 4, 1, 1)),
    (r.capture(r.one_or_more(r.none_of("bé"))), "xyzb", (True, 3, ['"xyz"'], 6, 1, 3)),
    (r.capture(r.one_or_more(r.none_of("bé"))), "b", (False, 0, [], 3, 1, 0)),
    (r.capture(r.one_or_more(r.none_of("bé"))), "", (False, 0, [], 3, 1, 0)),
]


@pytest.mark.parametrize("expr, text, expected", SHORTCUT_CASES)
def test_shortcut_runs_are_pinned(expr, text, expected):
    state = _state(text)
    assert _counted(state, _match(_grammar(expr), state, expr)) == expected


# sequences and predicates over a terminal, and fused scans, by shape, and
# where the shape sits: as the start rule's root, inside its root choice,
# or as the root of a rule one reference below; a fused scan logs the steps
# it stands for
SHORTCUT_SHAPES = {
    "not_pred": r.not_pred(r.ch("a")),
    "and_pred": r.and_pred(r.ch("a")),
    "headed_seq": r.seq(r.ch("a"), r.ch("b")),
    "one_child_seq": r.Sequence((r.ch("a"),)),
    "fused_star": r.zero_or_more(r.any_of("ab")),
    "fused_plus": r.one_or_more(r.ch("a")),
    "fused_capture": r.capture(r.one_or_more(r.char_pred(DIGIT))),
}
SHORTCUT_PLACES = {
    "root": lambda shape: {"Top": shape},
    "inside": lambda shape: {"Top": r.first_of(shape, r.ch("z"))},
    "below": lambda shape: {"Top": r.first_of(r.ref("Inner"), r.ch("z")), "Inner": shape},
}
# (shape, place, input) -> trace lines without their step numbers, as the
# engine logged them when observed runs took a table without shortcuts
SHORTCUT_TRACES = [
    ('not_pred', 'root', 'a', ['Top @ 0 -> start', "'a' @ 0 -> match (0->1)",
        'Top @ 0 -> mismatch']),
    ('and_pred', 'root', 'b', ['Top @ 0 -> start', "'a' @ 0 -> mismatch", 'Top @ 0 -> mismatch']),
    ('headed_seq', 'root', 'ab', ['Top @ 0 -> start', "'a' @ 0 -> match (0->1)",
        "'b' @ 1 -> match (1->2)", 'Top @ 0 -> match (0->2)']),
    ('headed_seq', 'root', 'ac', ['Top @ 0 -> start', "'a' @ 0 -> match (0->1)",
        "'b' @ 1 -> mismatch", 'Top @ 0 -> mismatch']),
    ('one_child_seq', 'root', 'a', ['Top @ 0 -> start', "'a' @ 0 -> match (0->1)",
        'Top @ 0 -> match (0->1)']),
    ('fused_star', 'root', 'abz', ['Top @ 0 -> start', '[ab] @ 0 -> match (0->1)',
        '[ab] @ 1 -> match (1->2)', '[ab] @ 2 -> mismatch', 'Top @ 0 -> match (0->2)']),
    ('fused_plus', 'root', 'b', ['Top @ 0 -> start', "'a' @ 0 -> mismatch",
        'Top @ 0 -> mismatch']),
    ('fused_capture', 'root', '12x', ['Top @ 0 -> start', '[0-9] @ 0 -> match (0->1)',
        '[0-9] @ 1 -> match (1->2)', '[0-9] @ 2 -> mismatch', 'Top @ 0 -> match (0->2)']),
    ('not_pred', 'inside', 'a', ['Top @ 0 -> start', "'a' @ 0 -> match (0->1)",
        "!'a' / 'z' @ 0 -> reset (0->0)", "'z' @ 0 -> mismatch", 'Top @ 0 -> mismatch']),
    ('and_pred', 'inside', 'b', ['Top @ 0 -> start', "'a' @ 0 -> mismatch",
        "&'a' / 'z' @ 0 -> reset (0->0)", "'z' @ 0 -> mismatch", 'Top @ 0 -> mismatch']),
    ('headed_seq', 'inside', 'ab', ['Top @ 0 -> start', "'a' 'b' @ 0 -> start",
        "'a' @ 0 -> match (0->1)", "'b' @ 1 -> match (1->2)", "'a' 'b' @ 0 -> match (0->2)",
        'Top @ 0 -> match (0->2)']),
    ('headed_seq', 'inside', 'ac', ['Top @ 0 -> start', "'a' 'b' @ 0 -> start",
        "'a' @ 0 -> match (0->1)", "'b' @ 1 -> mismatch", "'a' 'b' / 'z' @ 0 -> reset (1->0)",
        "'z' @ 0 -> mismatch", 'Top @ 0 -> mismatch']),
    ('one_child_seq', 'inside', 'a', ['Top @ 0 -> start', "'a' @ 0 -> start",
        "'a' @ 0 -> match (0->1)", "'a' @ 0 -> match (0->1)", 'Top @ 0 -> match (0->1)']),
    ('fused_star', 'inside', 'abz', ['Top @ 0 -> start', '[ab] @ 0 -> match (0->1)',
        '[ab] @ 1 -> match (1->2)', '[ab] @ 2 -> mismatch', 'Top @ 0 -> match (0->2)']),
    ('fused_plus', 'inside', 'b', ['Top @ 0 -> start', "'a' @ 0 -> mismatch",
        "'a'+ / 'z' @ 0 -> reset (0->0)", "'z' @ 0 -> mismatch", 'Top @ 0 -> mismatch']),
    ('fused_capture', 'inside', '12x', ['Top @ 0 -> start', '[0-9] @ 0 -> match (0->1)',
        '[0-9] @ 1 -> match (1->2)', '[0-9] @ 2 -> mismatch', 'Top @ 0 -> match (0->2)']),
    ('not_pred', 'below', 'a', ['Top @ 0 -> start', 'Inner @ 0 -> start',
        "'a' @ 0 -> match (0->1)", 'Inner @ 0 -> mismatch', "Inner / 'z' @ 0 -> reset (0->0)",
        "'z' @ 0 -> mismatch", 'Top @ 0 -> mismatch']),
    ('and_pred', 'below', 'b', ['Top @ 0 -> start', 'Inner @ 0 -> start', "'a' @ 0 -> mismatch",
        'Inner @ 0 -> mismatch', "Inner / 'z' @ 0 -> reset (0->0)", "'z' @ 0 -> mismatch",
        'Top @ 0 -> mismatch']),
    ('headed_seq', 'below', 'ab', ['Top @ 0 -> start', 'Inner @ 0 -> start',
        "'a' @ 0 -> match (0->1)", "'b' @ 1 -> match (1->2)", 'Inner @ 0 -> match (0->2)',
        'Top @ 0 -> match (0->2)']),
    ('headed_seq', 'below', 'ac', ['Top @ 0 -> start', 'Inner @ 0 -> start',
        "'a' @ 0 -> match (0->1)", "'b' @ 1 -> mismatch", 'Inner @ 0 -> mismatch',
        "Inner / 'z' @ 0 -> reset (1->0)", "'z' @ 0 -> mismatch", 'Top @ 0 -> mismatch']),
    ('one_child_seq', 'below', 'a', ['Top @ 0 -> start', 'Inner @ 0 -> start',
        "'a' @ 0 -> match (0->1)", 'Inner @ 0 -> match (0->1)', 'Top @ 0 -> match (0->1)']),
    ('fused_star', 'below', 'abz', ['Top @ 0 -> start', 'Inner @ 0 -> start',
        '[ab] @ 0 -> match (0->1)', '[ab] @ 1 -> match (1->2)', '[ab] @ 2 -> mismatch',
        'Inner @ 0 -> match (0->2)', 'Top @ 0 -> match (0->2)']),
    ('fused_plus', 'below', 'b', ['Top @ 0 -> start', 'Inner @ 0 -> start', "'a' @ 0 -> mismatch",
        'Inner @ 0 -> mismatch', "Inner / 'z' @ 0 -> reset (0->0)", "'z' @ 0 -> mismatch",
        'Top @ 0 -> mismatch']),
    ('fused_capture', 'below', '12x', ['Top @ 0 -> start', 'Inner @ 0 -> start',
        '[0-9] @ 0 -> match (0->1)', '[0-9] @ 1 -> match (1->2)', '[0-9] @ 2 -> mismatch',
        'Inner @ 0 -> match (0->2)', 'Top @ 0 -> match (0->2)']),
]


@pytest.mark.parametrize("shape, place, text, expected", SHORTCUT_TRACES)
def test_shortcuts_trace_the_steps_they_stand_for(shape, place, text, expected):
    parser = Parser(r.grammar(SHORTCUT_PLACES[place](SHORTCUT_SHAPES[shape])))
    ran, matched = [], []
    parser.run(text, observer=Trace(ran))
    state = ParserState(text)
    state.observer = Trace(matched)
    parser.match_rule(state, "Top")
    for events in (ran, matched):
        assert [e.step for e in events] == list(range(1, len(events) + 1))
        assert [format_trace_event(e).split(": ", 1)[1] for e in events] == expected


def test_head_mismatch_at_the_principal_index_is_collected_with_its_rules():
    g = _grammar(r.seq(r.ch("a"), r.ref("Inner")),
                 Inner=r.first_of(r.seq(r.ch("b"), r.ch("c")), r.seq(r.ch("d"), r.ch("e"))))
    state, traces = Parser(g).error_pass("ax")
    assert state.stats.max_cursor == principal_error_index(Parser(g), "ax")
    assert [(t.frames, t.terminal.text) for t in traces] == [
        (("Top", "Inner"), "b"), (("Top", "Inner"), "d")]
    assert generated(g).run("ax").error.traces == tuple(traces)


def test_prioritized_choice_commits_to_first_success():
    calls = []

    def probe(tag):
        def fn():
            calls.append(tag)
        return r.Action(0, fn, StackEffect((), ()), name=f"probe{tag}")

    expr = r.first_of(r.seq(r.ch("a"), probe(1)), r.seq(r.ch("a"), probe(2)))
    g = _grammar(expr)
    state = _state("a")
    assert _match(g, state, expr)
    assert calls == [1]  # the second alternative is never attempted


def test_zero_or_more_is_total():
    rng = random.Random(5)
    g = _grammar(r.ch("a"))
    for _ in range(300):
        inner = gen_neutral(rng, 3, [])
        state = _state(gen_input(rng))
        assert _match(g, state, r.zero_or_more(inner))


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
    assert _match(g, state, expr)
    assert seen["args"] == (str_value("bottom"), str_value("mid"), str_value("top"))
    assert state.stack.values() == ()  # unit action pushes nothing


def test_action_failure_restores_popped_values():
    def fn(v):
        return ACTION_FAIL

    action = r.Action(1, fn, StackEffect(("Str",), ()), name="nope")
    expr = r.seq(r.push(str_value("v")), action)
    g = _grammar(expr)
    state = _state("")
    assert not _match(g, state, expr)
    assert state.stack.values() == ()  # sequence failure restored everything

    state = _state("")
    state.stack.push(str_value("v"))
    assert not _match(g, state, action)
    assert state.stack.values() == (str_value("v"),)


def test_action_can_push_multiple_values():
    def fn():
        return (str_value("1"), str_value("2"))

    action = r.Action(0, fn, StackEffect((), ("Str", "Str")), name="two")
    g = _grammar(action)
    state = _state("")
    assert _match(g, state, action)
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


def test_cons_runs_like_an_equivalent_general_action():
    # the executor builds cons nodes itself; a hand-written action with the
    # same effect takes the general path and must agree step for step
    def pair(a, b):
        return node_value("Pair", a, b)

    general = r.Action(2, pair, StackEffect(("*", "*"), ("Node",)), name="pair")
    for text in ("ab", "ba", "abab", "a"):
        outcomes = []
        for action in (cons("Pair", 2), general):
            g = _grammar(r.one_or_more(r.seq(r.capture(r.ch("a")), r.capture(r.ch("b")), action)))
            state = _state(text)
            ok = Parser(g).match_rule(state, "Top")
            outcomes.append((ok, state.cursor, state.stack.values(), state.stats.steps,
                             state.stats.terminal_mismatches))
        assert outcomes[0] == outcomes[1]


def test_cons_with_no_arity_builds_a_leaf():
    result = Parser(_grammar(cons("Leaf", 0))).run("")
    assert result.values == (node_value("Leaf"),)


def test_cons_underflow_is_the_stack_fault():
    g = _grammar(r.seq(r.capture(r.ch("a")), cons("Pair", 2)))
    result = Parser(g).run("a")
    assert result.fault == InternalFault("value stack underflow: pop from empty value stack")
    with pytest.raises(StackUnderflow, match="pop from empty value stack"):
        Parser(tag_checked(g)[0]).match_rule(ParserState("a"), "Top")


def test_cons_tag_mismatches_are_recorded_when_checked():
    expr = r.seq(r.capture(r.ch("a")), r.capture(r.ch("b")),
                 cons("Pair", 2, pops=("Node", "Str")))
    g = _grammar(expr)
    checked, findings = tag_checked(g)
    for grammar, mismatches in ((checked, [("cons(Pair,2)", "Node", "Str")]), (g, [])):
        state = ParserState("ab")
        assert Parser(grammar).match_rule(state, "Top")
        assert findings == mismatches
        findings.clear()
        assert [render_value(v) for v in state.stack.values()] == ['Pair("a","b")']


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


# -- the objects a value is made of -----------------------------------------------------

def _shape(value):
    """Counts of the nodes, lists and other values in a value."""
    nodes = lists = leaves = 0
    todo = [value]
    while todo:
        payload = todo.pop().payload
        if isinstance(payload, Node):
            nodes += 1
            todo.extend(payload.children)
        elif type(payload) is tuple:
            lists += 1
            todo.extend(payload)
        else:
            leaves += 1
    return nodes, lists, leaves


def _tracked(root):
    """The GC-tracked objects reachable from root; classes are not followed."""
    seen, todo, count = {id(root)}, [root], 0
    while todo:
        obj = todo.pop()
        if not gc.is_tracked(obj) or isinstance(obj, type):
            continue
        count += 1
        for ref in gc.get_referents(obj):
            if id(ref) not in seen:
                seen.add(id(ref))
                todo.append(ref)
    return count


@pytest.mark.parametrize("grammar, text", [
    ("grammars/calc.peg", big_expression(random.Random(7), 5_000)),
    ("bench/json.peg", json.dumps([{"id": i, "name": f"n{i}", "ok": i % 2 == 0,
                                    "xs": [1.5, -2e3], "none": None} for i in range(60)])),
], ids=["calc", "json"])
def test_a_node_is_one_tracked_object_besides_its_children(grammar, text):
    # a cons node of one or two children, one Node; a capture, one Value; a
    # collected list, one Value and its tuple
    value, = Parser(load_grammar(ROOT / grammar)).run(text).values
    nodes, lists, leaves = _shape(value)
    assert nodes > 1_000 and (lists > 100) == grammar.startswith("bench")
    assert _tracked(value) <= nodes + 2 * lists + leaves + 4


# -- restoration and stack invariants ----------------------------------------------------

def test_failure_restores_cursor_and_stack_randomized():
    rng = random.Random(11)
    for _ in range(400):
        g = gen_grammar(rng)
        parser = Parser(g)
        text = gen_input(rng)
        state = _state(text, stack=[str_value("a"), node_value("N")],
                       cursor=rng.randrange(len(text) + 1))
        before = (state.cursor, state.stack.values())
        if not parser.match_rule(state, "Top"):
            assert (state.cursor, state.stack.values()) == before


def test_standard_expressions_never_change_stack():
    rng = random.Random(23)
    g = _grammar(r.ch("a"))
    for _ in range(400):
        expr = gen_neutral(rng, 3, [])
        if _has_stack_ops(expr):
            continue
        state = _state(gen_input(rng), stack=[str_value("s")])
        _match(g, state, expr)
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
    result = Parser(calc_grammar).run("1+2", start="InputLine", mode="result")
    assert result.ok and result.error is None and result.fault is None


def test_delivery_mode_either(calc_grammar):
    values, err = Parser(calc_grammar).run("1+2", start="InputLine", mode="either")
    assert err is None and len(values) == 1
    values, err = Parser(calc_grammar).run("1+2!3", start="InputLine", mode="either")
    assert values is None and err.position.index == 3

    g = _grammar(r.seq(r.ch("a"), r.drop(1)))  # underflows at runtime
    values, err = Parser(g).run("a", start="Top", mode="either")
    assert values is None and isinstance(err, InternalFault)


def test_delivery_mode_raising(calc_grammar):
    values = Parser(calc_grammar).run("1+2", start="InputLine", mode="raising")
    assert len(values) == 1
    with pytest.raises(ParseFailed) as exc:
        Parser(calc_grammar).run("1+2!3", start="InputLine", mode="raising")
    assert "Invalid input" in str(exc.value)

    g = _grammar(r.seq(r.ch("a"), r.drop(1)))
    with pytest.raises(EngineFault):
        Parser(g).run("a", start="Top", mode="raising")


def test_unknown_delivery_mode(calc_grammar):
    with pytest.raises(ValueError):
        Parser(calc_grammar).run("1", start="InputLine", mode="maybe")


def test_an_unknown_delivery_mode_is_rejected_before_the_run(calc_grammar):
    # an input long enough to write the grammar's module, were it parsed
    parser, text = Parser(calc_grammar), "1+" * (GENERATE_AT // 2) + "1"
    with recorded_states() as states:
        with pytest.raises(ValueError, match="'Either'"):
            parser.run(text, mode="Either")
    assert (states, parser._asked, parser._modules) == ([], 0, {})
    assert parser.run(text, mode="either")[1] is None and source_of(parser) is not None


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


# -- pinned counters --------------------------------------------------------------------

# (grammar file, input) -> (steps, terminal mismatches, max cursor) of a plain
# run; criteria 7 and 9 and the benchmark read these counters, so a change of
# engine must leave them exactly as they are
PINNED_COUNTERS = [
    ("grammars/calc.peg", "1+(2-3*4)/5", (125, 20, 11)),
    ("grammars/calc.peg", "1+2!3", (48, 9, 3)),
    ("grammars/foo.peg", "abd", (9, 1, 2)),
    ("bench/json.peg", '{"a": [1, 2.5e3, {"b": null}], "c": "x\\"y"}', (314, 56, 43)),
    ("bench/json.peg", "[1e", (79, 23, 3)),
]


@pytest.mark.parametrize("path, text, counters", PINNED_COUNTERS)
def test_counters_are_pinned(path, text, counters):
    grammar = load_grammar(ROOT / path)
    stats = Parser(grammar).run_phase(text).stats
    assert (stats.steps, stats.terminal_mismatches, stats.max_cursor) == counters


# -- the generated code -------------------------------------------------------------------

def _exact_instructions(parser):
    """(rule name, instruction) for each instruction of the exact table, once,
    under the rule whose body holds it."""
    for name, body in parser._tables.bodies.items():
        todo = [body]
        while todo:
            ins = todo.pop()
            if ins[0] is None or type(ins[0]) is tuple:  # a tuple of children
                todo.extend(x for x in ins if x is not None)
                continue
            yield name, ins
            todo.extend(x for x in ins if isinstance(x, tuple) and x)


def _fragments(parser):
    """Generated function (a rule's by the rule's name) -> the capture flags
    of the regex fragments its code runs, read from the kept source: a
    fragment that captures pushes the slice it matched, as a value onto ``h``
    or as text into a local of the register form, one that cannot fail only
    moves."""
    found, function = {}, None
    for line in source_of(parser).splitlines():
        opened = re.match(r"    def f\(pos, d\):  # (\w+)$", line)
        if opened:
            function = opened.group(1)
        fragment = re.search(r"if m\d+: (h = \(Value\(|v\d+ = text\[)|pos = (m\d+)\.end\(\) if \(\2 := "
                             r"|pos = M\d+\(text, pos\)\.end\(\)$", line)
        if fragment:
            found.setdefault(function, []).append(fragment.group(0).startswith("if"))
    return found


def test_fast_table_lowers_the_json_captures_and_nothing_of_calc(calc_grammar):
    # the generated code, which replaced the fast table, lowers the same
    # fragments, in each copy of their rule run in place: Value's three in
    # the start rule's function, Elements' two Values in its own, and
    # Members' two Members in its own, each a String key and a Value.
    # String, Number and Literal run only in place, so no function is theirs
    parser = generated(load_grammar(ROOT / "bench/json.peg"))
    assert parser.run('{"a": [1, -2.5e3, true, null], "b": "x\\"y"}').ok
    assert _fragments(parser) == {"Document": [True] * 3, "Elements": [True] * 6,
                                  "Members": [True] * 8}
    parser = generated(calc_grammar)
    assert parser.run("1+(2-3*4)/5").ok
    assert _fragments(parser) == {}


FAST_EDGE_CASES = [
    # '.' is DOTALL; a none-of set takes non-ASCII letters and newlines
    (r.seq(r.ANY, r.opt(r.ch("x"))), ["\n", "", "x"], True),
    (r.seq(r.none_of("+"), r.opt(r.ch("x"))), ["é", "\n", "+"], True),
    # EOI is \Z: a trailing newline is not the end of the input
    (r.seq(r.ch("a"), r.EOI), ["a\n", "a"], True),
    (r.seq(r.Str(""), r.opt(r.ch("a"))), ["a", ""], True),
    # PEG never gives input back: a choice commits, ? and * keep what they took
    (r.seq(r.first_of(r.ch("a"), r.Str("ab")), r.ch("c")), ["abc", "ac"], True),
    (r.seq(r.opt(r.ch("a")), r.ch("a")), ["a", "aa"], True),
    (r.seq(r.zero_or_more(r.any_of("ab")), r.ch("b")), ["abb", "abc"], True),
    # nullable repetition bodies end the loop as the engine does
    (r.zero_or_more(r.opt(r.ch("a"))), ["aab", ""], True),
    (r.zero_or_more(r.and_pred(r.ch("a"))), ["ab", "b"], True),
    # decided in Python, or where str.lower and re.IGNORECASE differ: left as instructions
    (r.seq(r.one_or_more(r.none_of("bé")), r.ch("x")), ["ax", "aéx", "bx"], False),
    (r.seq(r.ignore_case("k"), r.ch("x")), ["Kx", "\u212ax", "kx", "x"], False),
]


@pytest.mark.parametrize("expr, texts, lowered", FAST_EDGE_CASES)
def test_fast_table_agrees_with_the_exact_table_on_edge_cases(expr, texts, lowered):
    # the generated code, which replaced the fast table; unvalidated, so
    # that the empty literal stays in
    parser = generated(r.grammar({"Top": r.capture(expr)}))
    for text in texts:
        state = ParserState(text)
        ok = parser.match_rule(state, "Top")
        result = parser.run(text)
        assert result.kind == ("success" if ok else "parse-failure"), text
        assert result.values == (state.stack.values() if ok else None), text
    assert _fragments(parser) == ({"Top": [True]} if lowered else {})


_A_OR_E = r.CharPredicate.from_chars("a\u00e9")  # 'é' is decided by its extra function


def _boom():
    raise ZeroDivisionError("1/0")


# expression -> texts and the opcode of the generated choice, repetition or
# option that dispatches on its head; each alternative captures, so that no
# regex swallows the choice
DISPATCH_CASES = [
    # a non-ASCII next character: a class with extra, a none-of set, a non-ASCII Ch
    (r.first_of(r.seq(r.char_pred(_A_OR_E), r.capture(r.ANY)), r.capture(r.ch("x"))),
     ["\u00e9z", "az", "x", "bz", "\u00fcz"], ALT),
    (r.zero_or_more(r.seq(r.char_pred(_A_OR_E), r.capture(r.ANY))),
     ["\u00e9xa\u00e9", "\u00e9\u00e9b", "b"], REP),
    (r.first_of(r.seq(r.none_of("+"), r.capture(r.ch("x"))), r.capture(r.ch("+"))),
     ["\u00e9x", "+", "\nx", "\u00e9"], ALT),
    (r.opt(r.seq(r.none_of("+"), r.capture(r.ANY))), ["\u00e9x", "+x", ""], OPT),
    (r.first_of(r.seq(r.ch("\u00e9"), r.capture(r.ANY)), r.seq(r.ch("\u00fc"), r.capture(r.ANY)),
                r.capture(r.ANY)), ["\u00e9a", "\u00fcb", "\u00f6", "\u00e9"], ALT),
    # end of input starts only what has no head
    (r.first_of(r.capture(r.ch("a")), r.seq(r.EOI, r.capture(r.lit("")))), ["", "a", "b"], ALT),
    (r.first_of(r.seq(r.ANY, r.capture(r.ANY)), r.capture(r.lit(""))), ["", "a", "ab"], ALT),
    (r.seq(r.zero_or_more(r.capture(r.ch("a"))), r.EOI), ["", "aa", "ab"], REP),
    # no head, so always tried: an empty literal, ignore case, predicates, a
    # nullable first child
    (r.first_of(r.seq(r.lit(""), r.capture(r.ch("b"))), r.capture(r.ch("a"))), ["b", "a"], ALT),
    (r.first_of(r.seq(r.ignore_case("k"), r.capture(r.ANY)), r.capture(r.ch("K"))),
     ["Kx", "kx", "K", "\u212ax"], ALT),
    (r.first_of(r.seq(r.not_pred(r.capture(r.ch("a"))), r.capture(r.ANY)), r.capture(r.ch("a"))),
     ["b", "a", ""], ALT),
    (r.first_of(r.seq(r.and_pred(r.capture(r.ch("b"))), r.capture(r.ANY)), r.capture(r.ch("c"))),
     ["b", "c"], ALT),
    (r.first_of(r.seq(r.opt(r.capture(r.ch("a"))), r.capture(r.ch("b"))), r.capture(r.ch("c"))),
     ["b", "ab", "c"], ALT),
    (r.first_of(r.seq(r.zero_or_more(r.ch("a")), r.capture(r.ch("b"))), r.capture(r.ch("c"))),
     ["b", "aab", "c"], ALT),
    (r.first_of(r.seq(r.zero_or_more(r.capture(r.ch("a"))), r.capture(r.ch("b"))),
                r.capture(r.ch("c"))), ["b", "aab", "c"], ALT),
    # an action or drop first in an alternative still runs, and faults
    (r.first_of(r.seq(r.drop(1), r.capture(r.ch("a"))), r.capture(r.ch("b"))), ["b", "a"], ALT),
    (r.first_of(r.seq(r.Action(0, _boom, StackEffect((), ()), name="boom"), r.capture(r.ch("a"))),
                r.capture(r.ch("b"))), ["b", "a"], ALT),
    # a collecting * and ? that end at once push their empty list
    (r.seq(r.zero_or_more(r.capture(r.ch("a"))), r.capture(r.ch("b"))), ["b", "aab", ""], REP),
    (r.seq(r.opt(r.capture(r.ch("a"))), r.capture(r.ch("b"))), ["b", "ab", ""], OPT),
    # a + whose body cannot start fails
    (r.first_of(r.seq(r.lit(""), r.one_or_more(r.capture(r.ch("a")))), r.capture(r.ch("b"))),
     ["b", "aa", ""], REP),
    # two candidates for one character, tried in order
    (r.first_of(r.seq(r.ch("a"), r.capture(r.ch("b"))), r.seq(r.ch("a"), r.capture(r.ch("c"))),
                r.capture(r.ch("d"))), ["ab", "ac", "ad", "d"], ALT),
    # a none-of set without members takes a newline
    (r.first_of(r.seq(r.none_of(""), r.capture(r.ANY)), r.capture(r.ch("\n"))),
     ["\n", "\nx", "x\n"], ALT),
]


def _exact_outcome(parser, text):
    """(kind, values, fault) of match_rule on the exact table."""
    state = ParserState(text)
    try:
        ok = parser.match_rule(state, "Top")
    except StackUnderflow as exc:
        return "internal-fault", None, f"value stack underflow: {exc}"
    except ActionRaised as exc:
        return "internal-fault", None, str(exc)
    return ("success", state.stack.values(), None) if ok else ("parse-failure", None, None)


# where each dispatching opcode keeps its operand
_DISPATCH_AT = {ALT: 4, REP: 6, OPT: 4}


def _dispatching(parser):
    """Opcodes of the exact instructions that dispatch in the generated code:
    the choices, repetitions and options with a filled operand."""
    return [ins[0] for _, ins in _exact_instructions(parser)
            if ins[0] in _DISPATCH_AT and ins[_DISPATCH_AT[ins[0]]]]


# explicit ids, which keep the names the suite has always reported for these
# cases; their numbers follow no opcode
_DISPATCH_IDS = [f"expr{i}-texts{i}-{ {ALT: 22, REP: 23, OPT: 24}[case[2]] }"
                 for i, case in enumerate(DISPATCH_CASES)]


@pytest.mark.parametrize("expr, texts, op", DISPATCH_CASES, ids=_DISPATCH_IDS)
def test_head_dispatch_agrees_with_the_exact_table(expr, texts, op):
    parser = generated(r.grammar({"Top": expr}))  # unvalidated, so that empty literals stay
    assert op in _dispatching(parser)
    for text in texts:
        result = parser.run(text)
        fault = None if result.fault is None else result.fault.description
        assert (result.kind, result.values, fault) == _exact_outcome(parser, text), text
        if result.error is not None:  # the error pass that dispatches below its bound
            assert result.error == build_parse_error(parser, text), text


def test_a_choice_at_the_end_of_the_input_runs_only_what_has_no_head():
    # a none-of set has a wide head: any character it does not list may start
    # it, but the end of the input does not; no value shows the difference,
    # but the none-of set's mismatch does: the exact table, which runs every
    # alternative, counts it at the end of the input and at '+', and the
    # generated code, which runs only the alternative without a head there,
    # does not
    expr = r.first_of(r.seq(r.none_of("+"), r.capture(r.ANY)), r.capture(r.lit("")))
    parser = generated(r.grammar({"Top": expr}))
    for text, exact, captured in (("", 1, ""), ("+", 1, ""), ("xy", 0, "y")):
        assert parser.run_phase(text).stats.terminal_mismatches == exact, text
        with recorded_states() as states:
            assert parser.run(text).values == (Value("Str", captured),), text
        (state,) = states
        assert (state.stats.steps, state.stats.terminal_mismatches) == (0, 0), text


def test_json_value_dispatches_through_the_rules_on_its_cycle(calc_grammar):
    # Object and Array are on Value's reference cycle, and their heads
    # ('{' and '[') leave them out where the next character rules them out;
    # Number and Literal start with a capture of a regex, whose head its
    # nodes give through the nullable '-'?: each character offers one rule
    parser = generated(load_grammar(ROOT / "bench/json.peg"))
    value = parser._tables.bodies["Value"]
    assert value[0] == ALT and value[4]

    def offered(c):
        kids, (by_char, other, _) = value[2][:-1], value[4]
        bits = by_char.get(c, other)
        candidates = [kids[i] for i in range(len(kids)) if bits >> i & 1]
        assert all(ins[0] == REF for ins in candidates)
        return [ins[2] for ins in candidates]

    assert offered('"') == ["String"]
    assert offered("{") == ["Object"]
    assert offered("[") == ["Array"]
    assert offered("1") == offered("-") == ["Number"]
    assert offered("t") == offered("n") == ["Literal"]
    assert offered("x") == offered(" ") == []
    for text in ['{"a": [1, -2.5e3, true, null], "b": "x\\"y"}', '[[], {}, [{"k": [[]]}]]',
                 '{"a" 1}', "[1, 2", '"x', "[tru]", "{}}", ""]:
        assert parser.run(text) == parser.run(text, observer=Trace([])), text  # the exact table
    # calc's heads do not change: its rules on a cycle are never offered by a choice or loop
    assert sorted(_dispatching(Parser(calc_grammar))) == [ALT] * 3 + [REP] * 2


def test_a_grammar_too_deep_to_compile_is_an_internal_fault():
    fault = InternalFault("grammar nested too deeply to compile")
    src = "'a'"
    for _ in range(200):
        src = f"('b' {src})?"
    g = parse_grammar(f"Top <- {src} EOI\n")
    assert Parser(g).run("bba") == RunResult(fault=fault)
    assert Parser(g).run("bba", mode="either") == (None, fault)
    e = r.ch("a")
    for _ in range(400):
        e = r.opt(r.seq(r.ch("b"), e))
    parser = Parser(r.grammar({"Top": e}))  # unvalidated: validation recurses too
    assert parser.run("bb").fault == fault
    with pytest.raises(EngineFault, match="grammar nested too deeply to compile"):
        parser.match_rule(ParserState("bb"), "Top")
    for collect in (False, True):  # writing a module raises the fault too, and keeps nothing
        with pytest.raises(EngineFault, match="grammar nested too deeply to compile"):
            parser._generate(collect=collect)
    assert parser._modules == {}


def test_a_grammar_150_levels_deep_compiles_and_runs():
    e = r.ch("a")
    for _ in range(150):
        e = r.opt(r.seq(r.ch("b"), e))
    parser = generated(_grammar(e))
    assert parser.run("bba").values == ()
    assert parser.run("bb", observer=Trace([])).values == ()


def test_a_parser_is_built_whole_before_its_first_run():
    g = _grammar(r.seq(r.ref("Word"), r.EOI), Word=r.capture(r.one_or_more(r.any_of("ab"))),
                 Unused=r.seq(r.ch("x"), r.ref("Word")))
    parser = generated(g)
    tables, module = parser._tables, parser._modules["Top", False]
    source = source_of(parser)
    exact = tables.bodies
    assert exact.keys() == {"Top", "Word", "Unused"}
    # the module holds Top's function, with Word in place; nothing reaches Unused
    assert [name for name in exact if f"def f(pos, d):  # {name}\n" in source] == ["Top"]
    before = dict(vars(tables)), dict(exact)
    assert parser.run("ab").ok and parser.run("ax").error is not None
    assert parser.run("ab", observer=Trace([])).ok  # a traced run adds no table either
    state = ParserState("ab")
    state.observer = Trace([])
    assert parser.match_rule(state, "Top")
    assert parser._tables is tables and parser._modules["Top", False] is module
    assert (dict(vars(tables)), dict(exact)) == before


def test_an_unknown_start_rule_raises_key_error_naming_it():
    parser = Parser(_grammar(r.ch("a")))
    with pytest.raises(KeyError, match="Nope"):
        parser.run("a", start="Nope")


def test_a_parser_over_an_unvalidated_grammar_that_no_run_survives_is_a_fault():
    # left recursion would grow the executor's frames without end, and an
    # undefined rule or start raise KeyError; each is the Parser's fault,
    # reported by every run, in every delivery mode, before any is compiled
    cases = [(r.grammar({"A": r.seq(r.ref("A"), r.ch("x"))}), "left-recursion in rule A"),
             (r.grammar({"A": r.seq(r.ch("x"), r.ref("B"))}), "unresolved-ref in rule A"),
             (r.grammar({"A": r.ch("x")}, start="S"), "missing-start in rule S")]
    for g, description in cases:
        parser = Parser(g)
        assert parser.fault is not None and parser.fault.description.startswith(description)
        assert parser._tables is None
        assert parser.run("x") == RunResult(fault=parser.fault)
        assert parser.run("x", mode="either") == (None, parser.fault)
        with pytest.raises(EngineFault, match=description):
            parser.run("x", mode="raising")
        assert parser.run("x", observer=Trace([])) == RunResult(fault=parser.fault)
    # the tree is run as it is: a one-child sequence and an empty literal,
    # which validation rejects, match
    one = r.grammar({"A": r.Sequence((r.lit(""), r.Sequence((r.ch("x"),))))})
    parser = Parser(one)
    assert parser.fault is None and parser.grammar is one
    assert parser.run("x").ok and parser.run("y").error is not None


def test_a_fresh_parser_compiles_safely_under_threads(calc_grammar):
    # a Parser's tables are built with it, and runs only read them; threads
    # sharing a new Parser must still see one consistent grammar, and each
    # thread's Trace the events a single-threaded run logs. The threads take
    # the shared Parser past GENERATE_AT, unlocked: two that cross together
    # both write the module, and a lost update of the count only delays it
    rng = random.Random(77)
    texts = [big_expression(rng, 1000) + ("!" if i % 3 == 0 else "") for i in range(24)]
    expected = [Parser(calc_grammar).run(t) for t in texts]
    alone, expected_events = Parser(calc_grammar), []
    for k in range(4):
        events = []
        observer = Trace(events)
        for i in range(k, len(texts), 4):
            alone.run(texts[i], observer=observer)
        expected_events.append(events)
    shared = Parser(calc_grammar)
    assert sum(map(len, texts)) > GENERATE_AT
    results = [None] * len(texts)
    traced = [[] for _ in range(4)]

    def work(k):
        observer = Trace(traced[k])
        for i in range(k, len(texts), 4):
            results[i] = shared.run(texts[i])
            shared.run(texts[i], observer=observer)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert source_of(shared) is not None
    assert results == expected
    assert traced == expected_events
    assert all(len(events) > 1000 for events in traced)
