import json
import random
import re
import tracemalloc

import pytest

from pegstack import engine, generate, rules as r
from pegstack.effects import StackEffect, cons
from pegstack.engine import ACTION_FAIL, Parser, Trace
from pegstack.errors import (Collector, ParseError, Position, RuleTrace, TerminalDescriptor,
                             build_parse_error, descriptor_of, format_error, position_of,
                             principal_error_index, trace_collection)
from pegstack.instructions import ALT, CAPTURE, OPT, PRED, QUIET, REP, SEQ
from pegstack.notation import load_grammar
from pegstack.rules import validate_grammar
from pegstack.values import ValueStack

from conftest import ROOT, generated
from generators import (ALPHABET, LOWERABLE_ALPHABET, big_expression, gen_grammar, gen_input,
                        gen_lowerable_grammar, gen_sound_grammar)
from reference_interp import ref_run, ref_traces
from run_states import recorded_states
from test_acceptance import _nested_alternation_grammar


# -- positions -------------------------------------------------------------------

def test_position_of_paper_example():
    assert position_of("1+2!3", 3) == Position(3, 1, 4)


def test_position_of_empty_input():
    assert position_of("", 0) == Position(0, 1, 1)


def test_position_of_counts_newlines():
    text, index = "ab\ncd", 3
    # independent derivation: line = newlines before + 1, column from line start
    newlines = text[:index].count("\n")
    col = index - (text[:index].rfind("\n") + 1) + 1
    assert (newlines + 1, col) == (2, 1)
    assert position_of(text, index) == Position(3, 2, 1)


def test_position_of_bounds():
    with pytest.raises(ValueError):
        position_of("ab", 3)


# -- principal error index ----------------------------------------------------------

def test_calculator_principal_index(calc_grammar):
    assert principal_error_index(Parser(calc_grammar), "1+2!3", "InputLine") == 3


def test_single_char_grammar_principal_is_zero():
    g = validate_grammar(r.grammar({"A": r.ch("a")}))
    assert principal_error_index(Parser(g), "b", "A") == 0


def test_foo_grammar_principal_from_oracle_replay(foo_grammar):
    # the reference interpreter records both alternatives failing at cursor 2
    mismatches = []
    ok, _, _ = ref_run(foo_grammar, "abx", mismatches=mismatches)
    assert not ok
    assert max(mismatches) == 2
    assert principal_error_index(Parser(foo_grammar), "abx", "foo") == 2


# -- trace collection ------------------------------------------------------------------

def test_calculator_collects_six_traces(calc_grammar):
    traces = trace_collection(Parser(calc_grammar), "1+2!3", "InputLine")[1]
    assert len(traces) == 6
    rendered = {t.terminal.render() for t in traces}
    assert rendered == {"'/'", "'+'", "'*'", "'EOI'", "'-'", "Digit"}
    for t in traces:
        assert t.frames[0] == "InputLine"


def test_single_trace(calc_grammar):
    g = validate_grammar(r.grammar({"A": r.ch("a")}))
    traces = trace_collection(Parser(g), "b", "A")[1]
    assert len(traces) == 1
    assert traces[0].terminal.render() == "'a'"
    assert traces[0].frames == ("A",)


def test_quiet_rule_suppresses_traces():
    g = validate_grammar(r.grammar({"A": r.quiet(r.ch("a"))}))
    traces = trace_collection(Parser(g), "b", "A")[1]
    assert traces == ()
    # the formatter falls back to an explicit empty expectation
    err = build_parse_error(Parser(g), "b")
    assert "expected <nothing>" in format_error(err, "b")


def test_not_predicate_mismatches_are_not_expectations():
    # a mismatch inside a not-predicate is a success condition; reporting
    # its terminal as "expected" would invert the message, so it stays out
    # of both phases
    g = validate_grammar(r.grammar({"A": r.seq(r.not_pred(r.ch("a")), r.ch("b"))}))
    err = build_parse_error(Parser(g), "c")
    assert err.expected() == ["'b'"]

    # a parse failing only through a not-predicate has no expectations at all
    g2 = validate_grammar(r.grammar({"A": r.not_pred(r.ch("a"))}))
    err2 = build_parse_error(Parser(g2), "a")
    assert err2.position.index == 0
    assert err2.traces == ()
    assert "expected <nothing>" in format_error(err2, "a")


def test_traces_are_deduplicated(calc_grammar):
    parser = Parser(calc_grammar)
    err = build_parse_error(parser, "1+2!3")
    assert len(err.traces) == len(set(err.traces))


# -- formatting ------------------------------------------------------------------------------

def test_paper_message_block(calc_grammar):
    parser = Parser(calc_grammar)
    err = build_parse_error(parser, "1+2!3")
    text = format_error(err, "1+2!3", caret=False)
    lines = text.split("\n")
    assert lines[0].startswith("Invalid input '!', expected ")
    assert lines[0].endswith("(line 1, column 4):")
    assert lines[1] == "1+2!3"
    assert len(lines) == 2


def test_single_descriptor_omits_or_clause():
    g = validate_grammar(r.grammar({"A": r.ch("a")}))
    err = build_parse_error(Parser(g), "b")
    assert format_error(err, "b", caret=False) == \
        "Invalid input 'b', expected 'a' (line 1, column 1):\nb"


def test_a_union_of_named_predicates_is_named_in_the_expected_list():
    pred = r.CharPredicate(r.ALPHA.mask, name="A").union(r.DIGIT)
    g = validate_grammar(r.grammar({"Top": r.seq(r.CharPred(pred), r.EOI)}))
    err = build_parse_error(Parser(g), "!")
    assert format_error(err, "!", caret=False) == \
        "Invalid input '!', expected A|Digit (line 1, column 1):\n!"


def test_unexpected_end_of_input():
    g = validate_grammar(r.grammar({"A": r.seq(r.ch("a"), r.ch("b"))}))
    parser = Parser(g)
    # engine replay: the 'b' attempt happens at index 1 == input length
    assert principal_error_index(parser, "a") == 1
    err = build_parse_error(parser, "a")
    text = format_error(err, "a")
    assert text.split("\n")[0] == "Unexpected end of input, expected 'b' (line 1, column 2):"
    assert text.split("\n")[1] == "a"


def test_caret_line_points_at_column(calc_grammar):
    err = build_parse_error(Parser(calc_grammar), "1+2!3")
    lines = format_error(err, "1+2!3").split("\n")
    assert lines[2] == "   ^"
    assert lines[2].index("^") == err.position.column - 1


def test_error_line_extraction_multiline():
    g = validate_grammar(r.grammar({"A": r.seq(r.Str("ab\nc"), r.ch("d"))}))
    err = build_parse_error(Parser(g), "ab\ncx")
    assert err.position == Position(4, 2, 2)
    text = format_error(err, "ab\ncx")
    assert text.split("\n")[1] == "cx"
    assert text.split("\n")[2] == " ^"


def test_expected_list_ordering_is_first_occurrence(calc_grammar):
    err = build_parse_error(Parser(calc_grammar), "1+2!3")
    assert err.expected() == ["Digit", "'*'", "'/'", "'+'", "'-'", "'EOI'"]


# -- phase invariants ---------------------------------------------------------------------------

def test_no_collect_mismatch_beyond_principal():
    rng = random.Random(41)
    checked = 0
    for _ in range(250):
        g = gen_grammar(rng, stack=False)
        parser = Parser(g)
        text = gen_input(rng)
        state = parser.run_phase(text)
        ok = state.cursor > -1 and parser.run(text).ok
        if ok:
            continue
        principal = principal_error_index(parser, text)
        collect_state = parser.run_phase(text, None, Collector())
        assert collect_state.stats.max_cursor <= principal
        checked += 1
    assert checked > 40


def handed_over_bounds(parser, text, start=None):
    """(error, bound) of Parser.run's failure, first unobserved and then
    observed: the bound that each run hands to its error pass."""
    bounds = []
    build = engine.build_parse_error

    def spy(parser, text, start=None, bound=None):
        bounds.append(bound)
        return build(parser, text, start, bound)

    engine.build_parse_error = spy
    try:
        errors = [parser.run(text, start).error, parser.run(text, start, observer=Trace([])).error]
    finally:
        engine.build_parse_error = build
    return list(zip(errors, bounds))


def assert_the_bound_keeps_the_error(parser, text, start=None) -> bool:
    """The bound an unobserved failing run hands over is at most the
    principal index, and the error of its generated pass equals the one of
    the exact pass; an observed run hands over none, so its pass is the
    exact one. Returns whether the run failed."""
    failures = handed_over_bounds(parser, text, start)
    if not failures or failures[0][0] is None:
        return False
    exact = build_parse_error(parser, text, start)
    principal = principal_error_index(parser, text, start)
    (error, bound), (observed, none) = failures
    assert bound <= principal, (text, bound, principal)
    assert error == observed == exact, text
    assert none is None  # an observed run runs the exact table
    return True


def test_a_fragment_that_fails_through_a_not_predicate_hands_over_no_mismatch():
    # the fragment 'x' capture(!'z' 'y') fails at 1 on "xz", where the
    # exact table fails only by its predicate: a bound of 1 would lose 'w'
    g = validate_grammar(r.grammar({"S": r.first_of(
        r.seq(r.ch("x"), r.capture(r.seq(r.not_pred(r.ch("z")), r.ch("y")))),
        r.capture(r.ch("w")))}))
    parser = generated(g)
    (error, bound), _ = handed_over_bounds(parser, "xz")
    assert bound == 0
    assert (error.position.index, error.expected()) == (0, ["'w'"])
    assert assert_the_bound_keeps_the_error(parser, "xz")


FAMILIES = [(lambda rng: gen_grammar(rng, 4), ALPHABET), (lambda rng: gen_grammar(rng, 6), ALPHABET),
            (gen_sound_grammar, ALPHABET), (gen_lowerable_grammar, LOWERABLE_ALPHABET)]


@pytest.mark.parametrize("family", range(len(FAMILIES)))
def test_the_handed_over_bound_keeps_the_error_on_random_grammars(family):
    make, alphabet = FAMILIES[family]
    rng = random.Random(family)
    failed = 0
    for _ in range(120):
        parser = generated(make(rng))
        for _ in range(3):
            failed += assert_the_bound_keeps_the_error(parser, gen_input(rng, alphabet=alphabet))
    assert failed > 100


def test_the_handed_over_bound_keeps_the_error_on_the_calc_corpus(calc_grammar):
    rng = random.Random(71)
    parser = generated(calc_grammar)
    failed = 0
    for _ in range(150):
        text = big_expression(rng, rng.randint(1, 400))
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(["!", "x", "++", ")", "(", "", "*/"]) + text[at:]
        if rng.random() < 0.3:
            text = text[:max(1, len(text) // 2)]
        failed += assert_the_bound_keeps_the_error(parser, text, "InputLine")
    assert failed > 100


def _json_value(rng, depth):
    kind = rng.randrange(7 if depth else 4)
    if kind == 0:
        return rng.choice([0, -7, 12, 2.5, -0.25, 1e21])
    if kind == 1:
        return "".join(rng.choice('ab"\\\n\u00e9 ') for _ in range(rng.randrange(5)))
    if kind in (2, 3):
        return rng.choice([True, False, None])
    if kind in (4, 5):
        return [_json_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {f"k{i}": _json_value(rng, depth - 1) for i in range(rng.randrange(4))}


def test_the_handed_over_bound_keeps_the_error_on_json_documents():
    rng = random.Random(72)
    parser = generated(load_grammar(ROOT / "bench/json.peg"))
    failed = 0
    for _ in range(150):
        text = json.dumps(_json_value(rng, 4))
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(["!", "x", "]", "}", ",", ":", '"', "tru", "-", ""]) + text[at:]
        if rng.random() < 0.3:
            text = text[:max(1, len(text) // 2)]
        failed += assert_the_bound_keeps_the_error(parser, text)
    assert failed > 100


def test_a_bound_cuts_the_collect_mismatches_not_the_traces(calc_grammar):
    # the generated pass dispatches below its running maximum, where the
    # alternatives it skips count no mismatches, and counts no steps
    parser = Parser(calc_grammar)
    text = "1+(2*3-4)/5*(6+7)-8!9"
    exact, exact_traces = parser.error_pass(text)
    mismatches = []
    for bound in (0, 10, 19):  # 19 is the principal index
        generated, traces = parser.error_pass(text, None, bound)
        assert (generated.stats.max_cursor, traces) == (19, exact_traces)
        assert generated.stats.steps == 0
        mismatches.append(generated.stats.terminal_mismatches)
    # from 0 the running maximum stands where the parse does: nothing to skip
    assert exact.stats.terminal_mismatches == mismatches[0] > mismatches[1] > mismatches[2]


def _count_value_work(monkeypatch) -> dict:
    """Counts of the values, nodes and lists that the engine builds and of
    the snapshots and restores of its stacks, through the names it imports
    and those it hands to the modules it writes from now on: ``new``
    allocates each node that generated code builds in place
    (``values.built``), and takes ``Node`` itself, which stays a class."""
    counts = dict.fromkeys(("Value", "Node", "node1", "node2", "new", "list_value", "snapshot",
                            "restore"), 0)

    def counted(name, make):
        def build(*args):
            counts[name] += 1
            return make(*args)
        return build

    for name in ("Value", "Node", "node1", "node2", "list_value"):
        monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
    for name in ("Value", "node1", "node2", "new", "list_value"):
        monkeypatch.setitem(engine._RUNTIME, name, counted(name, engine._RUNTIME[name]))

    class CountedStack(ValueStack):
        __slots__ = ()

        def snapshot(self):
            counts["snapshot"] += 1
            return ValueStack.snapshot(self)

        def restore(self, token):
            counts["restore"] += 1
            ValueStack.restore(self, token)

    monkeypatch.setattr(engine, "ValueStack", CountedStack)
    return counts


def _instructions(body):
    """Every instruction of a compiled body, rule references not followed."""
    todo = [body]
    while todo:
        ins = todo.pop()
        yield ins
        if ins[0] in (SEQ, ALT):
            todo.extend(ins[2][:-1])
        elif ins[0] in (REP, OPT, PRED, CAPTURE, QUIET):
            todo.append(ins[2])


def test_a_repetition_of_a_headed_body_takes_no_snapshot(calc_grammar, monkeypatch):
    # the snapshot of an iteration only undoes one that matched without
    # moving, and a body with a head moves when it matches; with the
    # dispatch operands emptied, each exact REP takes one again at entry and
    # after each iteration
    parser, unheaded = Parser(calc_grammar), Parser(calc_grammar)
    reps = [ins for body in unheaded._tables.bodies.values()
            for ins in _instructions(body) if ins[0] == REP]
    assert len(reps) == 2 and all(ins[6] for ins in reps)  # Expression's and Term's loops
    for ins in reps:
        ins[6].clear()
    counts = _count_value_work(monkeypatch)
    runs = []
    for p in (unheaded, parser):
        events = []
        counts["snapshot"] = 0
        assert p.run("1+2*3-(4/5)", observer=Trace(events)).ok
        runs.append((counts["snapshot"], events))
    # the same run, less 6 loop entries and 4 iterations: '+', '-', '*' and
    # '/'; an observed run does not dispatch, so each sequence that touches
    # the stack snapshots at entry, also where its first terminal fails
    assert runs[0][1] == runs[1][1]
    assert (runs[0][0], runs[1][0]) == (58, 48)


def test_a_bounded_pass_over_calc_builds_no_values(calc_grammar, monkeypatch):
    parser = Parser(calc_grammar)
    assert parser._tables.value_free  # only cons actions
    text = "1+(2*3-4)/5*(6+7)-8!9"
    counts = _count_value_work(monkeypatch)  # before the collect module is written
    exact = parser.error_pass(text)[1]
    # calc's nodes have one child (Val) or two (Add, Mul, ...)
    assert counts["Value"] and counts["node1"] and counts["node2"] and counts["snapshot"]
    for bound in (0, 10, 19):  # 19 is the principal index
        counts.update(dict.fromkeys(counts, 0))
        bare = parser.error_pass(text, None, bound)
        assert counts == dict.fromkeys(counts, 0), bound
        assert (bare[0].stack.size(), bare[1]) == (0, exact)
    # the collect module holds no stack head, h, to snapshot or push onto
    bare = generate._Module(parser._tables, engine._RUNTIME, True).source()
    assert "h" not in re.findall(r"\w+", bare)


def _corrupted(rng, text, junk):
    at = rng.randrange(len(text) + 1)
    return text[:at] + rng.choice(junk) + text[at:]


def test_a_bounded_pass_without_values_reports_the_exact_error_on_calc_and_json(calc_grammar):
    rng = random.Random(73)
    corpora = [(calc_grammar, [_corrupted(rng, big_expression(rng, rng.randint(1, 300)),
                                          ["!", "x", "++", ")", "(", "*/"]) for _ in range(60)]),
               (load_grammar(ROOT / "bench/json.peg"),
                [_corrupted(rng, json.dumps(_json_value(rng, 4)), ["!", "]", "}", ",", '"', "tru"])
                 for _ in range(60)])]
    failed = 0
    for grammar, corpus in corpora:
        parser = generated(grammar)
        assert parser._tables.value_free
        for text in corpus:
            failures = handed_over_bounds(parser, text)
            if not failures:
                continue
            bound = failures[0][1]  # the unobserved run's
            bare, bare_traces = parser.error_pass(text, None, bound)
            exact, exact_traces = parser.error_pass(text)
            assert ((bare.stats.max_cursor, bare_traces)
                    == (exact.stats.max_cursor, exact_traces)), text
            assert bare.stack.size() == 0
            failed += 1
    assert failed > 90


def test_a_user_action_that_fails_decides_the_error_of_a_bounded_pass():
    # "only_a" fails on a captured "z", so there the first alternative ends
    # before its 'b' is tried: a pass that let every action succeed would
    # expect 'b' too; the same with the action only inside a predicate
    def only_a(value):
        return value if value.payload == "a" else ACTION_FAIL

    check = r.Action(1, only_a, StackEffect(("Str",), ("Str",)), name="only_a")
    az = r.any_of("az")
    for first in (r.seq(r.capture(az), check, r.ch("b")),
                  r.seq(r.and_pred(r.seq(r.capture(az), check, r.drop())), az, r.ch("b"))):
        parser = generated(validate_grammar(r.grammar({"S": r.first_of(first,
                                                                        r.seq(az, r.ch("c")))})))
        assert not parser._tables.value_free
        for text, expected in (("zd", ["'c'"]), ("ad", ["'b'", "'c'"])):
            assert assert_the_bound_keeps_the_error(parser, text)
            assert parser.run(text).error.expected() == expected


def test_a_cons_that_underflows_is_a_fault_not_a_parse_error():
    # not checked: the cons pops two values where there are none
    parser = generated(validate_grammar(r.grammar({"S": r.first_of(
        r.seq(r.ch("a"), cons("X", 2), r.ch("b")), r.seq(r.ch("a"), r.ch("c")))})))
    assert parser._tables.value_free
    for text in ("ac", "ad"):
        for observer in (None, Trace([])):
            result = parser.run(text, observer=observer)
            assert (result.kind, result.error) == ("internal-fault", None), text
            assert result.fault.description.startswith("value stack underflow"), text


def test_build_parse_error_makes_one_engine_pass(calc_grammar):
    # one engine state per pass, whether the executor or the generated code runs it
    parser = Parser(calc_grammar)
    with recorded_states() as states:
        build_parse_error(parser, "1+2!3")
    assert [isinstance(state.observer, Collector) for state in states] == [True]
    with recorded_states() as states:
        assert not parser.run("1+2!3").ok  # the run, then the error pass
    assert [isinstance(state.observer, Collector) for state in states] == [False, True]


def test_one_pass_collects_the_two_phase_traces_on_the_calc_corpus(calc_grammar):
    # the reference interpreter takes the highest mismatch position first,
    # then every mismatch at it; the engine keeps a running maximum instead
    rng = random.Random(61)
    parser = Parser(calc_grammar)
    checked = 0
    for _ in range(300):
        text = big_expression(rng, rng.randint(1, 60))
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(["!", "x", "++", ")", "(", "", "."]) + text[at:]
        if rng.random() < 0.3:
            text = text[:max(1, len(text) // 2)]
        if parser.run(text, start="InputLine").ok:
            continue
        err = build_parse_error(parser, text, "InputLine")
        assert (err.position.index, err.traces) == ref_traces(calc_grammar, text, "InputLine")
        checked += 1
    assert checked > 200


def test_the_collect_pass_frontier_grows_with_the_traces_not_the_work():
    # every nesting level doubles the mismatches at the principal index,
    # but they repeat the same two rule traces
    peaks = {}
    for k in (10, 14):
        parser = Parser(_nested_alternation_grammar(k))
        tracemalloc.start()
        try:
            traces = parser.error_pass("a" * 24)[1]
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frames = tuple(f"S{i}" for i in range(k, 0, -1))
        assert traces == [RuleTrace(frames, TerminalDescriptor("char", c)) for c in "bc"]
    assert peaks[14] < 2 * peaks[10], peaks


def test_the_collect_pass_compacts_a_frontier_of_fused_scans():
    # every S0 call ends its 'x'* scan with a mismatch at the principal
    # index, so the frontier passes its compaction bound on those scans
    rules = {"S0": r.zero_or_more(r.ch("x"))}
    for i in range(1, 9):
        below = r.ref(f"S{i - 1}")
        rules[f"S{i}"] = r.first_of(r.seq(below, r.ch("b")), r.seq(below, r.ch("c")))
    g = validate_grammar(r.grammar(rules, start="S8"))
    parser = Parser(g)
    for text in ("", "xxx", "xxxd"):
        assert trace_collection(parser, text, None) == ref_traces(g, text)


def test_phases_are_deterministic(calc_grammar):
    parser = Parser(calc_grammar)
    first = build_parse_error(parser, "1+2!!")
    second = build_parse_error(parser, "1+2!!")
    assert first == second


def test_descriptor_rendering():
    assert descriptor_of(r.ch("x")).render() == "'x'"
    assert descriptor_of(r.Str("abc")).render() == "'abc'"
    assert descriptor_of(r.ignore_case("c")) == TerminalDescriptor("string", "c")
    assert descriptor_of(r.ignore_case("c")).render() == "'c'"
    assert descriptor_of(r.EOI).render() == "'EOI'"
    assert descriptor_of(r.ANY).render() == "ANY"
    assert descriptor_of(r.CharPred(r.DIGIT)).render() == "Digit"
    assert descriptor_of(r.any_of("+-")).render() == "[+-]"
    assert descriptor_of(r.none_of("+-")).render() == "![+-]"
    assert descriptor_of(r.ch("\n")).render() == "'\\n'"
    assert descriptor_of(r.any_of(" \t\r\n")).render() == "[ \\t\\r\\n]"


def test_parse_error_positions_coincide(calc_grammar):
    err = build_parse_error(Parser(calc_grammar), "1+!")
    assert err.position == err.principal_position
    assert isinstance(err, ParseError)
