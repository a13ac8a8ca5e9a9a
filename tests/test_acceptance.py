"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
reported timings.
"""

import random
import re
import time
from contextlib import contextmanager

import pytest

from pegstack import rules as r
from pegstack.cli import main as cli_main
from pegstack.effects import (EffectError, NEUTRAL, StackEffect, check_grammar,
                              repetition_effect, repetition_shape, seq_compose)
from pegstack.engine import Parser, ParserState
from pegstack.errors import build_parse_error, format_error
from pegstack.optimize import DEFAULT_PASSES, PASSES, optimize
from pegstack.rules import validate_grammar
from pegstack.values import StackUnderflow, node_value, str_value

from conftest import DATA, GRAMMARS
from generators import (big_expression, gen_effect, gen_grammar, gen_input,
                        gen_sound_grammar)
from reference_interp import ref_run


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def _outcome(parser, text, start=None):
    state = ParserState(text)
    ok = parser.match_rule(state, start or parser.grammar.start)
    return ok, state.cursor, state.stack.values()


# -- 1: thirteen-step backtracking trace ---------------------------------------------

def test_criterion_1_trace_reproduction(capsys):
    with criterion(1, "13-step backtracking trace matches the golden file"):
        started = time.perf_counter()
        code = cli_main(["run", "--grammar", str(GRAMMARS / "foo.peg"),
                         "--input", "abd", "--trace"])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0
        golden = (DATA / "foo_trace.golden").read_text()
        assert out == golden
        assert elapsed < 1.0


# -- 2: principal error reproduction ---------------------------------------------------

def test_criterion_2_error_reproduction(calc_grammar):
    with criterion(2, "error on 1+2!3: position (3,1,4), 6 traces, expected set"):
        started = time.perf_counter()
        parser = Parser(calc_grammar)
        err = build_parse_error(parser, "1+2!3", "InputLine")
        assert (err.position.index, err.position.line, err.position.column) == (3, 1, 4)
        assert err.principal_position == err.position
        assert len(err.traces) == 6
        assert len(set(err.traces)) == 6
        assert set(t.terminal.render() for t in err.traces) == \
            {"'/'", "'+'", "'*'", "'EOI'", "'-'", "Digit"}
        message = format_error(err, "1+2!3", caret=False)
        lines = message.split("\n")
        assert re.fullmatch(r"Invalid input '!', expected .+ \(line 1, column 4\):",
                            lines[0])
        assert lines[1] == "1+2!3"
        # the optimized tree reports the identical error
        opt_err = build_parse_error(Parser(optimize(calc_grammar)), "1+2!3", "InputLine")
        assert opt_err.position == err.position
        assert {t.terminal.render() for t in opt_err.traces} == \
            {t.terminal.render() for t in err.traces}
        assert time.perf_counter() - started < 1.0


# -- 3: prefix match without EOI ----------------------------------------------------------

def test_criterion_3_prefix_match(calc_grammar):
    with criterion(3, "Expression on 1+2!3 succeeds with Add(Val(1),Val(2))"):
        result = Parser(calc_grammar).run("1+2!3", start="Expression")
        assert result.kind == "success"
        expected = node_value("Add", node_value("Val", str_value("1")),
                              node_value("Val", str_value("2")))
        assert result.values == (expected,)


# -- 4: full-expression AST, cross-checked by the reference interpreter ----------------------

def test_criterion_4_full_ast(calc_grammar):
    with criterion(4, "InputLine on 1+(2-3*4)/5 builds the derived AST"):
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
        result = Parser(calc_grammar).run("1+(2-3*4)/5", start="InputLine")
        assert result.values == (expected,)
        ok, pos, stack = ref_run(calc_grammar, "1+(2-3*4)/5", start="InputLine")
        assert ok and pos == len("1+(2-3*4)/5")
        assert stack == (expected,)


# -- 5: effect algebra ----------------------------------------------------------------------

def test_criterion_5_effect_algebra():
    with criterion(5, "sequence/repetition typing examples plus 3x10^4 property cases"):
        eff = lambda pops, pushes: StackEffect(tuple(pops), tuple(pushes))  # noqa: E731
        assert seq_compose(eff([], ["A"]), eff([], ["B"])) == eff([], ["A", "B"])
        assert seq_compose(eff(["A", "B", "C"], ["D", "E", "F"]), eff(["F"], ["G", "H"])) \
            == eff(["A", "B", "C"], ["D", "E", "G", "H"])
        assert seq_compose(eff(["A"], ["B", "C"]), eff(["D", "B", "C"], ["E", "F"])) \
            == eff(["D", "A"], ["E", "F"])
        assert repetition_effect(eff(["Int", "Int"], ["Int"]), "zeroOrMore") \
            == eff(["Int"], ["Int"])

        rng = random.Random(20240)

        def try_seq(a, b):
            if a is None or b is None:
                return None
            try:
                return seq_compose(a, b)
            except EffectError:
                return None

        cases = 10_000
        for _ in range(cases):  # associativity
            a, b, c = gen_effect(rng), gen_effect(rng), gen_effect(rng)
            left = try_seq(try_seq(a, b), c)
            right = try_seq(a, try_seq(b, c))
            if left is not None and right is not None:
                assert left == right
        for _ in range(cases):  # neutral identity
            e = gen_effect(rng)
            assert seq_compose(NEUTRAL, e) == e
            assert seq_compose(e, NEUTRAL) == e
        fixpoints = 0
        for _ in range(cases):  # reduction fixpoint
            inner = gen_effect(rng)
            try:
                shape, _ = repetition_shape(inner)
            except EffectError:
                continue
            if shape == "collecting":
                continue
            result = repetition_effect(inner, "zeroOrMore")
            assert seq_compose(result, result) == result
            fixpoints += 1
        assert fixpoints > 1000


# -- 6: effect soundness --------------------------------------------------------------------

def test_criterion_6_effect_soundness():
    with criterion(6, "10^4 checked grammar runs: no underflow, no tag mismatch"):
        rng = random.Random(606)
        cases = 0
        while cases < 10_000:
            g = gen_sound_grammar(rng)
            check_grammar(g)  # generated to pass; a failure here fails the test
            parser = Parser(g)
            for _ in range(4):
                text = gen_input(rng)
                state = ParserState(text, check_tags=True)
                try:
                    parser.match_rule(state, g.start)
                except StackUnderflow:
                    pytest.fail(f"underflow on checked grammar, input {text!r}")
                assert state.tag_mismatches == []
                cases += 1


# -- 7: optimizer equivalence -----------------------------------------------------------------

def _report(parser, text):
    """Match outcome plus what run() reports: kind, error position, expected list."""
    result = parser.run(text)
    error = result.error
    return (_outcome(parser, text), result.kind,
            None if error is None else (error.position, error.expected()))


def test_criterion_7_optimizer_equivalence(calc_grammar):
    with criterion(7, "each pass + pipeline agree with the plain engine, errors too, on 10^4 pairs"):
        rng = random.Random(707)
        configs = [(name,) for name in PASSES] + [DEFAULT_PASSES]
        pairs = 0
        while pairs < 10_000:
            g = gen_grammar(rng)
            parser = Parser(g)
            inputs = [gen_input(rng) for _ in range(5)]
            baselines = [_report(parser, text) for text in inputs]
            optimized = [Parser(optimize(g, config)) for config in configs]
            for text, baseline in zip(inputs, baselines):
                for opt_parser in optimized:
                    assert _report(opt_parser, text) == baseline
                pairs += 1

        # calculator corpus: identical results and error positions
        started = time.perf_counter()
        opt = optimize(calc_grammar)
        plain_parser, opt_parser = Parser(calc_grammar), Parser(opt)
        corpus = [_well_formed(rng) for _ in range(500)]
        corpus += [_malformed(rng) for _ in range(500)]
        plain_steps = opt_steps = 0
        for text in corpus:
            a = plain_parser.run(text, start="InputLine")
            b = opt_parser.run(text, start="InputLine")
            assert a.kind == b.kind
            if a.values is not None:
                assert a.values == b.values
            else:
                assert a.error.position == b.error.position
                assert a.error.expected() == b.error.expected()
            plain_steps += plain_parser.run_phase(text).stats.steps
            opt_steps += opt_parser.run_phase(text).stats.steps
        assert opt_steps <= plain_steps
        print(f"  calculator corpus: {len(corpus)} inputs, steps {plain_steps} plain"
              f" -> {opt_steps} optimized, {time.perf_counter() - started:.2f}s")


def _well_formed(rng, depth=0):
    if depth > 5 or rng.random() < 0.55:
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 4)))
    if rng.random() < 0.25:
        return "(" + _well_formed(rng, depth + 1) + ")"
    op = rng.choice("+-*/")
    return _well_formed(rng, depth + 1) + op + _well_formed(rng, depth + 1)


def _malformed(rng):
    base = _well_formed(rng)
    pos = rng.randrange(len(base) + 1)
    blot = rng.choice(["!", "x", "++", ")", "(", "", "."])
    out = base[:pos] + blot + base[pos:]
    if rng.random() < 0.3:
        out = out[:max(1, len(out) // 2)]
    return out


# -- 8: oracle equivalence ----------------------------------------------------------------------

def test_criterion_8_oracle_equivalence():
    with criterion(8, "engine matches the reference interpreter on 10^4 cases"):
        rng = random.Random(808)
        cases = 0
        while cases < 10_000:
            g = gen_grammar(rng)
            parser = Parser(g)
            for _ in range(4):
                text = gen_input(rng)
                ok_ref, pos_ref, stack_ref = ref_run(g, text)
                ok, pos, stack = _outcome(parser, text)
                assert ok == ok_ref
                if ok:
                    assert pos == pos_ref
                    assert stack == stack_ref
                else:
                    assert pos == 0 and stack == ()
                cases += 1


# -- 9: pathological backtracking ------------------------------------------------------------------

def _nested_alternation_grammar(k):
    rules = {"S0": r.ch("a")}
    for i in range(1, k + 1):
        below = r.ref(f"S{i - 1}")
        rules[f"S{i}"] = r.first_of(
            r.seq(r.opt(r.ch("a")), below, r.ch("b")),
            r.seq(r.opt(r.ch("a")), below, r.ch("c")),
        )
    return validate_grammar(r.grammar(rules, start=f"S{k}"))


def test_criterion_9_exponential_backtracking():
    with criterion(9, "nested-alternation steps grow >= 1.5x per nesting level"):
        text = "a" * 24
        steps = {}
        for k in range(4, 11):
            g = _nested_alternation_grammar(k)
            state = Parser(g).run_phase(text)
            assert state.cursor == 0  # the input fails at every level
            steps[k] = state.stats.steps
        for k in range(5, 11):
            ratio = steps[k] / steps[k - 1]
            assert ratio >= 1.5, (k, steps)
        print(f"  steps by nesting level: {steps}")


# -- 10: throughput sanity --------------------------------------------------------------------------

def test_criterion_10_throughput(calc_grammar):
    with criterion(10, "100 KB arithmetic expression parses in under 2 s"):
        rng = random.Random(1010)
        text = big_expression(rng, 100_000)
        assert len(text) >= 100_000
        parser = Parser(optimize(calc_grammar))
        started = time.perf_counter()
        result = parser.run(text, start="InputLine")
        elapsed = time.perf_counter() - started
        assert result.kind == "success"
        assert elapsed < 2.0
        print(f"  parsed {len(text)} bytes in {elapsed:.3f}s")
