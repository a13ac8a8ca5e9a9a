"""The Python modules a Parser writes for its grammar, against the exact table.

Once a Parser has written its parse module, an unobserved ``Parser.run``
calls the generated parse code, and when it fails, the generated collect
code; an observed run, and ``run_phase``, take the exact table. A Parser
writes the module when its unobserved runs have been asked to parse
``GENERATE_AT`` characters; the tests here write it at once with
``Parser._generate()``, so that their small inputs run the generated code.
Each test here fails on a mutation of ``pegstack.generate``, of the reruns
in ``Parser`` or of when it generates: the depth bound, the splitting of
deep nests into functions of their own, the code cache, the collect
module's dispatch, rule path, counters and values, and the threshold.
"""

import random
import re
import sys
import threading

import pytest

from pegstack import engine, generate
from pegstack import rules as r
from pegstack.effects import StackEffect, cons
from pegstack.engine import ACTION_FAIL, GENERATE_AT, InternalFault, Parser, Trace
from pegstack.errors import (Collector, build_parse_error, format_error, principal_index,
                             trace_collection)
from pegstack.instructions import CHARS
from pegstack.notation import load_grammar, meta_grammar, parse_grammar
from pegstack.rules import validate_grammar
from pegstack.values import Value

import generators
from conftest import GRAMMARS, ROOT, generated, source_of
from generators import (ALPHABET, LOWERABLE_ALPHABET, big_expression, gen_grammar, gen_input,
                        gen_lowerable_grammar, gen_sound_grammar)
from run_states import recorded_states
from test_acceptance import _same_as_observed
from test_instructions import _instructions


def _reruns(parser, monkeypatch, collect=False):
    """A list that receives the text of every unobserved run, or with
    collect of every error pass, that the executor makes for parser: the
    reruns of runs, or of error passes, that the generated code gave up."""
    texts = []
    execute = parser._execute

    def counted(state, ins, rule, bodies):
        if isinstance(state.observer, Collector) if collect else state.observer is None:
            texts.append(state.input)
        return execute(state, ins, rule, bodies)

    monkeypatch.setattr(parser, "_execute", counted)
    return texts


def _in_thread(fn):
    """fn() on a fresh thread, whose stack starts empty: the nests below
    compile there as in a plain script."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=120)
    return out[0]


# -- the depth bound -----------------------------------------------------------------------

def _ticking(ticks):
    """Nest <- '(' tick Nest ')' ~> cons(P,1) / capture('a'): tick counts
    each level as it is entered, before the levels below it are."""
    tick = r.Action(0, lambda: ticks.append(None), StackEffect((), ()), name="tick")
    return validate_grammar(r.grammar({
        "Top": r.seq(r.ref("Nest"), r.EOI),
        "Nest": r.first_of(r.seq(r.ch("("), tick, r.ref("Nest"), r.ch(")"), cons("P", 1)),
                           r.capture(r.ch("a")))}))


def test_an_input_just_past_the_depth_bound_runs_again_on_the_exact_table(monkeypatch):
    # Top's function is open at depth 0 and level k's Nest at depth k; the
    # innermost Nest of DEPTH_BOUND levels is one past the bound
    ticks = []
    parser = generated(_ticking(ticks))
    for levels in (generate.DEPTH_BOUND - 1, generate.DEPTH_BOUND):
        text = "(" * levels + "a" + ")" * levels
        expected = parser.run_phase(text).stack.values()
        assert len(expected) == 1
        ticks.clear()
        with monkeypatch.context() as patch:
            reruns = _reruns(parser, patch)
            assert parser.run(text).values == expected
        past = levels == generate.DEPTH_BOUND
        # the abandoned run's ticks ran, and the rerun's ran again
        assert len(ticks) == (2 * levels if past else levels)
        assert reruns == ([text] if past else [])


def test_a_recursion_error_in_the_generated_code_runs_again_on_the_exact_table(monkeypatch):
    # well under the depth bound, but past a recursion limit set low
    parser = generated(validate_grammar(r.grammar({
        "Top": r.seq(r.ref("Nest"), r.EOI),
        "Nest": r.first_of(r.seq(r.ch("("), r.ref("Nest"), r.ch(")"), cons("P", 1)),
                           r.capture(r.ch("a")))})))
    text = "(" * 150 + "a" + ")" * 150
    expected = parser.run_phase(text).stack.values()
    reruns = _reruns(parser, monkeypatch)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        result = parser.run(text)
    finally:
        sys.setrecursionlimit(limit)
    assert result.values == expected
    assert reruns == [text]


def test_a_recursion_error_inside_an_action_is_a_fault_not_a_rerun(monkeypatch):
    calls = []

    def deep():
        calls.append(None)
        raise RecursionError("too deep inside")

    parser = generated(r.grammar({"Top": r.seq(r.ch("a"), r.Action(0, deep, StackEffect((), ()),
                                                                      name="deep"))}))
    reruns = _reruns(parser, monkeypatch)
    result = parser.run("a")
    assert result.fault == InternalFault("action deep raised RecursionError: too deep inside")
    assert (len(calls), reruns) == (1, [])


# -- when a Parser generates ------------------------------------------------------------

def test_runs_below_and_above_the_threshold_agree_and_the_module_is_written_once(
        calc_grammar, monkeypatch):
    # while the characters asked for stay below GENERATE_AT, runs take the
    # exact table and their error pass is the exact one; the run that takes
    # the sum to GENERATE_AT writes the module and runs it
    written, write = [], generate.generate
    monkeypatch.setattr(generate, "generate", lambda tables, runtime, collect=False, start=None: (
        written.append("collect" if collect else "parse")
        or write(tables, runtime, collect, start)))
    parser = Parser(calc_grammar)
    texts = ["1+2*(3-4)/5", "((1)", "1+2!3", "", "7*", "(((8)))-9", "1+", ")"]
    texts += [big_expression(random.Random(i), 30) for i in range(3)]
    texts += [text[:len(text) // 2] + "!" + text[len(text) // 2:] for text in texts[-3:]]

    def reports():
        out = []
        for text in texts:
            with recorded_states() as states:
                result = parser.run(text)
            error = result.error
            out.append((result.kind, result.values, states[0].cursor,
                        None if error is None else (error.position, error.expected(),
                                                    error.traces)))
        return out

    below = reports()
    assert sum(kind == "parse-failure" for kind, *_ in below) >= 8
    filler = "1" * (GENERATE_AT - sum(map(len, texts)) - 1)  # one character short of it
    assert parser.run(filler).ok
    assert (written, parser._modules) == ([], {})
    assert parser.run("2").ok  # reaches it
    assert written == ["parse"] and list(parser._modules) == [("InputLine", False)]
    assert reports() == below
    assert written == ["parse", "collect"]
    assert reports() == below
    assert written == ["parse", "collect"]  # neither written again


def test_a_deep_calc_nest_below_the_threshold_runs_each_action_once(calc_grammar, monkeypatch):
    # a calc paren level opens one generated function, Expression's, so the
    # generated code gives this nest up past DEPTH_BOUND and runs it again on
    # the exact table, where the Val nodes of the levels it had entered are
    # built twice
    levels = generate.DEPTH_BOUND + 10
    text = "(1+" * levels + "1" + ")" * levels
    assert len(text) < GENERATE_AT
    built = []

    def counted(make):
        def build(*args):
            built.append(args[0])
            return make(*args)
        return build

    for name in ("Node", "node1", "node2"):  # every constructor of a node
        monkeypatch.setattr(engine, name, counted(getattr(engine, name)))
        monkeypatch.setitem(engine._RUNTIME, name, getattr(engine, name))
    expected = Parser(calc_grammar).run_phase(text).stack.values()
    assert len(built) == 2 * levels + 1

    def nodes_built(parser):
        built.clear()
        with monkeypatch.context() as patch:
            reruns = _reruns(parser, patch)
            assert parser.run(text).values == expected
        assert reruns == [text]  # the exact run, or the exact rerun of the generated one
        return len(built)

    below = Parser(calc_grammar)
    assert nodes_built(below) == 2 * levels + 1 and below._modules == {}
    assert nodes_built(generated(calc_grammar)) > 2 * levels + 1


def _report(result):
    error = result.error
    return (result.kind, result.values,
            None if error is None else (error.position, error.expected(), error.traces))


@pytest.mark.parametrize("module", ["parse", "collect"])
def test_a_module_that_cannot_be_written_leaves_its_runs_on_the_exact_table(
        calc_grammar, module, monkeypatch):
    # writing recurses once per nesting level, so from a deep enough call
    # stack it raises RecursionError: the Parser then keeps the exact table
    # for the module it could not write and tries no second write
    texts = ["1+2*(3-4)/5", "1+2!3", "((1)", "7*", big_expression(random.Random(3), 30)]
    expected = [_report(Parser(calc_grammar).run(text)) for text in texts]
    tries, write = [], generate.generate

    def failing(tables, runtime, collect=False, start=None):
        tries.append("collect" if collect else "parse")
        if tries[-1] == module:
            raise RecursionError("maximum recursion depth exceeded")
        return write(tables, runtime, collect, start)

    monkeypatch.setattr(generate, "generate", failing)
    parser = Parser(calc_grammar)
    assert parser.run("1" * GENERATE_AT).ok  # crosses the threshold
    for _ in range(2):
        assert [_report(parser.run(text)) for text in texts] == expected
    assert tries == ["parse"] if module == "parse" else ["parse", "collect"]
    assert parser._modules["InputLine", module == "collect"] == (engine._gives_up, None)


def test_runs_from_a_deep_call_stack_parse_and_report_errors_on_the_exact_table():
    # writing a 150-level nest takes a few hundred frames: the run that
    # crosses GENERATE_AT with fewer left parses on the exact table, and a
    # failing run's error pass, with fewer left, runs the exact pass
    grammar = validate_grammar(r.grammar({"Top": r.seq(_nest(150, r.capture(r.ch("a"))),
                                                        r.ch("z"))}))
    long, failing = "b" * 150 + "az" + "c" * GENERATE_AT, "bbbaz"
    exact = Parser(grammar)
    expected = [_report(exact.run(text)) for text in (long, failing)]

    def depth():
        frame, n = sys._getframe(), 0
        while frame is not None:
            frame, n = frame.f_back, n + 1
        return n

    def deep(fn):
        return fn() if depth() >= sys.getrecursionlimit() - 100 else deep(fn)

    crossed_deep = Parser(grammar)
    assert _report(deep(lambda: crossed_deep.run(long))) == expected[0]
    assert crossed_deep._modules == {("Top", False): (engine._gives_up, None)}
    assert _report(crossed_deep.run(long)) == expected[0]  # and so do the runs after it

    failed_deep = Parser(grammar)
    assert _report(failed_deep.run(long)) == expected[0] and source_of(failed_deep) is not None
    assert _report(deep(lambda: failed_deep.run(failing))) == expected[1]
    assert failed_deep._modules["Top", True] == (engine._gives_up, None)
    assert _report(failed_deep.run(failing)) == expected[1]


def test_building_a_parser_compiles_no_regex_and_no_module(monkeypatch):
    # R_i <- R_i+1 'a': a Parser leaves writing the module of a long chain of
    # rules to the runs whose input pays for it, and writing it compiles one
    # regex, R0's, which holds the whole chain
    calls = []
    for owner, name in ((generate, "_code"), (re, "compile")):
        monkeypatch.setattr(owner, name, lambda *args, fn=getattr(owner, name), name=name:
                            calls.append(name) or fn(*args))

    def chain(length):
        rules = {f"R{i}": r.seq(r.ref(f"R{i + 1}"), r.ch("a")) for i in range(length)}
        rules[f"R{length}"] = r.ch("a")
        return validate_grammar(r.grammar(rules, start="R0"))

    grammar = chain(2000)
    calls.clear()  # from here, what building the Parser compiles
    parser = Parser(grammar)
    assert parser.fault is None and calls == [] and parser._modules == {}
    assert parser.run("a" * 2001).values == () and calls == []  # on the exact table
    generated(chain(3))
    assert calls.count("_code") == 1 and calls.count("compile") == 1


# -- grammars that nest deeply or are large ----------------------------------------------

def _nest(levels, core):
    """('b' ('b' ... core)?)? with levels options."""
    e = core
    for _ in range(levels):
        e = r.opt(r.seq(r.ch("b"), e))
    return e


@pytest.mark.parametrize("levels, core", [(150, "lowered"), (197, "lowered"),
                                          (150, "captured"), (190, "captured")])
def test_deep_option_nests_generate_and_agree_with_the_exact_table(levels, core, monkeypatch):
    # a nest of plain characters is one regex; a capture at its core keeps
    # every level in the generated code, split into functions of their own.
    # 197 plain levels, and 190 with the capture's, are about the deepest
    # that the instruction tables compile
    inner = r.ch("a") if core == "lowered" else r.capture(r.ch("a"))
    parser = _in_thread(lambda: generated(validate_grammar(r.grammar({"Top": _nest(levels,
                                                                                 inner)}))))
    assert parser.fault is None
    reruns = _reruns(parser, monkeypatch)
    for text in ("", "a", "bba", "b" * levels + "a", "b" * (levels + 1) + "a", "bbx"):
        _same_as_observed(parser, text)
    assert reruns == []
    functions = source_of(parser).count("    def f(pos, d):")
    assert functions == 1 if core == "lowered" else functions > levels // 10


def test_twenty_five_nested_loops_generate_and_agree_with_the_exact_table(monkeypatch):
    # more loops than CPython nests in one function
    e = r.capture(r.ch("x"))
    for _ in range(25):
        e = r.zero_or_more(r.seq(r.ch("a"), e))
    parser = generated(validate_grammar(r.grammar({"Top": e})))
    assert parser.fault is None
    reruns = _reruns(parser, monkeypatch)
    for text in ("", "x", "ax", "aaax", "aaaxa", "a" * 30 + "x"):
        _same_as_observed(parser, text)
    assert reruns == []
    assert source_of(parser).count("while True:") == 25


def test_a_chain_of_2000_rules_generates_and_agrees_with_the_exact_table():
    rules = {f"R{i}": r.seq(r.ref(f"R{i + 1}"), r.ch("x")) for i in range(2000)}
    rules["R2000"] = r.capture(r.ch("x"))
    parser = generated(validate_grammar(r.grammar(rules, start="R0")))
    assert parser.fault is None
    for text in ("x" * 2001, "x" * 2000, "x" * 2002):
        _same_as_observed(parser, text)
    assert parser.run("xxx", start="R1998").values == (Value("Str", "x"),)


def _chain(length, tail, end=lambda: r.capture(r.ch("x"))):
    """R_i <- R_i+1 tail, for i below length, ending in R_length <- end. Where
    the end captures, every rule touches the stack, so nothing lowers to a
    regex; where it is 'a' and the tail 'x', every rule lowers."""
    rules = {f"R{i}": r.seq(r.ref(f"R{i + 1}"), tail()) for i in range(length)}
    rules[f"R{length}"] = end()
    return validate_grammar(r.grammar(rules, start="R0"))


def test_a_chain_of_rules_writes_a_module_linear_in_its_length(monkeypatch):
    # each rule runs in place in the function that reaches it until the
    # budget is spent, and then that function calls the next rule's: 8
    # times the rules may give at most 8.5 times the lines and the regex
    # compiles, each rule's 'x' is written once, and each regex compiled is
    # one that the code names. The start rule's function calls the next one
    # only every few dozen rules, so even the 2,000-rule capture chain stays
    # under the depth bound; the lowered chain is one regex, R0's
    compiles = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *args: compiles.append(args) or compile_(*args))
    x, captured, a = (lambda: r.ch("x")), (lambda: r.capture(r.ch("x"))), (lambda: r.ch("a"))
    chains = {}
    for tail, end in ((x, captured), (captured, captured), (x, a)):
        sizes = []
        for length in (250, 2000):
            grammar = _chain(length, tail, end)
            compiles.clear()
            parser = generated(grammar)
            source = source_of(parser)
            assert len(compiles) == len(set(re.findall(r"\bM\d+\b", source))), length
            sizes.append((len(source.splitlines()), len(compiles)))
        (lines, made), (long_lines, long_made) = sizes
        assert long_lines <= 8.5 * lines and long_made <= 8.5 * made, sizes
        assert source.count("text[pos] == 'x'") <= 2001
        chains[tail, end] = parser
    assert sizes == [(sizes[0][0], 1)] * 2  # the lowered chain: one regex
    reruns = _reruns(chains[captured, captured], monkeypatch)
    _same_as_observed(chains[captured, captured], "x" * 4001)
    _same_as_observed(chains[x, a], "a" + "x" * 2000)
    assert reruns == []


def _unreached_functions(source):
    """The R indices of a module's functions that no call reaches from
    R[0], the one that the factory calls."""
    calls = {index: set(re.findall(r"\bR\[(\d+)\]\(", body)) for body, index in
             re.findall(r"    def f\(pos, d\):(.*?)\n    R\[(\d+)\] = f", source, re.S)}
    reached, todo = set(), ["0"]
    while todo:
        if (index := todo.pop()) not in reached:
            reached.add(index)
            todo += calls[index]
    return set(calls) - reached


@pytest.mark.parametrize("collect", [False, True])
def test_a_module_holds_only_functions_that_its_code_calls(calc_grammar, collect):
    # R[0], the start rule's, is called by the factory, and every other
    # function is reached from it, so none is written for nothing. Started
    # at Number, calc's module reaches no loop breaker
    for grammar, start in ((calc_grammar, None), (load_grammar(ROOT / "bench/json.peg"), None),
                           (meta_grammar(), None), (calc_grammar, "Number")):
        source = generate.generate(Parser(grammar)._tables, engine._RUNTIME, collect, start)[1]
        assert "pos = R[0](0, 0)" in source and _unreached_functions(source) == set()
    assert source.count("    def f(pos, d):") == 1


_STARTS = {  # grammar -> a start rule other than its own, a run past GENERATE_AT, short runs
    "calc": ("Term", "1*" * (GENERATE_AT // 2) + "1", ["2*(3+4)", "(7", "5/", "*6", "(8*x"]),
    "json": ("Value", "[" + "1," * (GENERATE_AT // 2) + "1]", ['[1, {"a": true}]', '{"a" 1}',
                                                              "nul", "[1,]"]),
    "chain": ("R1998", "x" * GENERATE_AT, ["xxx", "xx", "x"]),
}


@pytest.mark.parametrize("name", _STARTS)
def test_a_run_from_another_start_rule_writes_that_rules_modules_once(name, calc_grammar,
                                                                      monkeypatch):
    # the grammar's start rule has its module; past GENERATE_AT a run from
    # another rule writes that rule's module once, which agrees with the
    # exact table and leaves the grammar start's module as it was, and a
    # failed run from it writes and runs that rule's collect module. An
    # unknown start raises KeyError below and past the threshold, and
    # leaves no module behind
    grammar = {"calc": calc_grammar, "json": load_grammar(ROOT / "bench/json.peg"),
               "chain": _chain(2000, lambda: r.ch("x"))}[name]
    start, long, texts = _STARTS[name]
    fresh = Parser(grammar)
    with pytest.raises(KeyError, match="Nope"):
        fresh.run("1", start="Nope")
    assert fresh._modules == {}
    parser = generated(grammar)
    own = parser._modules[grammar.start, False]
    compiles, ran, write = [], [], generate.generate

    def counted(tables, runtime, collect=False, start=None):
        factory, source = write(tables, runtime, collect, start)
        return (lambda *args: ran.append((start, collect)) or factory(*args)), source

    monkeypatch.setattr(generate, "generate", counted)
    monkeypatch.setattr(generate, "_CODES", {})
    monkeypatch.setattr(generate, "compile", lambda *args: compiles.append(args[0])
                        or compile(*args), raising=False)
    assert parser.run(long, start).ok
    assert [source.split("\n")[0] for source in compiles] == ["def parse(state):"]
    module = parser._modules[start, False]
    headers = re.findall(r"    def f\(pos, d\):(.*)", module[1].split("    R[0] = f")[0])
    assert headers[-1] == f"  # {start}"  # R[0] is the start rule's function
    for text in texts:
        _same_as_observed(parser, text, start)
    assert [source.split("\n")[0] for source in compiles] == ["def parse(state):",
                                                              "def collect(state, bound):"]
    failed = sum(not parser.run(text, start).ok for text in texts)
    assert failed and ran.count((start, True)) == 2 * failed
    assert ran.count((start, False)) == 1 + 2 * len(texts)
    assert parser._modules[start, False] is module and parser._modules[grammar.start, False] is own
    keys = set(parser._modules)
    with pytest.raises(KeyError, match="Nope"):
        parser.run("1", start="Nope")
    assert set(parser._modules) == keys and len(compiles) == 2


def test_the_meta_grammar_generates_and_agrees_with_the_exact_table():
    parser = generated(meta_grammar())
    texts = [path.read_text(encoding="utf-8")
             for path in (GRAMMARS / "calc.peg", GRAMMARS / "foo.peg", ROOT / "bench/json.peg")]
    texts += ["A <- 'a' B\nB <- [0-9]+ ~> cons(N,0)\n", "A <- (", "A <- 'a' /", ""]
    for text in texts:
        _same_as_observed(parser, text)


# -- the collect module ------------------------------------------------------------------------

def _collected(passed):
    """Principal index, ordered expected list and rule traces of a collect
    pass, as ``error_pass`` hands it back."""
    state, traces = passed[0], tuple(passed[1])
    expected = list(dict.fromkeys(t.terminal.render() for t in traces))
    return principal_index(state), expected, traces


def _assert_collect_is_exact(parser, text) -> bool:
    """The generated collect pass, from the failed run's max cursor and from
    0, reports what the exact pass without a bound does; whether the run
    failed."""
    with recorded_states() as states:
        result = parser.run(text)
    if result.error is None:
        return False
    exact = _collected(parser.error_pass(text))  # without a bound: the exact pass
    for bound in (states[0].stats.max_cursor, 0):
        assert _collected(parser.error_pass(text, None, bound)) == exact, (text, bound)
    error = result.error
    assert (error.position.index, error.expected(), error.traces) == exact, text
    return True


_FAMILIES = [(lambda rng: gen_grammar(rng, 4), ALPHABET), (lambda rng: gen_grammar(rng, 6), ALPHABET),
             (gen_sound_grammar, ALPHABET), (gen_lowerable_grammar, LOWERABLE_ALPHABET)]


@pytest.mark.parametrize("family", range(len(_FAMILIES)))
def test_the_generated_collect_pass_reports_what_the_exact_pass_does(family):
    make, alphabet = _FAMILIES[family]
    rng = random.Random(f"collect:{family}")
    failed, kinds = 0, set()
    for _ in range(150):
        grammar = make(rng)
        kinds.update(type(node).__name__ for rd in grammar.rules.values()
                     for node in r.walk(rd.expr))
        parser = generated(grammar)
        for _ in range(3):
            failed += _assert_collect_is_exact(parser, gen_input(rng, alphabet=alphabet))
    assert failed > 150
    assert {"NotPredicate", "AndPredicate", "FirstOf", "ZeroOrMore"} <= kinds
    assert ("Quiet" in kinds) == (make is not gen_lowerable_grammar)  # quiet is no regex


def test_the_generated_collect_pass_runs_actions_that_fail():
    # "only_a" fails on a captured "z", so the first alternative of S ends
    # there before its 'b'; inside a predicate, and in a quiet rule, too
    def only_a(value):
        return value if value.payload == "a" else ACTION_FAIL

    check = r.Action(1, only_a, StackEffect(("Str",), ("Str",)), name="only_a")
    az = r.any_of("az")
    rng = random.Random(11)
    failed = 0
    for first in (r.seq(r.capture(az), check, r.ch("b"), r.drop()),
                  r.seq(r.and_pred(r.seq(r.capture(az), check, r.drop())), az, r.ch("b")),
                  r.seq(r.quiet(r.ref("Q")), r.ch("b"))):
        parser = generated(validate_grammar(r.grammar({
            "S": r.seq(r.one_or_more(r.first_of(first, r.seq(az, r.ch("c")))), r.EOI),
            "Q": r.seq(r.capture(az), check, r.drop())}, start="S")))
        assert not parser._tables.value_free
        for _ in range(60):
            failed += _assert_collect_is_exact(parser, gen_input(rng, 8, "azbcd"))
    assert failed > 100


# -- loop breakers ------------------------------------------------------------------------

def _calls(module):
    """The rules that each rule's function in a module, with the helpers
    split from it, calls: a helper comes before the function it was split
    from."""
    rules = {index: name for name, index in module.called.items()}
    calls, found = {}, set()
    for body, index in re.findall(r"    def f\(pos, d\):(.*?)\n    R\[(\d+)\] = f",
                                  module.source(), re.S):
        found.update(rules[int(k)] for k in re.findall(r"R\[(\d+)\]\(pos, d \+ 1\)", body)
                     if int(k) in rules)
        if int(index) in rules:
            calls[rules[int(index)]], found = found, set()
    return calls


@pytest.mark.parametrize("family", range(len(_FAMILIES)))
def test_loop_breakers_break_every_cycle_and_nests_past_three_functions_a_level_run_generated(
        family, monkeypatch):
    # each random grammar gains the cycle N1 <- N3, N2 <- N1 ')',
    # N3 <- '(' N2 / Top, which opened three functions a level when every
    # rule on a cycle kept one: N2, reached only past '(' and neither first
    # nor last of the three in the grammar, is its loop breaker, and the
    # others run in place in its function. Once the rules whose functions
    # generated code calls are gone, no cycle is left among the rules that
    # the start rule reaches, and a nest of 80 levels runs in the generated
    # code with no rerun
    make, alphabet = _FAMILIES[family]
    rng = random.Random(f"breakers:{family}")
    for _ in range(40):
        grammar = make(rng)
        rules = dict(grammar.rules)
        rules.update(N1=r.ref("N3"), N2=r.seq(r.ref("N1"), r.ch(")")),
                     N3=r.first_of(r.seq(r.ch("("), r.ref("N2")), r.ref(grammar.start)))
        grammar = validate_grammar(r.grammar(rules, start="N1"))
        parser = generated(grammar)
        assert parser.fault is None
        references = parser._tables.references
        reached, todo = {"N1"}, ["N1"]
        while todo:
            found = set(references[todo.pop()]) - reached
            reached |= found
            todo += found
        for collect in (False, True):
            module = generate._Module(parser._tables, engine._RUNTIME, collect)
            called = set(module.called)
            assert "N2" in module.breakers and not {"N1", "N3"} & module.breakers
            rest = {name: [n for n in found if n not in called]
                    for name, found in references.items() if name in reached - called}
            assert r.depth_first(rest)[1] == []
            calls = _calls(module)
            assert all(calls[name] <= called for name in called), calls
        with monkeypatch.context() as patch:
            reruns = _reruns(parser, patch)
            for levels in (0, 1, 80):
                _same_as_observed(parser, "(" * levels + gen_input(rng, alphabet=alphabet)
                                  + ")" * levels)
        assert reruns == []


def test_calc_and_json_break_their_cycles_where_a_nesting_level_opens(calc_grammar):
    # calc's cycle is reached past '(' only at Expression; json's two past '{'
    # and '[' only at Members and Elements, not at Value, Object or Array
    json_grammar = load_grammar(ROOT / "bench/json.peg")
    assert generate._loop_breakers(Parser(calc_grammar)._tables) == {"Expression"}
    assert generate._loop_breakers(Parser(json_grammar)._tables) == {"Members", "Elements"}


# -- heads through what passes -------------------------------------------------------------

def test_a_head_stops_at_a_predicate_that_looks_past_the_next_character():
    # A fails at the 'q' at index 1, so the collect pass dispatches at index
    # 0; B's &(. 'x') fails at the 'x' at index 1 too. Through the &, B's
    # head would be 'a' or 'c', the pass would skip B at 'b' and lose 'x'
    parser = generated(parse_grammar("Top <- A / B\n"
                                     "A <- capture('b') 'q' ~> cons(X,1)\n"
                                     "B <- capture(&(. 'x') 'a' / 'c') EOI ~> cons(Y,1)\n"))
    error = parser.run("bz").error
    assert (error.position.index, error.expected()) == (1, ["'q'", "'x'"])
    assert format_error(error, "bz").startswith("Invalid input 'z', expected 'q' or 'x' ")
    _same_as_observed(parser, "bz")


def test_a_head_stops_at_a_not_predicate_whose_body_touches_the_stack():
    # the drop inside the ! underflows, a fault wherever B runs: through the
    # !, B's head would be 'a', and the run would skip B at 'b' and fail
    parser = generated(r.grammar({"Top": r.first_of(
        r.seq(r.capture(r.ch("b")), r.ch("q")), r.seq(r.not_pred(r.drop()), r.ch("a")))}))
    assert parser.run("bz").fault.description.startswith("value stack underflow")
    _same_as_observed(parser, "bz")


def test_json_dispatches_without_a_table_and_star_scans_test_the_next_character():
    # each character that starts a json Value starts one rule, so Value is
    # an if/elif chain; a * scan's regex runs only where its terminal takes
    # the next character, a + scan's at once, in both modules
    json = load_grammar(ROOT / "bench/json.peg")
    assert ".get(text[pos]" not in source_of(generated(json))
    for grammar in (json, meta_grammar()):
        tables = Parser(grammar)._tables
        stars = {id(ins[4]) for ins in _instructions(tables.bodies)
                 if ins[0] == CHARS and not ins[3] and ins[4] is not None}
        for collect in (False, True):
            factory, source = generate.generate(tables, engine._RUNTIME, collect)
            scans = re.findall(r"at = (M\d+)\(text, pos\)\.end\(\)(.*)", source)
            for m, guard in scans:
                assert bool(guard) == (id(factory.__globals__[m]) in stars), m
                assert not guard or re.fullmatch(r" if pos < n and .+ else pos", guard), guard
            assert any(guard for _, guard in scans)


def test_the_sound_family_has_concats_that_fail_in_the_parse_and_in_the_error_pass(
        monkeypatch):
    # its concat fails on two equal strings, so that values decide which
    # alternatives run on in random grammars too, in the generated parse and
    # in the generated error pass
    fails = {"parse": 0, "collect": 0}
    mode = ["parse"]
    error_pass = Parser.error_pass

    def concat(a, b):
        out = generators._concat_fn(a, b)
        fails[mode[0]] += out is ACTION_FAIL
        return out

    def counted(self, *args):
        mode[0] = "collect"
        return error_pass(self, *args)

    monkeypatch.setattr(generators, "CONCAT",
                        r.Action(2, concat, generators.CONCAT.effect, name="concat"))
    monkeypatch.setattr(Parser, "error_pass", counted)
    rng = random.Random("concat")
    for _ in range(1_000):
        mode[0] = "parse"
        generated(gen_sound_grammar(rng)).run(gen_input(rng))
        if all(fails.values()):
            break
    assert all(fails.values()), fails


def test_a_collect_pass_past_the_depth_bound_runs_again_on_the_exact_table(calc_grammar,
                                                                           monkeypatch):
    # a calc paren level opens one generated function. A run past the
    # depth bound starts again on the exact table and hands its error pass
    # no bound, so that pass is the exact one from the start: it neither
    # writes the collect module nor calls the one already written
    parser = generated(calc_grammar)

    def fail(levels):
        """The exact reruns of the run and of its error pass, and the calls
        of the collect module, when the parser fails that deep."""
        text = "(" * levels + "1!" + ")" * levels
        key, called = ("InputLine", True), []
        with monkeypatch.context() as patch:
            runs, passes = _reruns(parser, patch), _reruns(parser, patch, collect=True)
            if key in parser._modules:
                factory, source = parser._modules[key]
                patch.setitem(parser._modules, key,
                              (lambda *args: called.append(args) or factory(*args), source))
            with recorded_states() as states:
                error = parser.run(text).error
        assert error == build_parse_error(parser, text)  # without a bound: the exact pass
        assert [isinstance(state.observer, Collector) for state in states] == [False, True]
        return len(runs), len(passes), len(called)

    deep = generate.DEPTH_BOUND
    assert fail(deep) == (1, 1, 0) and ("InputLine", True) not in parser._modules
    assert fail(60) == (0, 0, 0) and ("InputLine", True) in parser._modules  # written here
    assert fail(60) == (0, 0, 1)
    assert fail(deep) == (1, 1, 0)


def test_a_collect_pass_that_gives_up_late_collects_again_from_the_start(monkeypatch):
    # the collect module, written with a low depth bound, hands A's
    # mismatches at the principal index to its Collector before B's nest
    # passes the bound; the exact pass that follows must not inherit them
    parser = generated(validate_grammar(r.grammar({
        "Top": r.first_of(r.ref("A"), r.ref("B")),
        "A": r.seq(r.zero_or_more(r.ch("(")), r.ch("x"), r.ch("y")),
        "B": r.first_of(r.seq(r.ch("("), r.ref("B"), r.ch(")")), r.seq(r.ch("x"), r.ch("z")))},
        start="Top")))
    monkeypatch.setattr(generate, "DEPTH_BOUND", 4)
    text = "(" * 8 + "x!"
    misses = []
    miss = Collector.miss
    monkeypatch.setattr(Collector, "miss", lambda self, *args: misses.append(args[0])
                        or miss(self, *args))
    reruns = _reruns(parser, monkeypatch, collect=True)
    error = parser.run(text).error
    assert reruns == [text]
    assert misses == [8, 9] + [8, 9, 9]  # the generated pass's, then the exact pass's
    assert (error.position.index, error.traces) == trace_collection(parser, text, None)
    assert [str(t) for t in error.traces] == ["Top / A / 'y'", "Top / " + "B / " * 9 + "'z'"]


def test_only_the_first_failing_run_writes_the_collect_module(calc_grammar, monkeypatch):
    calls = []
    monkeypatch.setattr(generate, "_CODES", {})
    monkeypatch.setattr(generate, "compile", lambda *args: calls.append(args) or compile(*args),
                        raising=False)
    parser = generated(calc_grammar)
    assert len(calls) == 1
    for text in ("1+2", "(3*4)-5", "6"):
        assert parser.run(text).ok
    assert parser.run("1+2!", observer=Trace([])).error is not None  # the exact pass
    assert len(calls) == 1
    assert parser.run("1+2!").error is not None
    assert len(calls) == 2 and calls[1][0].startswith("def collect(state, bound):")
    collect = parser._modules["InputLine", True]
    for text in ("1+", "2*!", ")"):
        assert parser.run(text).error is not None
    assert len(calls) == 2 and parser._modules["InputLine", True] is collect  # nor written again


# -- the value stack in a local ----------------------------------------------------------------

def test_the_parse_modules_keep_the_stack_head_in_a_local_and_count_no_steps(calc_grammar):
    # the head cell goes into h at entry and back to the ValueStack in the
    # finally, and around each action, which reads and writes the stack
    grammars = (calc_grammar, load_grammar(ROOT / "bench/json.peg"), meta_grammar())
    acts = []
    for grammar in grammars:
        parser = generated(grammar)
        lines = source_of(parser).splitlines()
        # a call, not a literal of the meta-grammar such as 'push('
        assert not re.search(r"(?<![\w'])(snapshot|restore|push|take|size)\(|\bsteps\b",
                             source_of(parser))
        touching = [i for i, line in enumerate(lines) if "_head" in line]
        called = [i for i, line in enumerate(lines) if "act(state, " in line]
        assert lines[touching[0]] == "    h = stack._head"
        assert lines[touching[-1] - 1:touching[-1] + 1] == ["    finally:", "        stack._head = h"]
        assert touching[1:-1] == [i + d for i in called for d in (-1, 1)]
        assert all((lines[i - 1].strip(), lines[i + 1].strip())
                   == ("stack._head = h", "h = stack._head") for i in called)
        acts.append(len(called))
    assert acts[:2] == [0, 0] and acts[2] > 0  # calc and json: cons only
    with recorded_states() as states:
        assert generated(calc_grammar).run("1+2*(3-4)").ok
    assert states[0].stats.steps == 0 and states[0].stats.max_cursor > 0
    # nor do the collect modules, with values (the meta-grammar) or without,
    # and a block that would only have counted steps is not written at all
    for grammar, value_free in zip(grammars, (True, True, False)):
        tables = Parser(grammar)._tables
        assert tables.value_free == value_free
        source = generate.generate(tables, engine._RUNTIME, collect=True)[1]
        assert ("h = stack._head" in source) != value_free
        assert not re.search(r"\bsteps\b|(^|:)\s*pass$", source, re.M)
    parser = Parser(calc_grammar)
    assert parser.error_pass("1+2*(3-4!", None, 0)[0].stats.steps == 0


def _fails_on(payload):
    """An action of arity 1 that fails on a Str value of payload, and keeps
    any other."""
    return r.Action(1, lambda v: ACTION_FAIL if v.payload == payload else v,
                    StackEffect(("Str",), ("Str",)), name=f"not_{payload}")


def _strs(*payloads):
    return tuple(Value("Str", p) for p in payloads)


_UNDERFLOW = "value stack underflow: pop from empty value stack"
# case -> (expression, inputs, the values of the first input or its fault)
_STACK_CASES = {
    # the second capture is pushed and the action fails after it: the
    # sequence's head falls back, so the second alternative starts clean
    "action fails": (r.first_of(r.seq(r.capture(r.ch("a")), r.capture(r.any_of("bc")),
                                      _fails_on("b"), cons("P", 2)),
                                r.seq(r.capture(r.ch("a")), r.ch("b"), cons("Q", 1))),
                     ["ab", "ac", "a", "", "abx"], (engine.Node("Q", _strs("a")),)),
    # and where no choice restores it, the sequence in an option (one that
    # collects nothing, since the sequence drops what it pushed) does
    "action fails in an option": (r.seq(r.opt(r.seq(r.capture(r.ch("a")),
                                                    r.capture(r.any_of("bc")), _fails_on("b"),
                                                    r.drop(2))),
                                        r.capture(r.zero_or_more(r.any_of("abc")))),
                                  ["ab", "ac", "a", "", "ca"], _strs("ab")),
    "sequence fails in an option": (r.seq(r.opt(r.seq(r.capture(r.ch("a")), r.ch("b"), r.drop())),
                                          r.capture(r.any_of("ac"))),
                                    ["ac", "ab", "c", "abc"], _strs("a")),
    "arity-0 action": (r.seq(r.capture(r.ch("a")),
                             r.Action(0, lambda: Value("Str", "k"), StackEffect((), ("Str",)),
                                      name="k"), cons("P", 2)),
                       ["a", "b"], (engine.Node("P", _strs("a", "k")),)),
    "cons of none": (r.seq(r.ch("a"), cons("E", 0)), ["a", "b"], (engine.Node("E", ()),)),
    "cons over no value": (r.seq(r.ch("a"), cons("X", 1)), ["a", "b"], _UNDERFLOW),
    "cons over one value": (r.seq(r.capture(r.ch("a")), cons("X", 2)), ["a", "b"], _UNDERFLOW),
    "cons of three over two": (r.seq(r.capture(r.ch("a")), r.capture(r.ch("b")), cons("X", 3)),
                               ["ab", "a"], _UNDERFLOW),
    "cons of three": (r.seq(r.capture(r.ch("a")), r.capture(r.ch("b")), r.capture(r.ch("c")),
                            cons("X", 3)), ["abc", "ab"], (engine.Node("X", _strs(*"abc")),)),
    "collecting * and ?": (r.seq(r.zero_or_more(r.capture(r.any_of("ab"))),
                                 r.opt(r.capture(r.ch("c"))), r.EOI),
                           ["abbac", "", "ab", "c", "cc", "abx"],
                           (Value("ListOf(Str)", _strs(*"abba")), Value("ListOf(Str)", _strs("c")))),
}


@pytest.mark.parametrize("case", _STACK_CASES)
def test_stack_edge_cases_of_the_generated_code_agree_with_observed_runs(case, monkeypatch):
    expr, texts, first = _STACK_CASES[case]
    parser = generated(r.grammar({"Top": expr}))  # unvalidated, so that cons may underflow
    reruns = _reruns(parser, monkeypatch)
    result = parser.run(texts[0])
    assert (result.values if result.ok else result.fault.description) == first
    for text in texts:
        _same_as_observed(parser, text)
    assert reruns == []


def test_a_rerun_past_the_depth_bound_starts_from_an_empty_stack(monkeypatch):
    # the generated run has pushed the leading captures and every level's
    # tick when it gives up; the exact rerun must see none of them
    ticks = []
    grammar = _ticking(ticks)
    grammar = validate_grammar(r.grammar({
        "Top": r.seq(r.capture(r.ch("x")), r.capture(r.ch("y")), r.ref("Nest"), r.EOI,
                     cons("T", 3)),
        "Nest": grammar.rules["Nest"].expr}))
    parser = generated(grammar)
    reruns = _reruns(parser, monkeypatch)
    levels = generate.DEPTH_BOUND + 5
    text = "xy" + "(" * levels + "a" + ")" * levels
    _same_as_observed(parser, text)
    assert reruns == [text]
    (value,) = parser.run(text).values
    assert value.label == "T" and [kid.payload for kid in value.children[:2]] == ["x", "y"]


# -- the code cache --------------------------------------------------------------------------

def test_a_second_parser_over_an_equal_grammar_compiles_nothing(monkeypatch):
    calls = []
    grammars = [load_grammar(GRAMMARS / "calc.peg") for _ in range(2)]  # equal, built apart
    assert grammars[1] is not grammars[0] and grammars[1] == grammars[0]
    monkeypatch.setattr(generate, "_CODES", {})
    monkeypatch.setattr(generate, "compile", lambda *args: calls.append(args) or compile(*args),
                        raising=False)
    first = generated(grammars[0])
    assert len(calls) == 1
    second = generated(grammars[1])
    assert len(calls) == 1 and source_of(second) == source_of(first)
    assert second.run("1+2*(3-4)") == first.run("1+2*(3-4)")


# -- the README's excerpt ---------------------------------------------------------------------

def test_the_readme_shows_calcs_generated_expression_function(calc_grammar):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### From grammar to runtime code"):]
    excerpt = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "# Expression" in excerpt.splitlines()[0]
    assert excerpt in source_of(generated(calc_grammar))
