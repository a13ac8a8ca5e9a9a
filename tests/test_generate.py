"""The Python modules a Parser writes for its grammar, against the exact table.

Once a Parser has written its parse module, an unobserved ``Parser.run``
calls the generated parse code, and when it fails, the generated collect
code; an observed run, and ``run_phase``, take the exact table. A Parser
writes the module when its unobserved runs have been asked to parse
``GENERATE_AT`` characters; the tests here write it at once with
``Parser._generate()``, so that their small inputs run the generated code.
Each test here fails on a mutation of ``pegstack.generate``, of the reruns
in ``Parser`` or of when it generates: the depth bound, the splitting of
deep nests into functions of their own, the collect module's dispatch,
rule path and counters, and the threshold.
"""

import random
import re
import sys
import threading

import pytest

from pegstack import engine, generate
from pegstack import rules as r
from pegstack.effects import StackEffect, cons
from pegstack.engine import ACTION_FAIL, GENERATE_AT, InternalFault, Parser, ParserState, Trace
from pegstack.errors import (Collector, build_parse_error, format_error, principal_index,
                             trace_collection)
from pegstack.instructions import CHARS
from pegstack.notation import load_grammar, meta_grammar, parse_grammar
from pegstack.rules import validate_grammar
from pegstack.values import StackUnderflow, Value, render_value

import generators
from conftest import GRAMMARS, ROOT, generated, source_of
from generators import (ALPHABET, LOWERABLE_ALPHABET, big_expression, gen_grammar, gen_input,
                        gen_leaf_grammar, gen_lowerable_grammar, gen_sound_grammar)
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
    # and what generated code calls: the register form allocates its nodes
    # with new (values.built), which takes Node itself
    for name in ("node1", "node2", "new"):
        monkeypatch.setitem(engine._RUNTIME, name, counted(engine._RUNTIME[name]))
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
    assert parser._modules["InputLine", module == "collect"] is engine._gives_up


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
    assert crossed_deep._modules == {("Top", False): engine._gives_up}
    assert _report(crossed_deep.run(long)) == expected[0]  # and so do the runs after it

    failed_deep = Parser(grammar)
    assert _report(failed_deep.run(long)) == expected[0] and source_of(failed_deep) is not None
    assert _report(deep(lambda: failed_deep.run(failing))) == expected[1]
    assert failed_deep._modules["Top", True] is engine._gives_up
    assert _report(failed_deep.run(failing)) == expected[1]


def test_building_a_parser_compiles_no_regex_and_no_module(monkeypatch):
    # R_i <- R_i+1 'a': a Parser leaves writing the module of a long chain of
    # rules to the runs whose input pays for it, and writing it compiles one
    # regex, R0's, which holds the whole chain
    calls = []
    monkeypatch.setattr(generate, "compile", lambda *args: calls.append("module")
                        or compile(*args), raising=False)
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *args: calls.append("regex") or compile_(*args))

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
    assert calls.count("module") == 1 and calls.count("regex") == 1


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
            made = len(compiles)  # before source_of writes the module again
            source = source_of(parser)
            assert made == len(set(re.findall(r"\bM\d+\b", source))), length
            sizes.append((len(source.splitlines()), made))
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
        tables = Parser(grammar)._tables
        if collect and not tables.value_free:
            continue  # the meta-grammar, whose actions may fail, has no collect module
        source = generate._Module(tables, engine._RUNTIME, collect, start).source()
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
        factory = write(tables, runtime, collect, start)
        return lambda *args: ran.append((start, collect)) or factory(*args)

    monkeypatch.setattr(generate, "generate", counted)
    monkeypatch.setattr(generate, "compile", lambda *args: compiles.append(args[0])
                        or compile(*args), raising=False)
    assert parser.run(long, start).ok
    assert [source.split("\n")[0] for source in compiles] == ["def parse(state):"]
    module = parser._modules[start, False]
    headers = re.findall(r"    def f\(pos, d\):(.*)",
                         source_of(parser, start).split("    R[0] = f")[0])
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


# -- the collect module's rule paths ---------------------------------------------------------

class _Logged(Collector):
    """A Collector that also logs each mismatch handed to it, with its rule
    path as a tuple of names from the start rule."""

    __slots__ = ("log",)

    def __init__(self):
        super().__init__()
        self.log = []

    def miss(self, at, node, path, quiet):
        names, cell = [], path
        while cell:
            names.append(cell[0])
            cell = cell[1]
        self.log.append((at, node, tuple(reversed(names)), quiet))
        super().miss(at, node, path, quiet)


def _collect_run(parser, text, start, bound):
    """The counters, the logged mismatches and the rule traces of a pass of
    parser's generated collect code from bound."""
    state = ParserState(text)
    state.observer = _Logged()
    parser._generate(start, collect=True)(state, bound)
    stats = state.stats
    return stats.terminal_mismatches, stats.max_cursor, state.observer.log, state.observer.traces()


# case -> (rules, made when the test runs, start rule, inputs, lines the
# collect module must hold): each puts a site that names the rules it runs
# in place where a path that the functions keep meets it
_PATHS = {
    # A, a loop breaker, is called through E, which runs in place in A's
    # function under one, two and three rules
    "a loop breaker called at several static depths": (
        lambda: {"S": r.seq(r.ref("A"), r.EOI),
                 "A": r.first_of(r.seq(r.ch("a"), r.ref("B")), r.seq(r.ch("b"), r.ref("C")),
                                 r.ref("E")),
                 "B": r.seq(r.ch("x"), r.ref("E")), "C": r.seq(r.ch("y"), r.ref("D")),
                 "D": r.seq(r.ch("z"), r.ref("E")),
                 "E": r.first_of(r.seq(r.ch("("), r.ref("A"), r.ch(")")), r.ch("n"))},
        None, ["a(b", "axn", "ax(a", "byz(byz(a", "byz(n", "(a)", "n", "byzn)", "byz(by",
               "ax(axn!", "(((", "bx", "by", "a(n))"],
        ["path = ('E', path)", "path = ('E', ('B', path))", "path = ('E', ('D', ('C', path)))"]),
    # Big does not fit the budget, so P and M, run in place, call it
    "a budget spill called from two sites": (
        lambda: {"S": r.seq(r.first_of(r.ref("P"), r.ref("Q")), r.EOI),
                 "P": r.seq(r.ch("p"), r.ref("Big")), "Q": r.seq(r.ch("q"), r.ref("M")),
                 "M": r.first_of(r.seq(r.ch("r"), r.ref("Big")), r.ch("s")),
                 "Big": r.first_of(r.seq(*map(r.ch, "ab" * (generate._BUDGET // 2))),
                                   r.ch("c"))},
        None, ["pc", "pabx", "qrab", "qrc", "qs", "qrx", "px", "q", "pcc", "qsc", "qrabab"],
        ["path = ('P', path)", "path = ('M', ('Q', path))"]),
    # V's nest splits into a function of its own, which starts from the rules
    # its caller runs in place, V, and calls W from under V and under V and U
    "a nest split past the split depth": (
        lambda: {"S": r.seq(r.ref("W"), r.EOI), "W": r.seq(r.ch("w"), r.ref("V")),
                 "V": _blocks(generate._SPLIT_AT + 2, r.first_of(
                     r.seq(r.ch("a"), r.ref("U")), r.seq(r.ch("("), r.ref("W"), r.ch(")")))),
                 "U": r.first_of(r.ch("u"), r.seq(r.ch("["), r.ref("W"), r.ch("]")))},
        None, ["wau", "wa", "w(wau)", "w(wa[wau]", "wa[w(wau", "wx", "w(w", "wa[wau]]", "w"],
        ["path = ('V', path)", "path = ('U', ('V', path))"]),
    # mismatches inside quiet and ! in rules run in place: the first raise
    # the maximum, unrecorded, the second neither count nor raise it
    "quiet and ! inside rules run in place": (
        lambda: {"S": r.seq(r.ref("A"), r.EOI),
                 "A": r.first_of(r.seq(r.ref("Q"), r.ch("a")), r.seq(r.ref("N"), r.ch("b")),
                                 r.seq(r.ch("c"), r.ref("K"))),
                 "Q": r.first_of(r.seq(r.quiet(r.seq(r.ch("q"), r.ch("r"))), r.ch("x")),
                                 r.lit("qq")),
                 "N": r.first_of(r.seq(r.not_pred(r.seq(r.ch("n"), r.ch("o"))), r.ch("n")),
                                 r.seq(r.not_pred(r.ref("L")), r.ch("m"))),
                 "L": r.seq(r.ch("l"), r.ch("l")),
                 "K": r.first_of(r.seq(r.quiet(r.ref("L")), r.ch("k")),
                                 r.seq(r.and_pred(r.ref("L")), r.ch("l"), r.ch("j")))},
        None, ["qra", "qrxa", "q", "qqa", "qqb", "nob", "nb", "nx", "llm", "mb", "lm", "cllk",
               "clj", "cllj", "cl", "c", "x"],
        ["quiets += 1", "nots += 1"]),
    # a run from Term: its function runs Factor and Number in place, and
    # calls Expression, a loop breaker, under Factor
    "a run from a rule other than the start rule": (
        lambda: {name: (rd.expr, rd.effect) if rd.effect else rd.expr
                 for name, rd in load_grammar(GRAMMARS / "calc.peg").rules.items()},
        "Term", ["1*(2+", "(1", "2*3!", "((1)*", "1+2", "3*(4-5)/", "*", ""],
        ["path = ('Factor', path)"]),
}


@pytest.mark.parametrize("case", _PATHS)
def test_the_collect_modules_rule_paths_match_the_exact_pass(case, monkeypatch):
    # a mismatch site names the rules that it runs in place, which miss
    # puts on the path only for a mismatch it hands over; a call puts them
    # on the path. The collect pass gives the exact pass's traces in its
    # order, and hands over the same mismatches, with the same paths and
    # counters, as a module that writes every rule as a function, whose
    # paths the functions keep alone
    rules, start, texts, lines = _PATHS[case]
    grammar = validate_grammar(r.grammar(rules(), start=start or "S"))
    parser, functions = Parser(grammar), Parser(grammar)
    parser._generate(start)
    parser._generate(start, collect=True)
    with monkeypatch.context() as patch:
        patch.setattr(generate, "_BUDGET", 0)  # every reference calls its rule's function
        functions._generate(start, collect=True)
        assert not re.search(r", P\d+\)", source_of(functions, start, collect=True))
    assert parser._tables.value_free
    source = source_of(parser, start, collect=True)
    assert re.search(r"miss\(\w+, T\d+, P\d+\)", source)
    for line in lines:
        assert line in source, line
    failed = deepest = 0
    for text in texts:
        with recorded_states() as states:
            result = parser.run(text, start)
        if result.error is None:
            continue
        failed += 1
        exact = _collected(parser.error_pass(text, start))
        for bound in (states[0].stats.max_cursor, 0):
            run = _collect_run(parser, text, start, bound)
            assert run == _collect_run(functions, text, start, bound), (text, bound)
            deepest = max([deepest, *(len(path) for _, _, path, _ in run[2])])
            passed = parser.error_pass(text, start, bound)
            assert passed[0].stats.steps == 0  # generated, not the exact pass
            assert _collected(passed) == exact, (text, bound)
        error = result.error
        assert (error.position.index, error.expected(), error.traces) == exact, text
    assert failed >= len(texts) // 2 and deepest >= 4


def test_the_collect_modules_change_the_path_only_at_function_entries_and_around_calls():
    # calc's and json's: a rule's function opens its rule on entry and
    # closes it before it returns, and a call from code that runs rules in
    # place puts them on the path and takes them off after the call; every
    # other site only names its rules
    for grammar in (load_grammar(GRAMMARS / "calc.peg"), load_grammar(ROOT / "bench/json.peg")):
        module = generate._Module(Parser(grammar)._tables, engine._RUNTIME, True)
        lines = [line.strip() for line in module.source().splitlines()]
        entries = calls = 0
        for i, line in enumerate(lines):
            if not re.search(r"\bpath = ", line) or line.startswith("path = ()"):
                continue
            if re.fullmatch(r"path = \('\w+', path\)", line):
                assert lines[i - 1] == "if d > 200: raise TooDeep"
                entries += 1
            elif line == "path = path[1]":
                assert lines[i + 1] == "return pos"
                entries -= 1
            elif (pushed := re.fullmatch(r"(q\d+) = path; path = (\('\w+', )+path\)+", line)):
                assert re.fullmatch(r"pos = R\[\d+\]\(pos, d \+ 1\)( +# \w+)?", lines[i + 1])
                assert lines[i + 2] == f"path = {pushed[1]}"
                calls += 1
            else:
                assert re.fullmatch(r"path = q\d+", line) and lines[i - 2].startswith(line[7:])
        assert entries == 0 and calls > 0


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
        for collect in (False, True)[:1 + parser._tables.value_free]:  # collect: value-free only
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
    # the next character, a + scan's at once, in both modules (the
    # meta-grammar, whose actions may fail, has no collect module)
    json = load_grammar(ROOT / "bench/json.peg")
    assert ".get(text[pos]" not in source_of(generated(json))
    for grammar in (json, meta_grammar()):
        tables = Parser(grammar)._tables
        stars = {id(ins[4]) for ins in _instructions(tables.bodies)
                 if ins[0] == CHARS and not ins[3] and ins[4] is not None}
        for collect in (False, True)[:1 + tables.value_free]:
            module = generate._Module(tables, engine._RUNTIME, collect)
            scans = re.findall(r"at = (M\d+)\(text, pos\)\.end\(\)(.*)", module.source())
            for m, guard in scans:
                assert bool(guard) == (id(module.namespace[m]) in stars), m
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
                factory = parser._modules[key]
                patch.setitem(parser._modules, key,
                              lambda *args: called.append(args) or factory(*args))
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


def test_a_failed_run_of_a_grammar_whose_values_may_decide_a_match_writes_no_collect_module():
    # "only_a" fails on a captured "z", so values decide which alternatives
    # run on: the error pass of a failed generated run is the exact one,
    # and it reports the exact pass's principal index and ordered traces
    def only_a(value):
        return value if value.payload == "a" else ACTION_FAIL

    check = r.Action(1, only_a, StackEffect(("Str",), ("Str",)), name="only_a")
    az = r.any_of("az")
    parser = generated(validate_grammar(r.grammar({"S": r.first_of(
        r.seq(r.capture(az), check, r.ch("b")), r.seq(az, r.ch("c")))})))
    assert not parser._tables.value_free
    for text, expected in (("zd", ["'c'"]), ("ad", ["'b'", "'c'"]), ("q", ["[az]"])):
        with recorded_states() as states:
            error = parser.run(text).error
        assert [type(state.observer) for state in states] == [type(None), Collector], text
        assert (error.position.index, error.traces) == trace_collection(parser, text, None)
        assert error.expected() == expected, text
    assert list(parser._modules) == [("S", False)]


def test_the_collect_module_of_a_grammar_whose_values_may_decide_a_match_is_refused():
    tables = Parser(meta_grammar())._tables
    assert not tables.value_free  # its actions may fail
    assert generate._Module(tables, engine._RUNTIME).source().startswith("def parse(state):")
    with pytest.raises(ValueError, match="values decide no match"):
        generate._Module(tables, engine._RUNTIME, collect=True)


# -- the value stack in locals ----------------------------------------------------------------

def test_the_parse_modules_keep_values_in_locals_or_the_stack_head_and_count_no_steps(
        calc_grammar):
    # the head cell goes into h at entry and back to the ValueStack in the
    # finally, and around each action, which reads and writes the stack.
    # calc's and json's functions keep their values in locals v0, v1, ...
    # (the register form): h only receives the start rule's value, once the
    # run has matched. The meta-grammar's, whose rules hold actions, push
    # cells onto h and snapshot it
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
        cells = [line.strip() for line in lines
                 if re.search(r"\bh\b", line) and not line.strip().startswith("nonlocal ")]
        if called:
            assert any(re.match(r"s\d+ = h$", line) for line in cells)
            assert any(line.startswith("h = (Value('Str', ") for line in cells)
        else:
            assert cells == ["h = stack._head", "if pos >= 0: h = (out, h, h[2] + 1)",
                             "stack._head = h"]
            # each cons builds its node in place (values.built), with no call
            source = source_of(parser)
            assert re.search(r"^ +node = new\(Node\); .*; v0 = node$", source, re.M)
            assert not re.search(r"\b(leaf|node1|node2|Node)\(", source)
    assert acts[:2] == [0, 0] and acts[2] > 0  # calc and json: cons only
    with recorded_states() as states:
        assert generated(calc_grammar).run("1+2*(3-4)").ok
    assert states[0].stats.steps == 0 and states[0].stats.max_cursor > 0
    # nor do the collect modules, written only for calc and json, which hold
    # no values, and a block that would only have counted steps is not
    # written at all
    for grammar, value_free in zip(grammars, (True, True, False)):
        tables = Parser(grammar)._tables
        assert tables.value_free == value_free
        if value_free:
            source = generate._Module(tables, engine._RUNTIME, True).source()
            assert "stack" not in source
            assert not re.search(r"\bsteps\b|(^|:)\s*pass$", source, re.M)
    parser = Parser(calc_grammar)
    assert parser.error_pass("1+2*(3-4!", None, 0)[0].stats.steps == 0


def test_calc_and_json_keep_every_value_in_locals_and_the_meta_grammar_none():
    # every rule of calc and json has stack-effect counts, so each of their
    # functions takes the register form; the meta-grammar's functions are
    # those of rules that reach actions, which have none
    for grammar, register in ((load_grammar(GRAMMARS / "calc.peg"), True),
                              (load_grammar(ROOT / "bench/json.peg"), True),
                              (meta_grammar(), False)):
        tables = Parser(grammar)._tables
        assert (set(tables.effects.values()) == {(0, 1)}) == register
        module = generate._Module(tables, engine._RUNTIME)
        assert module.registers == (len(module.functions) if register else 0)
        assert module.registers == len(re.findall(r"^        (if pos >= 0: )?out = v",
                                                  module.source(), re.M))


def _exact(parser, text):
    """What the exact table reports for text from the start rule: whether
    it matched, the values, the cursor and the stack size, or the fault."""
    state = ParserState(text)
    try:
        ok = parser.match_rule(state, parser.grammar.start)
    except StackUnderflow as exc:
        return f"value stack underflow: {exc}"
    return ok, state.stack.values(), state.cursor, len(state.stack)


def _generated_run(parser, text):
    """The same, from an unobserved run of the generated code."""
    with recorded_states() as states:
        result = parser.run(text)
    if result.fault is not None:
        return result.fault.description
    state = states[0]
    return result.ok, state.stack.values(), state.cursor, len(state.stack)


_TWO = r.Action(0, lambda: (Value("Str", "x"), Value("Str", "y")), StackEffect((), ("Str",)),
                name="two")
# case -> (rules, the start rule's counts, inputs); none is validated or checked
_UNSOUND: dict = {
    # Top takes a value that nothing pushed: its counts pop, so its function
    # keeps the cells, and the run underflows where the exact one does
    "a grammar that does not check": (
        {"Top": r.seq(r.capture(r.ch("a")), r.ref("Pair")),
         "Pair": r.seq(r.capture(r.ch("b")), cons("P", 3))}, (1, 1), ["ab", "a", "", "abb"]),
    # A's body pushes nothing: A has no counts, and so has each rule that
    # reaches it, whatever their declarations say
    "a declared effect that lies": (
        {"Top": r.seq(r.ref("A"), cons("X", 1), r.ch("b")),
         "A": (r.ch("a"), StackEffect((), ("Str",)))}, None, ["ab", "a", "b"]),
    # two pushes two values, not the one it declares: its rule keeps the cells
    "an action whose effect differs from what it pushes (_TWO)": (
        {"Top": r.seq(r.ch("a"), _TWO, cons("P", 1), r.opt(r.ch("b")))}, None, ["ab", "a", "b"]),
}


@pytest.mark.parametrize("case", _UNSOUND)
def test_a_grammar_whose_effects_do_not_hold_runs_as_the_exact_table(case):
    rules, counts, texts = _UNSOUND[case]
    parser = generated(r.grammar(rules, start="Top"))
    assert parser._tables.effects["Top"] == counts
    assert generate._Module(parser._tables, engine._RUNTIME).registers == 0
    outcomes = [_generated_run(parser, text) for text in texts]
    assert outcomes == [_exact(parser, text) for text in texts]
    # the first input underflows, but where the action pushes one value more
    assert outcomes[0] == ("value stack underflow: pop from empty value stack" if "_TWO" not in case
                           else (True, (Value("Str", "x"), engine.Node("P", (Value("Str", "y"),))),
                                 2, 2))


def _fold(levels):
    """Fold nested levels deep: each level folds a value into the one below
    it, in a loop that splits into a function of its own past _SPLIT_AT.
    The innermost folds the value of Q, whose function hands it back in
    ``out``, and then may fail."""
    inner = r.seq(r.ref("Q"), cons("L", 2), r.ch("e"))
    for _ in range(levels):
        inner = r.one_or_more(r.seq(r.ch("b"), r.capture(r.ch("c")), cons("V", 1), inner,
                                    cons("L", 2), r.opt(r.ch("d"))))
    return r.seq(r.capture(r.ch("a")), cons("V", 1), inner, r.EOI)


def _opt_fold(levels):
    """An option of 'b', the next level and 'e', nested levels deep around
    a fold of Q's value and a capture into the value of the start: a level
    that fails after the fold in a split function leaves that value as it
    was, although Q's function handed its own back through ``out``."""
    inner = r.seq(r.capture(r.ch("c")), r.ref("Q"), cons("L", 3))
    for _ in range(levels):
        inner = r.opt(r.seq(r.ch("b"), inner, r.ch("e")))
    return r.seq(r.capture(r.ch("a")), cons("V", 1), inner, r.EOI)


def _split_fold(levels):
    """Options of 'b' nested levels deep, the innermost but one followed by
    'b', around an option that folds Q's value and a capture into the value
    of the start and then needs 'f': where that fold is the sequence split
    off into a function of its own and fails at 'f', Q's function has left
    its own value in ``out``, and the option around the call moves on with
    the start's value as it was."""
    inner = r.opt(r.seq(r.ch("b"), r.capture(r.ch("c")), r.ref("Q"), cons("L", 3), r.ch("f")))
    inner = r.opt(r.seq(r.ch("b"), inner, r.ch("b")))
    for _ in range(levels - 1):
        inner = r.opt(r.seq(r.ch("b"), inner))
    return r.seq(r.capture(r.ch("a")), cons("V", 1), inner, r.zero_or_more(r.ANY))


_Q = (r.first_of(r.capture(r.ch("z")), r.seq(r.ch("y"), r.ref("Q"))), StackEffect((), ("Str",)))
_DEEP = generate._SPLIT_AT + 3
# case -> (rules, the functions written and those in the register form, inputs)
_REGISTERS = {
    # Fold takes the value below it: its function keeps cells, which the
    # start rule's locals go into and come back from
    "a loop breaker that pops": (
        {"Top": r.seq(r.capture(r.ch("a")), r.ref("Fold"), r.EOI),
         "Fold": (r.first_of(r.seq(r.ch("+"), r.capture(r.ch("a")), cons("Add", 2), r.ref("Fold")),
                             cons("End", 1)), StackEffect(("*",), ("Node",)))},
        (2, 1), ["a", "a+a", "a+a+a", "a+", "a+b", ""]),
    # an iteration that fails after its cons put back the value it folded
    "a fold that fails after it popped": (
        {"Top": r.seq(r.capture(r.ch("a")), cons("V", 1),
                      r.zero_or_more(r.seq(r.ch("+"), r.capture(r.ch("a")), cons("Add", 2),
                                           r.ch(";"))), r.opt(r.ch("+")))},
        (1, 1), ["a", "a+a;", "a+a;+a", "a+a;+a;", "a+"]),
    # a predicate restores what its body popped, so a rule that holds one
    # whose body pops has no counts, and keeps the cells
    "a predicate whose body pops": (
        {"Top": r.seq(r.capture(r.ch("a")), r.not_pred(r.seq(cons("X", 1), r.ch("b"))),
                      r.ch("c"))},
        (1, 0), ["ac", "ab", "abc", "a"]),
    # a body without a head that pops and matches without moving is undone
    "a headless fold": (
        {"Top": r.seq(r.capture(r.ch("a")), cons("V", 1),
                      r.zero_or_more(r.seq(r.opt(r.ch("b")), cons("Q", 1))), r.opt(r.ch("c")))},
        (1, 1), ["a", "ab", "abb", "abc", ""]),
    # values cross into a split function and back
    "a fold nested past the split": (
        {"Top": _fold(_DEEP), "Q": _Q},
        None, ["a" + "bc" * _DEEP + tail for tail in ("ze", "yyze", "zed", "z", "zebcze", "zbcze")]
        + ["abcze", "abcbcz", "a"]),
    "a split function that fails after a call": (
        {"Top": _split_fold(generate._SPLIT_AT - 2), "Q": _Q},
        None, ["a" + "b" * (generate._SPLIT_AT - 1) + tail
               for tail in ("czf", "czx", "cyzx", "czxb", "")] + ["abbczf", "a"]),
    "a fold in options nested past the split": (
        {"Top": _opt_fold(_DEEP), "Q": _Q},
        None, ["a" + "b" * _DEEP + "cz" + "e" * count for count in range(_DEEP + 1)]),
}


@pytest.mark.parametrize("case", _REGISTERS)
def test_the_register_form_agrees_with_the_exact_table(case):
    rules, functions, texts = _REGISTERS[case]
    parser = generated(validate_grammar(r.grammar(rules, start="Top")))
    module = generate._Module(parser._tables, engine._RUNTIME)
    if functions is None:  # the split functions are in the register form too
        assert module.registers == len(module.functions) > 1
    else:
        assert (len(module.functions), module.registers) == functions
    for text in texts:
        assert _generated_run(parser, text) == _exact(parser, text), text


def _leaves(source: str) -> int:
    """The leaves that a module's source builds: the leaf's marker in the
    statements of ``values.built``."""
    return len(re.findall(r"\bTEXT\b", source))


def _leaf_run(parser, text):
    """The values, their renders, the cursor and the counters of an
    unobserved run of the generated code."""
    with recorded_states() as states:
        result = parser.run(text)
    stats = states[0].stats
    return (result.values, [render_value(v) for v in result.values or ()], states[0].cursor,
            (stats.steps, stats.terminal_mismatches, stats.max_cursor))


def test_captured_texts_made_leaves_agree_with_the_exact_table_and_the_cell_forms_counters():
    # a capture's text stays unboxed in the register form until a cons of
    # one child makes the leaf; every other use boxes it first. The runs
    # agree with run_phase on values, their renders and the cursor, and
    # with the same grammar's module written all in the cell form, which
    # holds each value in a cell, on the counters too (the exact table
    # counts mismatches that the generated code's dispatch skips)
    rng = random.Random("leaves")
    leaves = handed = boxed = 0
    for _ in range(150):
        grammar = gen_leaf_grammar(rng)
        parser, cells = generated(grammar), Parser(grammar)
        cells._tables.effects = dict.fromkeys(cells._tables.effects)  # no counts: the cell form
        cells._generate()
        source = source_of(parser)
        leaves += _leaves(source)
        handed += len(re.findall(r"out = .*Value\('Str', v\d+\)", source))
        boxed += len(re.findall(r"(?<!out = )\bv(\d+) = Value\('Str', v\1\)", source))
        for _ in range(4):
            text = gen_input(rng)
            run, exact = _leaf_run(parser, text), parser.run_phase(text)
            assert run == _leaf_run(cells, text), (grammar, text)
            if run[0] is not None:
                assert run[:3] == (exact.stack.values(), [render_value(v) for v in run[0]],
                                   exact.cursor), (grammar, text)
    assert leaves > 100 and handed > 10 and boxed > 10


def _blocks(levels: int, bottom):
    """Sequences nested levels deep, each starting with ``!'x'``, which can
    fail, so that each opens a block, around bottom."""
    for _ in range(levels):
        bottom = r.seq(r.not_pred(r.ch("x")), bottom)
    return bottom


_AB = r.any_of("ab")


def _anew(expr):
    """A text dropped and captured anew after expr."""
    return r.seq(expr, r.drop(), r.capture(_AB))


# case -> (rules, inputs, leaves in the parse module); together the cases
# reach every place where the generator boxes a text, and a generator that
# leaves out any one of those boxes fails at least one of them
_LEAVES = {
    # the choice in the ! (no regex: ignore case) boxes only what the
    # predicate pushed: where 'c' fails, the choice never runs, and the text
    # must still be unboxed
    "a predicate whose body branches": (
        {"Top": r.seq(r.capture(_AB), r.not_pred(r.seq(r.ch("c"), r.first_of(r.ignore_case("A"),
                                                                               r.ch("b")))),
                      cons("L", 1))}, ["a", "ab", "ac", "acc", "aca", "c"], 1),
    # a text held where a loop, an option or a choice starts is boxed
    # there, as a body or an alternative may drop it and capture anew
    "a loop over a text": (
        {"Top": r.seq(r.capture(_AB), r.zero_or_more(_anew(r.ch("c"))), cons("L", 1))},
        ["a", "aca", "acacb", "ac", "c"], 0),
    "an option over a text": (
        {"Top": r.seq(r.capture(_AB), r.opt(_anew(r.ch("c"))), cons("L", 1))},
        ["a", "aca", "acac", "ac"], 0),
    "a choice over a text": (
        {"Top": r.seq(r.capture(_AB), r.first_of(_anew(r.ch("c")), _anew(r.ch("d"))),
                      cons("L", 1))}, ["aca", "adb", "a", "ae"], 0),
    # an alternative that leaves a text boxes it where it ends
    "a choice of a text and a pushed one": (
        {"Top": r.seq(r.first_of(r.capture(_AB), r.seq(r.ch("c"), r.push(Value("Str", "k")))),
                      r.ch("d"), cons("L", 1))}, ["ad", "cd", "d", "a"], 0),
    "a choice of a leaf and a node": (
        {"Top": r.seq(r.first_of(r.seq(r.capture(_AB), cons("K", 1)),
                                 r.seq(r.ch("c"), cons("E", 0))),
                      r.ch("d"), cons("L", 1))}, ["ad", "ccd", "d", "a"], 1),
    "a text handed into a split function": (
        {"Top": r.seq(r.capture(_AB), _blocks(generate._SPLIT_AT + 2, cons("L", 1)))},
        ["a", "b", "", "c"], 0),
    "a text handed back from a split function": (
        {"Top": r.seq(_blocks(generate._SPLIT_AT + 2, r.capture(_AB)), cons("L", 1))},
        ["a", "b", "", "c"], 0),
    "a text taken by rules that pop, called and in place": (
        {"Top": r.seq(r.capture(_AB), r.ref("Pop"), r.capture(_AB), r.ref("PopIn"), cons("N", 2)),
         "Pop": (r.first_of(r.seq(r.ch("c"), r.ref("Pop")), cons("P", 1)),
                 StackEffect(("*",), ("Node",))),
         "PopIn": r.seq(r.opt(r.ch("c")), cons("Q", 1))},
        ["aa", "acb", "acccbc", "a", "ac"], 1),
    "a text handed back by its rule's function": (
        {"Top": r.seq(r.ref("Text"), r.ch("d")),
         "Text": (r.seq(r.opt(r.seq(r.ch("b"), r.ref("Text"), r.drop())), r.capture(_AB)),
                  StackEffect((), ("Str",)))}, ["ad", "bbaad", "a", "bd"], 0),
    "texts under a cons of two and collected": (
        {"Top": r.seq(r.capture(_AB), r.capture(_AB), cons("N", 2),
                      r.zero_or_more(r.capture(r.ch("c"))), r.opt(r.capture(r.ch("a"))))},
        ["ab", "abcc", "abca", "a", "abcd"], 0),
}


@pytest.mark.parametrize("case", _LEAVES)
def test_each_use_of_a_captured_text_agrees_with_the_exact_table(case):
    rules, texts, leaves = _LEAVES[case]
    parser = generated(validate_grammar(r.grammar(rules, start="Top")))
    module = generate._Module(parser._tables, engine._RUNTIME)
    assert module.registers and _leaves(module.source()) == leaves
    for text in texts:
        assert _generated_run(parser, text) == _exact(parser, text), text


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


# -- the README's excerpt ---------------------------------------------------------------------

def test_the_readme_shows_calcs_generated_expression_function(calc_grammar):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### From grammar to runtime code"):]
    excerpt = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "# Expression" in excerpt.splitlines()[0]
    assert excerpt in source_of(generated(calc_grammar))


# -- the generated-code report -------------------------------------------------------------

def test_the_code_lines_report_writes_every_module(monkeypatch, capsys):
    # tests/code_lines.py --generated reads generator internals: a change to
    # them must break this, not the report
    import code_lines
    monkeypatch.setattr(code_lines, "CHAIN", 20)
    monkeypatch.setattr(code_lines, "WRITES", 1)
    code_lines.generated(code_lines.SRC)
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", "functions", "shared", "calls", "registers",
                              "leaves", "write", "ms"]
    assert [row[:24].strip() for row in rows] == [
        f"{name} {kind}" for name in ("calc", "json", "meta-grammar", "lowered chain",
                                      "capture chain") for kind in ("parse", "collect")
        if (name, kind) != ("meta-grammar", "collect")]  # its actions may fail
    for row in rows:
        lines, functions, *_ = row[24:].split()
        assert int(lines.replace(",", "")) > 0 and int(functions) > 0, row
