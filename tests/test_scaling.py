"""How the work of building a grammar grows with the grammar.

Each test builds one family of grammars at N and 8N rules, or reference
sites, and measures the work of a stage by counts that repeat exactly,
where times on a shared machine spread 2x or more: the Python calls under
``cProfile``, the characters of the regex sources that ``re.compile``
takes, the lines and characters of the modules that the generator
compiles, and the total length of the rule paths that a collect module
names for its mismatch sites (the rules that each site runs in place).
The middle three see work that one C call does, which a call count
cannot, and the characters see a line that grows with the grammar, which
a line count cannot; the rule paths see a site whose path grows with the
grammar, which its line may not show. A stage
linear in the grammar grows 8x; each count may grow at most 8.5x, the
bound of ``test_a_chain_of_rules_writes_a_module_linear_in_its_length``.
"""

import cProfile
import pstats
import re

import pytest

from pegstack import generate
from pegstack.engine import Parser
from pegstack.notation import parse_grammar

GROWTH = 8.5  # the most a count may grow from N to 8N


@pytest.fixture
def work(monkeypatch):
    """A function that runs fn and hands back what it returns and its work:
    (Python calls, regex source characters compiled, generated lines
    compiled, generated characters compiled, rule names in the paths that
    the generated modules' namespaces hold)."""
    compiled = {"regex": 0, "lines": 0, "chars": 0, "paths": 0}
    compile_regex = re.compile

    def regex(pattern, flags=0):
        compiled["regex"] += len(pattern)
        return compile_regex(pattern, flags)

    def module(source, *args):
        compiled["lines"] += len(source.splitlines())
        compiled["chars"] += len(source)
        return compile(source, *args)

    def run(code, namespace):  # a rule path is a tuple of rule names
        compiled["paths"] += sum(len(v) for v in namespace.values() if type(v) is tuple
                                 and all(type(name) is str for name in v))
        return exec(code, namespace)

    monkeypatch.setattr(re, "compile", regex)
    monkeypatch.setattr(generate, "compile", module, raising=False)
    monkeypatch.setattr(generate, "exec", run, raising=False)

    def measure(fn):
        compiled.update(regex=0, lines=0, chars=0, paths=0)
        profile = cProfile.Profile()
        profile.enable()
        try:
            out = fn()
        finally:
            profile.disable()
        return out, (pstats.Stats(profile).total_calls, compiled["regex"], compiled["lines"],
                     compiled["chars"], compiled["paths"])
    return measure


def _assert_linear(counts):
    """Each count of each stage at 8N is at most GROWTH times its count at N."""
    small, large = counts
    for stage, grown in large.items():
        assert all(b <= GROWTH * a for a, b in zip(small[stage], grown)), (stage, counts)


def _rule_choice(n):
    """Top <- (R00000 / R00001 / ...) EOI, with R_i <- 'r' "i" ';': the names
    and numbers have a fixed width, so each rule's text has the same length."""
    names = [f"R{i:05d}" for i in range(n)]
    return (f"Top <- ({' / '.join(names)}) EOI\n"
            + "".join(f"{name} <- 'r' \"{i:05d}\" ';'\n" for i, name in enumerate(names)))


def _referenced(n):
    """Top <- X ',' X ',' ... X EOI, one rule referenced at n sites; quiet
    lowers to no regex, so the sequence does not lower as a whole."""
    return "Top <- " + " ',' ".join(["X"] * n) + " EOI\nX <- quiet([a-z]+) ('=' [0-9]+)?\n"


def _chain(n):
    """R00000 <- R00001 'x', ... down to R<n> <- 'y': each function runs the
    next few dozen rules in place and calls the function of the rule after
    them, and each 'x' mismatches inside every rule run in place above it."""
    return "".join(f"R{i:05d} <- R{i + 1:05d} 'x'\n" for i in range(n)) + f"R{n:05d} <- 'y'\n"


def _declared_chain(n):
    """R00000 <- R00001 'x', ... down to R<n> <- capture('x'): every rule
    pushes one value, and every other rule declares it, (0 -> 1), so that
    each of those is inferred from its body and checked against its
    declaration, and each of the others is inferred through the next."""
    return ("".join(f"R{i:05d}{' : (0 -> 1)' if i % 2 else ''} <- R{i + 1:05d} 'x'\n"
                    for i in range(n))
            + f"R{n:05d} <- capture('x')\n")


@pytest.fixture(scope="module")
def warm():
    # the meta-grammar writes its module on the second load of the process:
    # from the third on, every load runs the meta-grammar's generated code
    for _ in range(2):
        parse_grammar("A <- 'a'\n")


def _built(work, text) -> tuple[Parser, dict]:
    """A Parser over the grammar of text, and the work of loading that
    grammar and of building the Parser."""
    grammar, load = work(lambda: parse_grammar(text))
    parser, build = work(lambda: Parser(grammar))
    return parser, {"load": load, "build": build}


def _written(work, parser, *kinds) -> dict:
    """The work of writing each kind of module, parse or collect."""
    return {kind: work(lambda: parser._generate(collect=kind == "collect"))[1] for kind in kinds}


def test_loading_and_building_a_choice_of_rules_is_linear(warm, work):
    _assert_linear([_built(work, _rule_choice(n))[1] for n in (250, 2000)])


def test_writing_the_modules_of_a_choice_of_rules_is_linear(warm, work):
    # 2,000 rules would put the parse module's regex source past
    # _MAX_SOURCE, a step from one regex to a dispatch over every rule, not
    # a growth rate; the collect module, which lowers nothing, grows at 250
    # and 2,000 rules. Its lines are 16 per rule less a constant, so below
    # 250 or so they grow past 8x without a superlinear term: the first
    # rules, which run in place, write fewer lines each than those that the
    # budget calls
    _assert_linear([_written(work, Parser(parse_grammar(_rule_choice(n))), "parse")
                    for n in (100, 800)])
    _assert_linear([_written(work, Parser(parse_grammar(_rule_choice(n))), "collect")
                    for n in (250, 2000)])


def test_writing_the_collect_module_of_a_chain_of_rules_run_in_place_is_linear(warm, work):
    # a mismatch site names the path of the rules it runs in place, which
    # the budget bounds in each function: the paths grow with the chain,
    # not with its square
    counts = []
    for n in (200, 1600):
        counts.append(_written(work, Parser(parse_grammar(_chain(n))), "collect"))
        assert counts[-1]["collect"][4] > n
    _assert_linear(counts)


def test_building_and_writing_a_rule_referenced_at_many_sites_is_linear(warm, work):
    # past the budget, each site calls the rule's function, and the rule's
    # regex fragment is compiled once, not at each site where it runs in place
    counts = []
    for n in (250, 2000):
        parser, built = _built(work, _referenced(n))
        counts.append(built | _written(work, parser, "parse", "collect"))
        assert counts[-1]["parse"][1] == counts[0]["parse"][1] > 0
    _assert_linear(counts)


def test_building_and_writing_a_chain_with_and_without_declared_effects_is_linear(warm, work):
    # the stack-effect counts of every rule come from the inference that
    # compiling the rules runs, and every function of the parse module keeps
    # its values in locals
    counts = []
    for n in (250, 2000):
        parser, built = _built(work, _declared_chain(n))
        assert set(parser._tables.effects.values()) == {(0, 1)}
        counts.append(built | _written(work, parser, "parse"))
    _assert_linear(counts)
