"""How the work of building a grammar grows with the grammar.

Each test builds one family of grammars at N and 8N rules and counts the
Python calls of a stage under ``cProfile``, which repeat exactly where
times on a shared machine spread 2x or more. A stage linear in the grammar
grows 8x; each count may grow at most 8.5x, the bound of
``test_a_chain_of_rules_writes_a_module_linear_in_its_length``.
"""

import cProfile
import pstats

import pytest

from pegstack.engine import Parser
from pegstack.notation import parse_grammar

GROWTH = 8.5  # the most a count may grow from N to 8N


def _calls(fn):
    """What fn returns, and the Python calls it made."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        out = fn()
    finally:
        profile.disable()
    return out, pstats.Stats(profile).total_calls


def _rule_choice(n):
    """Top <- (R00000 / R00001 / ...) EOI, with R_i <- 'r' "i" ';': the names
    and numbers have a fixed width, so each rule's text has the same length."""
    names = [f"R{i:05d}" for i in range(n)]
    return (f"Top <- ({' / '.join(names)}) EOI\n"
            + "".join(f"{name} <- 'r' \"{i:05d}\" ';'\n" for i, name in enumerate(names)))


@pytest.fixture(scope="module")
def warm():
    # the meta-grammar writes its module on the second load of the process:
    # from the third on, every load runs the meta-grammar's generated code
    for _ in range(2):
        parse_grammar("A <- 'a'\n")


def test_loading_and_building_a_choice_of_rules_is_linear(warm):
    counts = []
    for n in (250, 2000):
        text = _rule_choice(n)
        grammar, load = _calls(lambda: parse_grammar(text))
        counts.append((load, _calls(lambda: Parser(grammar))[1]))
    (load, build), (long_load, long_build) = counts
    assert long_load <= GROWTH * load and long_build <= GROWTH * build, counts


def test_writing_the_modules_of_a_choice_of_rules_is_linear(warm):
    # 2,000 rules would put the choice's regex source past _MAX_SOURCE, a
    # step from one regex to a dispatch over every rule, not a growth rate
    counts = []
    for n in (100, 800):
        parser = Parser(parse_grammar(_rule_choice(n)))
        counts.append(tuple(_calls(lambda: parser._generate(collect=collect))[1]
                            for collect in (False, True)))
    (parse, collect), (long_parse, long_collect) = counts
    assert long_parse <= GROWTH * parse and long_collect <= GROWTH * collect, counts
