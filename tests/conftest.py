import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT / "tests"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import pytest

from pegstack import engine, generate
from pegstack.engine import Parser
from pegstack.notation import load_grammar

GRAMMARS = ROOT / "grammars"
DATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def calc_grammar():
    return load_grammar(GRAMMARS / "calc.peg")


@pytest.fixture(scope="session")
def foo_grammar():
    return load_grammar(GRAMMARS / "foo.peg")


def generated(grammar) -> Parser:
    """A Parser over grammar that has written its parse module, so that its
    unobserved runs take the generated code however short their input."""
    parser = Parser(grammar)
    parser._generate()
    return parser


def source_of(parser, start=None, collect=False) -> str | None:
    """The source of a module that parser has written, the parse module of
    the grammar's start rule unless start or collect name another, written
    again without compiling it, since a Parser keeps none; None for one that
    nests too deeply to write, and KeyError for one never written."""
    start = start or parser.grammar.start
    if parser._modules[start, collect] is engine._gives_up:
        return None
    return generate._Module(parser._tables, engine._RUNTIME, collect, start).source()
