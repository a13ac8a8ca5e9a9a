import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
for entry in (ROOT / "src", ROOT / "tests"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import pytest

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
