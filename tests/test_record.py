"""Record classes: the semantics they had as frozen slotted dataclasses, and a
cold start that generates no code."""

import ast
import os
import subprocess
import sys

import pytest

from pegstack import rules as r
from pegstack.effects import StackEffect
from pegstack.engine import InternalFault, RunResult
from pegstack.errors import Position, RuleTrace, TerminalDescriptor
from pegstack.record import FrozenInstanceError, record
from pegstack.values import Value

from conftest import ROOT


def test_repr_names_every_field():
    assert repr(r.Ch("a")) == "Ch(char='a')"
    assert repr(r.AnyChar()) == "AnyChar()"
    assert repr(RunResult(values=())) == "RunResult(values=(), error=None, fault=None)"
    assert repr(Position(3, 1, 4)) == "Position(index=3, line=1, column=4)"
    assert repr(RuleTrace((), TerminalDescriptor("eoi", "EOI"))) == (
        "RuleTrace(frames=(), terminal=TerminalDescriptor(kind='eoi', text='EOI'))")
    assert repr(r.Drop()) == "Drop(count=1)"


def test_own_str_is_kept():
    assert str(StackEffect(("*",), ("Node",))) == "([*],[Node])"
    assert str(Position(3, 1, 4)) == "line 1, column 4"


def test_equality_holds_only_within_one_class():
    assert r.Optional(r.Ch("a")) != r.ZeroOrMore(r.Ch("a"))
    assert r.Optional(r.Ch("a")) == r.Optional(r.Ch("a"))
    assert r.AnyChar() == r.ANY
    assert r.AnyChar() != r.EndOfInput()
    assert r.Ch("a") != ("a",)
    assert StackEffect() == StackEffect((), ())


def test_equal_records_hash_equal():
    pairs = [
        (r.Sequence((r.Ch("a"), r.RuleRef("B"))), r.Sequence((r.Ch("a"), r.RuleRef("B")))),
        (StackEffect(("*",), ("Node",)), StackEffect(pops=("*",), pushes=("Node",))),
        (Position(3, 1, 4), Position(index=3, line=1, column=4)),
        (r.AnyChar(), r.ANY),
    ]
    for a, b in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b)
    assert len({r.Ch("a"), r.Ch("a"), r.Ch("b")}) == 2


def test_fields_are_frozen():
    node = r.Ch("a")
    with pytest.raises(AttributeError):
        node.char = "b"
    with pytest.raises(FrozenInstanceError):
        del node.char
    with pytest.raises(AttributeError):
        Value("Str", "x").tag = "Other"
    with pytest.raises(AttributeError):
        StackEffect().pops = ("*",)
    assert node.char == "a"


def test_keyword_construction_and_defaults():
    pred = r.CharPredicate(6, name="bits")
    assert (pred.mask, pred.extra, pred.name) == (6, None, "bits")
    action = r.Action(0, len, StackEffect(), name="count")
    assert action.name == "count"
    fault = InternalFault("boom")
    result = RunResult(error=None, fault=fault)
    assert (result.values, result.fault) == (None, fault)
    assert r.Ch(char="x") == r.Ch("x")
    assert r.Drop().count == 1


def test_construction_argument_errors():
    with pytest.raises(TypeError):
        r.Ch()
    with pytest.raises(TypeError):
        r.Ch("a", "b")
    with pytest.raises(TypeError):
        r.Ch("a", char="a")
    with pytest.raises(TypeError):
        r.Ch(letter="a")


def test_post_init_checks_still_run():
    with pytest.raises(ValueError, match="exactly one character"):
        r.Ch("ab")
    with pytest.raises(ValueError, match="Drop count"):
        r.Drop(0)
    with pytest.raises(ValueError, match="empty sequence"):
        r.Sequence(())
    with pytest.raises(ValueError, match="empty choice"):
        r.FirstOf(())
    with pytest.raises(ValueError, match="length of its effect's pop list"):
        r.Action(1, len, StackEffect(("*", "*"), ()))


def _nest(core: str):
    """('b' ('b' ... core)?)? with 600 options: unvalidated, since
    validation rejects so deep a nest."""
    e = r.ch(core)
    for _ in range(600):
        e = r.opt(r.seq(r.ch("b"), e))
    return e


def test_repr_hash_and_equality_of_a_nest_deeper_than_the_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the default
    try:
        e, copy, other = _nest("a"), _nest("a"), _nest("c")
        text = repr(e)
        assert (e == copy, e != other, copy == e) == (True, True, True)
        assert hash(e) == hash(copy) != hash(other)
    finally:
        sys.setrecursionlimit(limit)
    level = "Optional(inner=Sequence(children=(Ch(char='b'), "
    assert text == level * 600 + "Ch(char='a')" + ")))" * 600


def test_grammar_is_unhashable():
    g = r.grammar({"S": r.ch("a")})
    with pytest.raises(TypeError):
        hash(g)


def test_record_keeps_methods_the_class_defines():
    @record
    class Pair:
        left: int
        right: int = 0

        def __repr__(self):
            return f"<{self.left},{self.right}>"

    assert repr(Pair(1)) == "<1,0>"
    assert Pair(1, 0) == Pair(left=1)
    assert Pair.__slots__ == ("left", "right")
    assert not hasattr(Pair(1), "__dict__")


def test_importing_the_cli_generates_no_code():
    """A cold ``import pegstack.cli`` loads neither dataclasses nor inspect."""
    probe = ("import sys\n"
             "bare = set(sys.modules)\n"
             "import pegstack.cli\n"
             "print(' '.join(sorted(set(sys.modules) - bare)))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    assert "pegstack.cli" in out
    assert "dataclasses" not in out
    assert "inspect" not in out


def test_only_the_grammar_module_writer_calls_code_generation_builtins():
    # records and the rest of the program generate no code; a Parser's
    # grammar module is compiled and run in one place
    calls = []
    for path in sorted((ROOT / "src" / "pegstack").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("exec", "eval", "compile")):
                calls.append((path.name, node.func.id))
    assert sorted(calls) == [("generate.py", "compile"), ("generate.py", "exec")]
