import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from pegstack.cli import _json_values
from pegstack.engine import Parser
from pegstack.record import FrozenInstanceError
from pegstack.values import (Node, StackUnderflow, Tree, UNIT, Value, ValueStack, list_value,
                             node_value, render_value, str_value)


def test_lifo_order():
    stack = ValueStack()
    stack.push(str_value("a"))
    stack.push(str_value("b"))
    assert stack.pop() == str_value("b")
    assert stack.pop() == str_value("a")


def test_pop_empty_underflows():
    with pytest.raises(StackUnderflow):
        ValueStack().pop()
    with pytest.raises(StackUnderflow):
        ValueStack().peek()


def test_push_increments_size():
    stack = ValueStack()
    before = stack.size()
    stack.push(str_value("v"))
    assert stack.size() == before + 1
    assert stack.peek() == str_value("v")
    assert stack.size() == before + 1  # peek does not remove


def test_snapshot_restore_basic():
    stack = ValueStack([str_value("x")])
    token = stack.snapshot()
    stack.push(str_value("y"))
    stack.restore(token)
    assert stack.values() == (str_value("x"),)


def test_snapshot_of_empty_stack():
    stack = ValueStack()
    token = stack.snapshot()
    stack.push(str_value("a"))
    stack.push(str_value("b"))
    stack.restore(token)
    assert stack.values() == ()
    assert stack.size() == 0


def test_snapshot_survives_pops_below_it():
    stack = ValueStack([str_value("a"), str_value("b")])
    token = stack.snapshot()
    stack.pop()
    stack.pop()
    stack.push(str_value("z"))
    stack.restore(token)
    assert stack.values() == (str_value("a"), str_value("b"))


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 9)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("snapshot"), st.just(0)),
        st.tuples(st.just("restore"), st.just(0)),
    ),
    max_size=60,
)


@given(_ops)
def test_model_equivalence(ops):
    """Random op sequences match a plain list model operation-for-operation."""
    stack = ValueStack()
    model: list[Value] = []
    snaps: list[tuple] = []
    model_snaps: list[list[Value]] = []
    for op, arg in ops:
        if op == "push":
            v = str_value(str(arg))
            stack.push(v)
            model.append(v)
        elif op == "pop":
            if model:
                assert stack.pop() == model.pop()
            else:
                with pytest.raises(StackUnderflow):
                    stack.pop()
        elif op == "snapshot":
            snaps.append(stack.snapshot())
            model_snaps.append(list(model))
        elif op == "restore" and snaps:
            stack.restore(snaps[-1])
            model = list(model_snaps[-1])
        assert stack.values() == tuple(model)
        assert stack.size() == len(model)


@given(_ops)
def test_snapshot_immutability(ops):
    """Mutations after a snapshot never change what restore reproduces."""
    stack = ValueStack([str_value("seed")])
    token = stack.snapshot()
    frozen = stack.values()
    for op, arg in ops:
        if op == "push":
            stack.push(str_value(str(arg)))
        elif op == "pop" and stack.size():
            stack.pop()
    stack.restore(token)
    assert stack.values() == frozen


def test_snapshot_is_the_stack_itself_not_a_copy():
    empty = ValueStack()
    assert empty.snapshot() is not None  # the engine reads None as "no snapshot"
    stack = ValueStack([str_value("a"), str_value("b")])
    assert stack.snapshot() is stack.snapshot()
    stack.push(str_value("c"))
    token = stack.snapshot()
    assert stack.snapshot() is token


def _old_node(label, *children):
    return Value("Node", Tree(label, children))


def _add_chain(depth, last="9", node=node_value):
    value = node("Val", str_value("0"))
    for i in range(depth):
        leaf = last if i == depth - 1 else str(i % 10)
        value = node("Add", value, node("Val", str_value(leaf)))
    return value


def test_deep_values_compare_hash_and_repr_without_recursion():
    a, b = _add_chain(20_000), _add_chain(20_000)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert a != _add_chain(20_000, last="8")
    assert repr(a).startswith("Value(tag='Node', payload=Tree(label='Add', children=(")


def test_deep_values_of_both_node_forms_compare_hash_print_and_render_alike():
    new, old = _add_chain(20_000), _add_chain(20_000, node=_old_node)
    assert (type(new), type(old)) == (Node, Value)
    assert new == old and old == new
    assert hash(new) == hash(old)
    assert repr(new) == repr(old)
    assert render_value(new) == render_value(old)
    assert _json_values((new,)) == _json_values((old,))
    assert old != _add_chain(20_000, last="8") and _add_chain(20_000, last="8") != old


def test_an_engine_built_node_equals_the_old_form_and_node_value(calc_grammar):
    value, = Parser(calc_grammar).run("1+2*3").values
    old = _old_node("Add", _old_node("Val", str_value("1")),
                    _old_node("Mul", _old_node("Val", str_value("2")),
                              _old_node("Val", str_value("3"))))
    built = node_value("Add", node_value("Val", str_value("1")),
                       node_value("Mul", node_value("Val", str_value("2")),
                                  node_value("Val", str_value("3"))))
    assert type(value) is Node and type(old) is Value
    for other in (old, built):
        assert value == other and other == value
        assert not (value != other or other != value)
        assert hash(value) == hash(other)
        assert repr(value) == repr(other)
        assert render_value(value) == render_value(other) == 'Add(Val("1"),Mul(Val("2"),Val("3")))'
        assert _json_values((value,)) == _json_values((other,))
    assert value != Value("Other", old.payload) and Value("Other", old.payload) != value
    assert value != node_value("Add", str_value("1")) != old


def test_a_node_copies_and_pickles_as_a_node():
    v = node_value("Add", str_value("1"), list_value([UNIT], "Unit"))
    for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(twin) is Node and twin == v and repr(twin) == repr(v)
    old = _old_node("Val", str_value("1"))
    assert type(pickle.loads(pickle.dumps(old))) is Value


def test_deep_values_of_both_node_forms_copy_and_pickle_without_recursion():
    for node in (node_value, _old_node):
        value = _add_chain(5_000, node=node)
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and twin is not value
            assert type(twin.payload.children[0]) is type(value)  # each level keeps its form
    mixed = Value("ListOf(Node)", (node_value("A", str_value("1")), _old_node("B"), 7))
    twin = pickle.loads(pickle.dumps(mixed))
    assert [type(x) for x in twin.payload] == [Node, Value, int] and twin == mixed


def test_a_node_reads_like_a_value_holding_a_tree():
    child = str_value("1")
    v = node_value("Val", child)
    assert isinstance(v, Value) and v.tag == "Node"
    assert isinstance(v.payload, Tree) and v.payload == Tree("Val", (child,))
    assert (v.payload.label, v.payload.children) == ("Val", (child,))
    for field in ("tag", "payload", "label", "children"):
        with pytest.raises(FrozenInstanceError):
            setattr(v, field, "x")
        with pytest.raises(FrozenInstanceError):
            delattr(v, field)


def test_value_methods_agree_with_the_dataclass_forms():
    v = node_value("Add", str_value("1"), list_value([UNIT], "Unit"))
    assert repr(v) == ("Value(tag='Node', payload=Tree(label='Add', children=("
                       "Value(tag='Str', payload='1'), Value(tag='ListOf(Unit)', "
                       "payload=(Value(tag='Unit', payload=None),)))))")
    assert repr(Value("Opaque", (1, "x"))) == "Value(tag='Opaque', payload=(1, 'x'))"
    assert v == node_value("Add", str_value("1"), list_value([UNIT], "Unit"))
    assert v != node_value("Add", str_value("1"), list_value([], "Unit"))
    assert v != node_value("Sub", str_value("1"), list_value([UNIT], "Unit"))
    assert str_value("x") != Value("Other", "x")
    assert len({str_value("x"), str_value("x"), v}) == 2


def test_render_forms():
    assert render_value(str_value("42")) == '"42"'
    node = node_value("Add", node_value("Val", str_value("1")), str_value("2"))
    assert render_value(node) == 'Add(Val("1"),"2")'
    assert render_value(list_value([str_value("a"), str_value("b")], "Str")) == '["a","b"]'
    assert render_value(UNIT) == "()"


def test_value_tags_are_stable():
    v = node_value("Val", str_value("1"))
    assert v.tag == "Node"
    assert isinstance(v.payload, Tree)
    with pytest.raises(Exception):
        v.tag = "Other"  # frozen
