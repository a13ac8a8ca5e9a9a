import copy
import dis
import gc
import pickle
import random
import struct
import sys

import pytest
from hypothesis import given, strategies as st

from pegstack.cli import _json_values
from pegstack.engine import Parser
from pegstack.record import FrozenInstanceError
from pegstack.values import (Node, StackUnderflow, UNIT, Value, ValueStack, list_value, node1,
                             node2, node_value, render_value, str_value)

from conftest import generated
from generators import big_expression


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


def _add_chain(depth, last="9"):
    value = node_value("Val", str_value("0"))
    for i in range(depth):
        leaf = last if i == depth - 1 else str(i % 10)
        value = node_value("Add", value, node_value("Val", str_value(leaf)))
    return value


def test_deep_values_compare_hash_and_repr_without_recursion():
    a, b = _add_chain(20_000), _add_chain(20_000)
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert a != _add_chain(20_000, last="8") and _add_chain(20_000, last="8") != a
    assert repr(a) == repr(b) and repr(a).startswith("Node(label='Add', children=(Node(")


def test_deep_values_of_both_node_forms_compare_hash_print_and_render_alike(calc_grammar):
    # a node built by the engine's cons actions and one built by node_value
    depth = 20_000
    text = "0" + "".join("+" + ("9" if i == depth - 1 else str(i % 10)) for i in range(depth))
    parsed, = Parser(calc_grammar).run(text).values
    built = _add_chain(depth)
    assert parsed is not built
    assert parsed == built and built == parsed
    assert hash(parsed) == hash(built)
    assert repr(parsed) == repr(built)
    assert render_value(parsed) == render_value(built) and render_value(parsed).startswith("Add(Add(")
    assert _json_values((parsed,)) == _json_values((built,))
    assert _json_values((parsed,)).startswith('[{"label": "Add", "children": [{"label": "Add"')
    assert parsed != _add_chain(depth, last="8") and _add_chain(depth, last="8") != parsed


def test_an_engine_built_node_equals_node_value(calc_grammar):
    value, = Parser(calc_grammar).run("1+2*3").values
    built = node_value("Add", node_value("Val", str_value("1")),
                       node_value("Mul", node_value("Val", str_value("2")),
                                  node_value("Val", str_value("3"))))
    assert type(value) is Node and type(built) is Node
    assert value == built and built == value
    assert not (value != built or built != value)
    assert hash(value) == hash(built)
    assert repr(value) == repr(built)
    assert render_value(value) == render_value(built) == 'Add(Val("1"),Mul(Val("2"),Val("3")))'
    assert _json_values((value,)) == _json_values((built,))
    assert value != Value("Node", built.children) and Value("Node", built.children) != value
    assert value != node_value("Add", str_value("1"))
    assert value != Value("Node", built) and Value("Node", built) != value


def test_a_node_copies_and_pickles_as_a_node():
    v = node_value("Add", str_value("1"), list_value([UNIT], "Unit"))
    for twin in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(twin) is Node and twin == v and repr(twin) == repr(v)


def _tuples_held(node: Node) -> list:
    return [ref for ref in gc.get_referents(node) if type(ref) is tuple]


@pytest.mark.parametrize("arity", range(5))
def test_a_node_of_any_arity_gives_its_children_back_and_holds_one_or_two_without_a_tuple(arity):
    kids = tuple(node_value("K", str_value(str(i))) if i % 2 else str_value(str(i))
                 for i in range(arity))
    node = Node("N", kids)
    assert node.children == kids and type(node.children) is tuple
    forms = [node_value("N", *kids)]
    if arity in (1, 2):  # the constructors that cons actions use build the same node
        forms.append((node1, node2)[arity - 1]("N", *kids))
    for twin in forms + [copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))]:
        assert type(twin) is Node and twin.children == kids
        assert twin == node and node == twin and hash(twin) == hash(node)
        assert repr(twin) == repr(node) == f"Node(label='N', children={kids!r})"
        assert render_value(twin) == render_value(node)
        assert _tuples_held(twin) == ([] if arity in (1, 2) else [kids])
    assert node != Node("M", kids) and node != Node("N", kids + (UNIT,))
    assert arity == 0 or node != Node("N", kids[:-1] + (str_value("x"),))


def test_generated_and_exact_runs_of_calc_build_equal_trees(calc_grammar):
    text = big_expression(random.Random(29), 3_000)
    exact, = Parser(calc_grammar).run_phase(text).stack.values()
    fast, = generated(calc_grammar).run(text).values
    assert fast == exact and hash(fast) == hash(exact) and repr(fast) == repr(exact)
    arities, todo = set(), [fast, exact]
    while todo:  # every node of both trees, none of them holding a tuple
        node = todo.pop()
        if type(node) is Node:
            arities.add(len(node.children))
            assert _tuples_held(node) == []
            todo.extend(node.children)
    assert arities == {1, 2}


def test_deep_values_copy_and_pickle_without_recursion():
    value = _add_chain(5_000)
    for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is Node and twin == value and twin is not value
        assert type(twin.children[0]) is Node and twin.children[0] is not value.children[0]
    mixed = Value("ListOf(Node)", (node_value("A", str_value("1")), node_value("B"), 7))
    twin = pickle.loads(pickle.dumps(mixed))
    assert [type(x) for x in twin.payload] == [Node, Node, int] and twin == mixed


def test_a_subclass_instance_hashes_like_the_identity_it_compares_by():
    # __eq__ returns NotImplemented for a subclass, so equality falls back to
    # identity; its hash must agree, alone and inside a value
    class Tagged(Value):
        __slots__ = ()

    class Labelled(Node):
        __slots__ = ()

    for v in (Tagged("Str", "x"), Labelled("A", (str_value("1"),))):
        assert hash(v) == object.__hash__(v)
        assert v == v and v != copy.copy(v)
        assert len({v, v, copy.copy(v)}) == 2
        outer, twin = Value("ListOf(Str)", (v,)), Value("ListOf(Str)", (v,))
        assert hash(outer) == hash(twin) and outer == twin
        assert outer != Value("ListOf(Str)", (copy.copy(v),))


def test_a_node_is_its_own_payload():
    child = str_value("1")
    v = node_value("Val", child)
    assert isinstance(v, Value) and v.tag == "Node"
    assert v.payload is v
    # a walk through payloads alone, as the benchmark's checker
    # (bench/workloads.value_tokens) reads values: text, a list's tuple, or
    # a node's label and children
    value = node_value("Add", v, list_value([node_value("Neg", UNIT)], "Node"))
    tokens, todo = [], [value]
    while todo:
        payload = todo.pop().payload
        if isinstance(payload, str):
            tokens.append(("S", payload))
        elif isinstance(payload, tuple):
            tokens.append(("L", len(payload)))
            todo.extend(reversed(payload))
        elif hasattr(payload, "label") and hasattr(payload, "children"):
            tokens.append(("N", payload.label, len(payload.children)))
            todo.extend(reversed(payload.children))
        else:
            tokens.append(("?", payload))
    assert tokens == [("N", "Add", 2), ("N", "Val", 1), ("S", "1"), ("L", 1), ("N", "Neg", 1),
                      ("?", None)]


def test_value_methods_agree_with_the_dataclass_forms():
    v = node_value("Add", str_value("1"), list_value([UNIT], "Unit"))
    assert repr(v) == ("Node(label='Add', children=("
                       "Value(tag='Str', payload='1'), Value(tag='ListOf(Unit)', "
                       "payload=(Value(tag='Unit', payload=None),))))")
    assert eval(repr(v)) == v
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
    assert v.payload is v
    with pytest.raises(Exception):
        v.tag = "Other"  # frozen


def test_values_keep_object_setattr_so_their_slot_stores_specialize():
    # a class-level __setattr__ or __delattr__ keeps CPython from
    # specializing STORE_ATTR; the public fields are frozen by properties
    for cls in (Value, Node):
        assert cls.__setattr__ is object.__setattr__
        assert cls.__delattr__ is object.__delattr__
    if sys.implementation.name != "cpython" or not (3, 11) <= sys.version_info[:2] < (3, 14):
        return  # the specialized instruction names are CPython 3.11-3.13's
    constructors = [(Value.__init__, lambda: Value("Str", "x")), (Node.__init__, lambda: Node("N", ())),
                    (node1, lambda: node1("N", UNIT)), (node2, lambda: node2("N", UNIT, UNIT))]
    for function, build in constructors:
        for _ in range(1_000):
            build()
        stores = [i.opname for i in dis.get_instructions(function, adaptive=True)
                  if i.opname.startswith("STORE_ATTR")]
        assert stores and set(stores) == {"STORE_ATTR_SLOT"}, (function, stores)


@pytest.mark.parametrize("value", [str_value("1"), list_value([UNIT], "Unit"), node_value("A"),
                                   node_value("A", UNIT), node_value("A", UNIT, UNIT),
                                   node_value("A", UNIT, UNIT, UNIT)], ids=repr)
def test_every_public_field_refuses_assignment_and_deletion(value):
    fields = ("tag", "payload") + (("label", "children") if type(value) is Node else ())
    before = repr(value)
    for field in fields:
        with pytest.raises(FrozenInstanceError, match=f"assign to field '{field}'"):
            setattr(value, field, "x")
        with pytest.raises(FrozenInstanceError, match=f"delete field '{field}'"):
            delattr(value, field)
    assert repr(value) == before


def test_a_value_and_a_node_match_by_position_and_by_field():
    match str_value("1"):
        case Value(tag, payload):
            assert (tag, payload) == ("Str", "1")
        case _:
            pytest.fail("a Value did not match Value(tag, payload)")
    node = node2("Add", str_value("1"), UNIT)
    match node:
        case Node(tag, payload, label=label, children=(left, right)):
            assert (tag, payload, label) == ("Node", node, "Add")
            assert left == str_value("1") and right is UNIT
        case _:
            pytest.fail("a Node did not match Node(tag, payload, label=, children=)")


def test_a_node_is_one_pointer_larger_than_a_value():
    # a Node keeps its label and first child in the two slots it inherits
    assert Value.__slots__ == ("_tag", "_payload") and Node.__slots__ == ("_b",)
    pointer = struct.calcsize("P")
    value_size = sys.getsizeof(str_value("1"))
    for node in (node1("N", UNIT), node2("N", UNIT, UNIT), Node("N", (UNIT,) * 3)):
        assert sys.getsizeof(node) == value_size + pointer
    if sys.implementation.name == "cpython" and sys.version_info[:2] == (3, 11) and pointer == 8:
        assert (value_size, sys.getsizeof(node2("N", UNIT, UNIT))) == (48, 56)


def test_a_50000_deep_tree_built_by_cons_copies_pickles_compares_and_hashes_as_node_value_builds_it():
    depth = 50_000
    built = _add_chain(depth)
    consed = node1("Val", str_value("0"))
    for i in range(depth):
        consed = node2("Add", consed, node1("Val", str_value("9" if i == depth - 1 else str(i % 10))))
    other = _add_chain(depth, last="8")
    for twin in (consed, copy.copy(consed), pickle.loads(pickle.dumps(consed))):
        assert type(twin) is Node and twin is not built
        assert twin == built and built == twin and hash(twin) == hash(built)
        assert twin != other and other != twin
    assert copy.copy(consed).children[0] is not consed.children[0]
