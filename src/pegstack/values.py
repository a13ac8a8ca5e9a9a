"""Untyped value stack with exact snapshot/restore for backtracking.

Semantic actions communicate through a LIFO stack of tagged values. A stack
belongs to exactly one parse run and is never shared; failed alternatives are
undone by restoring a snapshot taken before the attempt.

A node ``Label(children...)`` is one ``Node`` object, the form that
``cons`` actions and ``node_value`` build. A node of one or two children
holds them in slots of its own; any other holds one tuple of them.
"""

from __future__ import annotations

from operator import eq
from typing import Any, Iterable

from .record import record

try:  # the C function behind json.dumps(str), without importing the json package
    from _json import encode_basestring_ascii as json_string
except ImportError:
    from json.encoder import encode_basestring_ascii as json_string


class StackUnderflow(Exception):
    """Pop or peek on an empty stack.

    Hitting this during a parse means the grammar escaped effect checking
    (or a raw stack API was misused); the engine reports it as an internal
    fault rather than a parse failure.
    """


@record
class Value:
    """One stack entry: a symbolic type tag plus a payload.

    The tag is fixed for the value's lifetime. Payloads are text (tag
    ``Str``), a tuple of values (``ListOf(...)`` tags), or an arbitrary
    host object for opaque values; a node is a ``Node``.

    Equality, hashing, ``repr``, copy and pickle walk the tree with
    explicit stacks, so the depth of a value is not bounded by the
    recursion limit. They agree with the record's field-by-field methods,
    with a node's children and a list's elements compared pairwise. A
    value that occurs twice in a tree comes back from copy and pickle as
    two.
    """

    tag: str
    payload: Any

    # one per capture: set the slots directly, not through the record's
    # generic constructor
    def __init__(self, tag: str, payload: Any):
        _set_tag(self, tag)
        _set_payload(self, payload)

    def __eq__(self, other):
        if self.__class__ not in _FORMS or other.__class__ not in _FORMS:
            return NotImplemented
        return self is other or all(map(eq, _walk(self), _walk(other)))

    def __hash__(self):
        if self.__class__ not in _FORMS:  # equal only to itself, as __eq__ leaves it
            return object.__hash__(self)
        return hash(tuple(_walk(self)))

    def __reduce__(self):
        if self.__class__ not in _FORMS:  # a subclass rebuilds through its constructor
            node = isinstance(self, Node)
            return self.__class__, (self.label, self.children) if node else (self.tag, self.payload)
        return _rebuild, ([*_walk(self)],)

    def __repr__(self):
        out: list[str] = []
        todo: list = [self]  # values to write and literal text, next one last
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            todo.append(")")
            if isinstance(item, Node):  # a subclass too: its payload is itself
                out.append(f"Node(label={item.label!r}, children=")
                _push_tuple(todo, item.children)
                continue
            out.append(f"Value(tag={item.tag!r}, payload=")
            if type(item.payload) is tuple:
                _push_tuple(todo, item.payload)
            else:
                out.append(repr(item.payload))
        return "".join(out)


class Node(Value):
    """The node ``Label(children...)``: a value tagged ``Node`` that holds
    its label and children in slots of its own, built by ``cons`` actions
    and ``node_value``. Its ``payload`` is the node itself, so
    ``value.payload.label`` reads a node's label too.

    One or two children sit in the slots ``_a`` and ``_b``, with no tuple
    around them, so such a node is one object for the cyclic collector to
    track; ``_b`` is ``_ONE`` when ``_a`` is the only child. Any other
    number of children is one tuple in ``_a``, with ``_b`` ``_MANY``.
    ``children`` rebuilds the tuple on each read: equal to the one the
    node was built from, but not the same object.
    """

    __slots__ = ("label", "_a", "_b")
    tag = "Node"  # tag and payload shadow Value's slots, which a Node leaves empty

    def __init__(self, label: str, children: tuple[Value, ...]):
        _set_node_label(self, label)
        if len(children) == 2:
            _set_a(self, children[0])
            _set_b(self, children[1])
        elif len(children) == 1:
            _set_a(self, children[0])
            _set_b(self, _ONE)
        else:  # tuple() of a tuple is the tuple itself
            _set_a(self, tuple(children))
            _set_b(self, _MANY)

    @property
    def payload(self) -> Node:
        return self

    @property
    def children(self) -> tuple[Value, ...]:
        b = self._b
        if b is _ONE:
            return (self._a,)
        if b is _MANY:
            return self._a
        return (self._a, b)


# the slot descriptors' setters, which bypass the records' frozen __setattr__
_set_tag, _set_payload = Value.tag.__set__, Value.payload.__set__
_set_node_label, _set_a, _set_b = Node.label.__set__, Node._a.__set__, Node._b.__set__
_ONE, _MANY = object(), object()  # in a node's _b: _a is its only child, or the tuple of them
_FORMS = (Value, Node)  # the classes whose instances the walkers take apart
_new = object.__new__


# one per cons action of one or two children: no __init__ and no tuple
def node1(label: str, a: Value) -> Node:
    """The node ``label(a)``, as ``Node(label, (a,))`` builds it."""
    node = _new(Node)
    _set_node_label(node, label)
    _set_a(node, a)
    _set_b(node, _ONE)
    return node


def node2(label: str, a: Value, b: Value) -> Node:
    """The node ``label(a, b)``, as ``Node(label, (a, b))`` builds it."""
    node = _new(Node)
    _set_node_label(node, label)
    _set_a(node, a)
    _set_b(node, b)
    return node


def _walk(value: Value):
    """The entries of a value from the top down, children last to first,
    so that reversed each comes after its children: (kind, tag, data, count
    of children) per value, kind ``Node`` (data its label, no tag),
    ``tuple`` (a list's items) or ``Value`` (data the payload), and (None,
    None, item, 0) per item that is no value. Two values are equal when
    their entries are."""
    todo = [value]
    while todo:
        item = todo.pop()
        cls = item.__class__
        if cls is Node:
            kind, tag, data, kids = Node, None, item.label, item.children
        elif cls is not Value:
            yield None, None, item, 0
            continue
        elif type(item.payload) is tuple:
            kind, tag, data, kids = tuple, item.tag, None, item.payload
        else:
            kind, tag, data, kids = Value, item.tag, item.payload, ()
        yield kind, tag, data, len(kids)
        todo.extend(kids)


def _rebuild(entries: list[tuple]) -> Value:
    """The value whose ``_walk`` gave entries, rebuilt with an explicit stack."""
    stack = []
    for kind, tag, data, count in reversed(entries):
        kids = ()
        if count:
            kids = tuple(stack[-count:])
            del stack[-count:]
        if kind is Node:
            data = Node(data, kids)
        elif kind is not None:
            data = Value(tag, kids if kind is tuple else data)
        stack.append(data)
    return stack[0]


def _push_tuple(todo: list, items: tuple) -> None:
    """Schedule the ``repr`` of a tuple; items that are not values are written at once."""
    parts = ["("]
    for i, item in enumerate(items):
        if i:
            parts.append(", ")
        parts.append(item if item.__class__ in _FORMS else repr(item))
    parts.append(",)" if len(items) == 1 else ")")
    todo.extend(reversed(parts))


UNIT = Value("Unit", None)


def str_value(text: str) -> Value:
    return Value("Str", text)


def node_value(label: str, *children: Value) -> Value:
    return Node(label, children)


def list_value(values: Iterable[Value], element_tag: str = "*") -> Value:
    return Value(f"ListOf({element_tag})", tuple(values))


def render_value(value: Value) -> str:
    """Debug/CLI rendering: nodes as ``Label(child,...)``, strings quoted.

    Iterative, so the depth of a tree is not bounded by the recursion limit.
    """
    out: list[str] = []
    todo: list = [value]  # values to render and literal text, next one last
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        if item.__class__ is Node:
            label, children = item.label, item.children
        else:
            payload = item.payload
            if isinstance(payload, tuple):
                label, children = None, payload
            else:
                if isinstance(payload, str):
                    out.append(json_string(payload))
                elif payload is None and item.tag == "Unit":
                    out.append("()")
                else:
                    out.append(repr(payload))
                continue
        out.append("[" if label is None else label + "(")
        todo.append("]" if label is None else ")")
        todo.extend(reversed([x for c in children for x in (",", c)][1:]))
    return "".join(out)


# the bottom cell of every stack: a real cell, so that a snapshot of the
# empty stack is never None, which the engine reads as "no snapshot taken"
_EMPTY = (None, None, 0)


def pop_values(head: tuple, count: int) -> tuple[tuple, tuple]:
    """The top count values of the stack whose head cell is head, bottom to
    top, and the cell below them; ``StackUnderflow`` when it holds fewer."""
    if count > head[2]:
        raise StackUnderflow("pop from empty value stack")
    out = []
    for _ in range(count):
        out.append(head[0])
        head = head[1]
    out.reverse()
    return tuple(out), head


def listed(head: tuple, base: int, tag: str) -> tuple:
    """The head cell of a stack once its values above the first base are one
    list value of tag, as a collecting repetition or option leaves them."""
    values, below = pop_values(head, head[2] - base)
    return (list_value(values, tag), below, below[2] + 1)


class ValueStack:
    """LIFO stack of values, owned by a single parse run.

    The stack is a persistent cons list of ``(value, below, size)`` cells.
    ``snapshot`` returns the head cell as an opaque token and ``restore``
    sets the head back to it, both in constant time; cells are never
    mutated, so the stack reads exactly as it did when the token was taken,
    regardless of what happened in between.
    """

    __slots__ = ("_head",)

    def __init__(self, items: Iterable[Value] = ()):
        head = _EMPTY
        for value in items:
            head = (value, head, head[2] + 1)
        self._head = head

    def push(self, value: Value) -> None:
        head = self._head
        self._head = (value, head, head[2] + 1)

    def pop(self) -> Value:
        head = self._head
        if head is _EMPTY:
            raise StackUnderflow("pop from empty value stack")
        self._head = head[1]
        return head[0]

    def take(self, count: int) -> tuple[Value, ...]:
        """Pop the top count values; return them bottom-to-top as a tuple.

        One or two values, the arity of most actions, are popped without a
        loop.
        """
        head = self._head
        if count > head[2]:
            self._head = _EMPTY  # as count single pops would leave it
            raise StackUnderflow("pop from empty value stack")
        if count == 2:
            below = head[1]
            self._head = below[1]
            return (below[0], head[0])
        if count == 1:
            self._head = head[1]
            return (head[0],)
        values, self._head = pop_values(head, count)
        return values

    def peek(self) -> Value:
        if self._head is _EMPTY:
            raise StackUnderflow("peek at empty value stack")
        return self._head[0]

    def size(self) -> int:
        return self._head[2]

    def values(self) -> tuple[Value, ...]:
        """Contents bottom-to-top."""
        out = []
        cell = self._head
        while cell is not _EMPTY:
            out.append(cell[0])
            cell = cell[1]
        out.reverse()
        return tuple(out)

    def snapshot(self) -> tuple:
        return self._head

    def restore(self, token: tuple) -> None:
        self._head = token

    def __len__(self) -> int:
        return self._head[2]

    def __repr__(self) -> str:
        return f"ValueStack({list(self.values())!r})"
