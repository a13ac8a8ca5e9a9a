"""Untyped value stack with exact snapshot/restore for backtracking.

Semantic actions communicate through a LIFO stack of tagged values. A stack
belongs to exactly one parse run and is never shared; failed alternatives are
undone by restoring a snapshot taken before the attempt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable


class StackUnderflow(Exception):
    """Pop or peek on an empty stack.

    Hitting this during a parse means the grammar escaped effect checking
    (or a raw stack API was misused); the engine reports it as an internal
    fault rather than a parse failure.
    """


@dataclass(frozen=True, slots=True)
class Tree:
    """Labelled node payload, the shape built by ``cons`` actions."""

    label: str
    children: tuple["Value", ...]


@dataclass(frozen=True, slots=True)
class Value:
    """One stack entry: a symbolic type tag plus a payload.

    The tag is fixed for the value's lifetime. Payloads are text (tag
    ``Str``), a Tree (tag ``Node``), a tuple of values (``ListOf(...)``
    tags), or an arbitrary host object for opaque values.
    """

    tag: str
    payload: Any


UNIT = Value("Unit", None)


def str_value(text: str) -> Value:
    return Value("Str", text)


def node_value(label: str, *children: Value) -> Value:
    return Value("Node", Tree(label, tuple(children)))


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
        payload = item.payload
        if isinstance(payload, (Tree, tuple)):
            tree = isinstance(payload, Tree)
            out.append(payload.label + "(" if tree else "[")
            todo.append(")" if tree else "]")
            children = payload.children if tree else payload
            todo.extend(reversed([x for c in children for x in (",", c)][1:]))
        elif isinstance(payload, str):
            out.append(json.dumps(payload))
        elif payload is None and item.tag == "Unit":
            out.append("()")
        else:
            out.append(repr(payload))
    return "".join(out)


class ValueStack:
    """Mutable LIFO stack of values, owned by a single parse run.

    ``snapshot`` returns an opaque token; ``restore`` makes the stack
    element-wise identical to the moment the token was taken, regardless of
    what happened in between.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Value] = ()):
        self._items: list[Value] = list(items)

    def push(self, value: Value) -> None:
        self._items.append(value)

    def pop(self) -> Value:
        if not self._items:
            raise StackUnderflow("pop from empty value stack")
        return self._items.pop()

    def peek(self) -> Value:
        if not self._items:
            raise StackUnderflow("peek at empty value stack")
        return self._items[-1]

    def size(self) -> int:
        return len(self._items)

    def values(self) -> tuple[Value, ...]:
        """Contents bottom-to-top."""
        return tuple(self._items)

    def snapshot(self) -> tuple[Value, ...]:
        return tuple(self._items)

    def restore(self, token: tuple[Value, ...]) -> None:
        self._items[:] = token

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"ValueStack({self._items!r})"
