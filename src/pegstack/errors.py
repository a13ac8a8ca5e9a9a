"""Parse-failure analysis: principal error position, rule traces, formatting.

The principal error index is the maximum cursor at which any terminal
matcher registered a mismatch. One pass over the failing input finds it
and its rule traces together. The pass keeps a running maximum and hands
each mismatch at or past it to its observer, a ``Collector``, which drops
what it collected whenever a mismatch lands beyond it and records every
mismatch that lands on it, with the path of named rules from the start
rule plus a descriptor of the failed terminal. The pass keeps that path
itself and hands it over with the mismatch: nearly every mismatch of an
exact pass reaches the Collector anyway, and a Collector that followed
the rules through ``enter`` and ``leave`` slowed the pass by a tenth (see
``pegstack.engine``). The generated pass keeps on the path only the rules
whose functions are open; a mismatch site names the rules that its code
runs in place, which the pass conses onto the path only for a mismatch it
hands over (see ``pegstack.generate``). Mismatches under ``quiet`` still
raise the maximum but are not recorded; quiet rules behave identically
otherwise.
Mismatches inside ``!`` neither count nor raise it.

A failing ``Parser.run`` costs two passes: the run itself and this one.
The pass of an observed run, of one that took the exact table, or of a
grammar whose values may decide a match (below) runs on the exact table
(``Parser.run_phase``), which tries every alternative. Any other run took
the grammar's generated code and hands over its ``max_cursor``, the
furthest mismatch it saw; its pass runs the grammar's generated collect
code (``pegstack.generate``), as parboiled2 re-runs its generated parser
to analyse an error. The bound is at most the principal index: the
generated code's terminals mismatch only where the exact table's do, and a
failing regex fragment does not raise it, since the exact table may fail
the fragment through a ``!`` with no mismatch. The pass starts its running
maximum at that bound. Below the maximum no mismatch is ever recorded, so
there a choice, repetition or option runs only what can start at the next
character, as the parse does; at or past it, everything runs. No fragment
runs as a regex there, since a regex cannot report the mismatches inside
it; a fused one-character scan, which has one mismatch at its end, stays.
The rule paths and the order of the mismatches at the principal index are
those of the exact pass.

The generated pass builds no values. It runs only where the grammar's
values decide no match (``Tables.value_free``): every action is a
``cons``, a push or a drop, and none of them can return ``ACTION_FAIL``.
The failed run made the same action calls, in the same order, as a pass
with values would, since its dispatch skips only alternatives that fail
before any action; so a ``cons`` or drop that could underflow has already
faulted that run, and no error pass follows. A user action anywhere in
the grammar, also inside a predicate, may fail on the values it pops and
so decide which mismatches are reached: the pass of such a grammar is the
exact one, which builds every value. When the generated pass nests too
deeply, it starts again on the exact table. A run whose generated parse
nested too deeply hands over no bound, so its pass is the exact one from
the start.
"""

from __future__ import annotations

from . import rules as r
from .record import record

_COMPACT_AT = 64  # a frontier is compacted past twice its kept length plus this


@record
class Position:
    index: int  # 0-based character offset
    line: int  # 1-based
    column: int  # 1-based

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


def position_of(text: str, index: int) -> Position:
    """Recompute line/column from a character offset ('\\n' separates lines)."""
    if not 0 <= index <= len(text):
        raise ValueError(f"index {index} out of range for input of length {len(text)}")
    line = text.count("\n", 0, index) + 1
    line_start = text.rfind("\n", 0, index) + 1
    return Position(index, line, index - line_start + 1)


@record
class TerminalDescriptor:
    kind: str  # "char" | "string" | "predicate" | "any" | "eoi"
    text: str

    def render(self) -> str:
        if self.kind in ("char", "string"):
            return f"'{_escape(self.text)}'"
        if self.kind == "eoi":
            return "'EOI'"
        return _escape(self.text)  # predicate names and ANY render bare


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def descriptor_of(node: r.RuleExpr) -> TerminalDescriptor:
    t = type(node)
    if t is r.Ch:
        return TerminalDescriptor("char", node.char)
    if t in (r.Str, r.IgnoreCaseStr):
        return TerminalDescriptor("string", node.text)
    if t is r.EndOfInput:
        return TerminalDescriptor("eoi", "EOI")
    if t is r.AnyChar:
        return TerminalDescriptor("any", "ANY")
    if t is r.CharPred:
        return TerminalDescriptor("predicate", node.pred.name or "<pred>")
    if t is r.NoneOf:
        return TerminalDescriptor("predicate", "!" + (node.pred.name or "<set>"))
    raise TypeError(f"not a terminal: {node!r}")


@record
class RuleTrace:
    frames: tuple[str, ...]  # named rules from the start rule to the failure
    terminal: TerminalDescriptor

    def __str__(self) -> str:
        return " / ".join(self.frames) + " / " + self.terminal.render()


class Collector:
    """The observer of an error pass. It keeps the frontier: the (rule path,
    terminal node) pair of each mismatch at the running maximum, a path as
    cons cells (name, below) ending in ().

    A pass calls ``miss(at, node, path, quiet)`` for each mismatch it counts
    at or past its running maximum; quiet is nonzero inside ``quiet``. A
    mismatch past every earlier one clears the frontier, and one outside
    ``quiet`` joins it, so the pass ends with exactly the mismatches at the
    principal index. Whenever the frontier doubles, it drops the pairs that
    repeat a rule trace, so it grows with the traces, not with the work.
    """

    __slots__ = ("at", "frontier", "compact_at")

    def __init__(self):
        self.at = 0
        self.frontier: list[tuple] = []
        self.compact_at = _COMPACT_AT

    def miss(self, at: int, node, path: tuple, quiet: int) -> None:
        frontier = self.frontier
        if at > self.at:
            self.at = at
            frontier.clear()
        if not quiet:
            frontier.append((path, node))
            if len(frontier) > self.compact_at:
                self.traces()  # drops repeated traces
                self.compact_at = 2 * len(frontier) + _COMPACT_AT

    def traces(self) -> list[RuleTrace]:
        """The frontier's rule traces, deduplicated in first-occurrence
        order; drops from the frontier each pair that repeats an earlier one."""
        paths: dict[int, tuple[str, ...]] = {}
        traces: dict[RuleTrace, tuple] = {}
        for pair in self.frontier:
            cell, node = pair
            path = paths.get(id(cell))
            if path is None:
                names = []
                below = cell
                while below:
                    names.append(below[0])
                    below = below[1]
                path = paths[id(cell)] = tuple(reversed(names))
            traces.setdefault(RuleTrace(path, descriptor_of(node)), pair)
        self.frontier[:] = traces.values()
        return list(traces)


@record
class ParseError:
    position: Position
    principal_position: Position
    traces: tuple[RuleTrace, ...]

    def expected(self) -> list[str]:
        """Deduplicated terminal descriptors, first-occurrence order."""
        seen: list[str] = []
        for tr in self.traces:
            text = tr.terminal.render()
            if text not in seen:
                seen.append(text)
        return seen


# ---------------------------------------------------------------------------
# phases (the parser argument is an engine.Parser; duck-typed to avoid a cycle)


def principal_index(state) -> int:
    """Maximum cursor over a finished run's terminal mismatch registrations; 0 if none."""
    stats = state.stats
    return stats.max_cursor if stats.terminal_mismatches else 0


def principal_error_index(parser, text: str, start: str | None = None) -> int:
    """Principal error index of running the start rule against text."""
    return principal_index(parser.run_phase(text, start))


def trace_collection(parser, text: str, start: str | None,
                     bound: int | None = None) -> tuple[int, tuple[RuleTrace, ...]]:
    """Principal error index and its rule traces, from one pass: the exact
    one, or, given the ``max_cursor`` of a failed generated run as bound,
    the generated one that starts there (``Parser.error_pass``)."""
    state, traces = parser.error_pass(text, start, bound)
    return principal_index(state), tuple(traces)


def build_parse_error(parser, text: str, start: str | None = None,
                      bound: int | None = None) -> ParseError:
    """Principal position and rule traces of a parse that fails; bound as
    for ``trace_collection``."""
    principal, traces = trace_collection(parser, text, start, bound)
    pos = position_of(text, principal)
    return ParseError(pos, pos, traces)


# ---------------------------------------------------------------------------
# formatting


def _expected_list(descriptors: list[str]) -> str:
    if not descriptors:
        return "<nothing>"
    if len(descriptors) == 1:
        return descriptors[0]
    return ", ".join(descriptors[:-1]) + " or " + descriptors[-1]


def format_error(err: ParseError, text: str, caret: bool = True) -> str:
    """Render the standard message.

    First line: ``Invalid input 'x', expected a, b or c (line L, column C):``
    (or ``Unexpected end of input, ...`` at the end of input), then the full
    input line containing the error, then an optional caret line.
    """
    idx = err.position.index
    expected = _expected_list(err.expected())
    where = f"(line {err.position.line}, column {err.position.column})"
    if idx >= len(text):
        head = f"Unexpected end of input, expected {expected} {where}:"
    else:
        head = f"Invalid input '{_escape(text[idx])}', expected {expected} {where}:"
    line_start = text.rfind("\n", 0, idx) + 1
    line_end = text.find("\n", idx)
    if line_end == -1:
        line_end = len(text)
    lines = [head, text[line_start:line_end]]
    if caret:
        lines.append(" " * (err.position.column - 1) + "^")
    return "\n".join(lines)
