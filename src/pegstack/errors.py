"""Parse-failure analysis: principal error position, rule traces, formatting.

The run that failed already knows the principal error index: the maximum
cursor at which any terminal matcher registered a mismatch. One
instrumented rerun then collects, for every terminal mismatch at exactly
that index, the path of named rules from the start rule plus a descriptor
of the failed terminal. Rules wrapped in ``quiet`` are skipped during
collection but behave identically otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rules as r

# error modes of a parser state; the trace-collecting rerun selects MODE_COLLECT
MODE_OFF = "off"
MODE_COLLECT = "collect_traces"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class TerminalDescriptor:
    kind: str  # "char" | "string" | "predicate" | "any" | "eoi"
    text: str

    def render(self) -> str:
        if self.kind in ("char", "string"):
            return f"'{_escape(self.text)}'"
        if self.kind == "eoi":
            return "'EOI'"
        return self.text  # predicate names and ANY render bare


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def descriptor_of(node: r.RuleExpr) -> TerminalDescriptor:
    t = type(node)
    if t in (r.Ch, r.IgnoreCaseCh):
        return TerminalDescriptor("char", node.char)
    if t in (r.Str, r.IgnoreCaseStr):
        return TerminalDescriptor("string", node.text)
    if t is r.EndOfInput:
        return TerminalDescriptor("eoi", "EOI")
    if t is r.AnyChar:
        return TerminalDescriptor("any", "ANY")
    if t is r.CharPred:
        return TerminalDescriptor("predicate", node.pred.name or "<pred>")
    if t is r.AnyOf:
        return TerminalDescriptor("predicate", node.pred.name or "<set>")
    if t is r.NoneOf:
        return TerminalDescriptor("predicate", "!" + (node.pred.name or "<set>"))
    raise TypeError(f"not a terminal: {node!r}")


@dataclass(frozen=True, slots=True)
class RuleTrace:
    frames: tuple[str, ...]  # named rules from the start rule to the failure
    terminal: TerminalDescriptor

    def __str__(self) -> str:
        return " / ".join(self.frames) + " / " + self.terminal.render()


@dataclass(frozen=True, slots=True)
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


def trace_collection(parser, text: str, start: str | None, principal: int) -> tuple[RuleTrace, ...]:
    state = parser.run_phase(text, start, MODE_COLLECT, principal)
    return tuple(state.collected)


def build_parse_error(parser, text: str, start: str | None = None, *, failed=None) -> ParseError:
    """Principal position and rule traces of a parse that fails.

    ``failed``, the final state of the run that failed, already holds the
    principal index; without it one more run computes it.
    """
    principal = principal_index(failed if failed is not None else parser.run_phase(text, start))
    pos = position_of(text, principal)
    return ParseError(pos, pos, trace_collection(parser, text, start, principal))


def establish_principal_error_index(g: r.Grammar, start: str, text: str) -> int:
    from .engine import Parser

    return principal_error_index(Parser(g), text, start)


def collect_rule_traces(g: r.Grammar, start: str, text: str, principal: int) -> tuple[RuleTrace, ...]:
    from .engine import Parser

    return trace_collection(Parser(g), text, start, principal)


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
