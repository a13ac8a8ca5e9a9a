"""Recursive-descent backtracking interpreter over rule trees.

One ParserState per run: the input buffer, a cursor pointing at the next
unmatched character, the value stack and instrumentation counters. Every
expression match restores cursor and stack to their entry values when it
fails, so prioritized choice can simply try the next alternative.

Repetition bodies whose effect pushes exactly one value per iteration are
collecting: the engine bundles the iteration results into a single list
value, matching what the effect checker reports for them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import rules as r
from .effects import EffectError, infer_effect, repetition_shape, unify_tag
from .errors import (MODE_COLLECT, MODE_OFF, ParseError, RuleTrace,
                     build_parse_error, descriptor_of, format_error)
from .values import StackUnderflow, Value, ValueStack, list_value

# sentinel an action function returns to report a match failure
ACTION_FAIL = object()

_CHARSET_TYPES = (r.CharPred, r.AnyOf, r.NoneOf)
_TERMINAL_SET = frozenset(r.TERMINALS)


class EngineStats:
    """Monotone counters for one run."""

    __slots__ = ("steps", "terminal_mismatches", "max_cursor")

    def __init__(self):
        self.steps = 0
        self.terminal_mismatches = 0
        self.max_cursor = 0  # highest cursor at any terminal mismatch


class ParserState:
    __slots__ = (
        "input", "cursor", "stack", "stats", "error_mode", "principal",
        "quiet_depth", "not_depth", "frames", "collected", "_trace_seen",
        "events", "event_seq", "last_fail_cursor", "check_tags",
        "tag_mismatches", "active_rules", "reentry_violations",
    )

    def __init__(self, text: str, *, error_mode: str = MODE_OFF, principal: int = -1,
                 events: list | None = None, check_tags: bool = False,
                 detect_reentry: bool = False):
        self.input = text
        self.cursor = 0
        self.stack = ValueStack()
        self.stats = EngineStats()
        self.error_mode = error_mode
        self.principal = principal
        self.quiet_depth = 0
        self.not_depth = 0
        self.frames: list[str] | None = [] if error_mode == MODE_COLLECT else None
        self.collected: list[RuleTrace] = []
        self._trace_seen: set[RuleTrace] = set()
        self.events = events
        self.event_seq = 0
        self.last_fail_cursor = 0
        self.check_tags = check_tags
        self.tag_mismatches: list[tuple[str, str, str]] = []
        self.active_rules: set | None = set() if detect_reentry else None
        self.reentry_violations: list[tuple[str, int]] = []


@dataclass(frozen=True, slots=True)
class TraceEvent:
    step: int
    summary: str
    cursor: int  # cursor at the expression's entry
    outcome: str  # "start" | "match" | "mismatch" | "reset"
    moved_from: int | None = None
    moved_to: int | None = None


def format_trace_event(ev: TraceEvent) -> str:
    tail = "" if ev.moved_from is None else f" ({ev.moved_from}->{ev.moved_to})"
    return f"step {ev.step}: {ev.summary} @ {ev.cursor} -> {ev.outcome}{tail}"


@dataclass(frozen=True, slots=True)
class InternalFault:
    description: str


@dataclass(frozen=True, slots=True)
class RunResult:
    """Exactly one of values / error / fault is set."""

    values: tuple[Value, ...] | None = None
    error: ParseError | None = None
    fault: InternalFault | None = None

    @property
    def ok(self) -> bool:
        return self.values is not None

    @property
    def kind(self) -> str:
        if self.values is not None:
            return "success"
        return "parse-failure" if self.error is not None else "internal-fault"


class ParseFailed(Exception):
    """Raising-mode delivery of a parse failure."""

    def __init__(self, error: ParseError, text: str):
        self.error = error
        super().__init__(format_error(error, text))


class EngineFault(Exception):
    """Raising-mode delivery of an internal fault."""

    def __init__(self, fault: InternalFault):
        self.fault = fault
        super().__init__(fault.description)


class ActionRaised(Exception):
    """Internal: an action function raised; surfaces as an InternalFault."""

    def __init__(self, node: r.Action, cause: BaseException):
        self.node = node
        self.cause = cause
        name = node.name or f"<action/{node.arity}>"
        super().__init__(f"action {name} raised {type(cause).__name__}: {cause}")


class Parser:
    """Executes one validated grammar; reusable across runs and threads."""

    def __init__(self, grammar: r.Grammar):
        self.grammar = grammar
        self._exprs = {name: rd.expr for name, rd in grammar.rules.items()}
        self._touch: dict[int, tuple] = {}
        self._rep: dict[int, tuple] = {}
        self._summary: dict[int, tuple] = {}
        self._handlers = {
            r.Ch: self._ch,
            r.IgnoreCaseCh: self._ignore_case_ch,
            r.Str: self._str,
            r.IgnoreCaseStr: self._ignore_case_str,
            r.CharPred: self._char_class,
            r.AnyOf: self._char_class,
            r.NoneOf: self._none_of,
            r.AnyChar: self._any_char,
            r.EndOfInput: self._end_of_input,
            r.Sequence: self._sequence,
            r.FirstOf: self._first_of,
            r.Optional: self._optional,
            r.ZeroOrMore: self._repeat,
            r.OneOrMore: self._repeat,
            r.AndPredicate: self._predicate,
            r.NotPredicate: self._predicate,
            r.Capture: self._capture,
            r.Push: self._push,
            r.Drop: self._drop,
            r.Action: self._action,
            r.RuleRef: self._rule_ref,
            r.Quiet: self._quiet,
        }

    # -- top level ----------------------------------------------------------

    def run(self, text: str, start: str | None = None, mode: str = "result",
            trace: list | None = None, check_tags: bool = False,
            detect_reentry: bool = False):
        """Run the start rule against text and deliver the result.

        mode "result" returns a RunResult union; "either" returns a
        (values, error) pair whose error side is a ParseError or an
        InternalFault; "raising" returns the values or raises.
        """
        state = ParserState(text, events=trace, check_tags=check_tags,
                            detect_reentry=detect_reentry)
        name = start or self.grammar.start
        try:
            ok = self.match_rule(state, name)
        except StackUnderflow as exc:
            result = RunResult(fault=InternalFault(f"value stack underflow: {exc}"))
        except ActionRaised as exc:
            result = RunResult(fault=InternalFault(str(exc)))
        except RecursionError:
            result = RunResult(fault=InternalFault("recursion depth exceeded during parse"))
        else:
            if ok:
                result = RunResult(values=state.stack.values())
            else:
                result = RunResult(error=build_parse_error(self, text, name, failed=state))
        if mode == "result":
            return result
        if mode == "either":
            if result.values is not None:
                return result.values, None
            return None, (result.error if result.error is not None else result.fault)
        if mode == "raising":
            if result.values is not None:
                return result.values
            if result.error is not None:
                raise ParseFailed(result.error, text)
            raise EngineFault(result.fault)
        raise ValueError(f"unknown delivery mode {mode!r}")

    def run_phase(self, text: str, start: str | None = None,
                  error_mode: str = MODE_OFF, principal: int = -1) -> ParserState:
        """Run once under an error mode and hand back the final state."""
        state = ParserState(text, error_mode=error_mode, principal=principal)
        self.match_rule(state, start or self.grammar.start)
        return state

    # -- dispatch -----------------------------------------------------------

    def match(self, state: ParserState, node: r.RuleExpr) -> bool:
        state.stats.steps += 1
        try:
            handler = self._handlers[type(node)]
        except KeyError:
            raise TypeError(f"unknown rule expression: {node!r}") from None
        if state.events is None:
            return handler(state, node)
        return self._match_traced(state, node, handler)

    def match_rule(self, state: ParserState, name: str) -> bool:
        try:
            node = self._exprs[name]
        except KeyError:
            raise KeyError(f"unknown rule {name!r}") from None
        state.stats.steps += 1
        frames = state.frames
        if frames is not None:
            frames.append(name)
        added = None
        if state.active_rules is not None:
            key = (name, state.cursor)
            if key in state.active_rules:
                state.reentry_violations.append(key)
            else:
                state.active_rules.add(key)
                added = key
        try:
            handler = self._handlers[type(node)]
            if state.events is None:
                return handler(state, node)
            entry = state.cursor
            self._emit(state, name, entry, "start")
            ok = handler(state, node)
            if ok:
                self._emit(state, name, entry, "match", entry, state.cursor)
            else:
                self._emit(state, name, entry, "mismatch")
            return ok
        finally:
            if frames is not None:
                frames.pop()
            if added is not None:
                state.active_rules.discard(added)

    def _match_traced(self, state: ParserState, node, handler) -> bool:
        t = type(node)
        if t is r.Sequence or t is r.FirstOf:
            summary = self._summarize(node)
            entry = state.cursor
            self._emit(state, summary, entry, "start")
            ok = handler(state, node)
            if ok:
                self._emit(state, summary, entry, "match", entry, state.cursor)
            elif t is r.FirstOf:
                self._emit(state, summary, entry, "mismatch")
            return ok
        if t in _TERMINAL_SET:
            entry = state.cursor
            ok = handler(state, node)
            if ok:
                self._emit(state, self._summarize(node), entry, "match", entry, state.cursor)
            else:
                state.last_fail_cursor = entry
                self._emit(state, self._summarize(node), entry, "mismatch")
            return ok
        return handler(state, node)

    def _emit(self, state, summary, cursor, outcome, moved_from=None, moved_to=None):
        state.event_seq += 1
        state.events.append(TraceEvent(state.event_seq, summary, cursor, outcome,
                                       moved_from, moved_to))

    # -- terminal matchers ----------------------------------------------------

    def _register_mismatch(self, state: ParserState, node, at: int) -> None:
        # mismatches under a not-predicate are success conditions, not
        # expectations, and stay out of the error phases entirely
        if state.not_depth:
            return
        stats = state.stats
        stats.terminal_mismatches += 1
        if at > stats.max_cursor:
            stats.max_cursor = at
        if (state.error_mode == MODE_COLLECT and at == state.principal
                and state.quiet_depth == 0):
            trace = RuleTrace(tuple(state.frames), descriptor_of(node))
            if trace not in state._trace_seen:
                state._trace_seen.add(trace)
                state.collected.append(trace)

    def _ch(self, state, node):
        i = state.cursor
        text = state.input
        if i < len(text) and text[i] == node.char:
            state.cursor = i + 1
            return True
        self._register_mismatch(state, node, i)
        return False

    def _ignore_case_ch(self, state, node):
        i = state.cursor
        text = state.input
        if i < len(text) and text[i].lower() == node.char.lower():
            state.cursor = i + 1
            return True
        self._register_mismatch(state, node, i)
        return False

    def _str(self, state, node):
        i = state.cursor
        if state.input.startswith(node.text, i):
            state.cursor = i + len(node.text)
            return True
        self._register_mismatch(state, node, i)
        return False

    def _ignore_case_str(self, state, node):
        i = state.cursor
        end = i + len(node.text)
        if state.input[i:end].lower() == node.text.lower():
            state.cursor = end
            return True
        self._register_mismatch(state, node, i)
        return False

    def _char_class(self, state, node):
        i = state.cursor
        text = state.input
        if i < len(text):
            c = text[i]
            o = ord(c)
            pred = node.pred
            if ((pred.mask >> o) & 1) if o < 128 else (pred.extra is not None and pred.extra(c)):
                state.cursor = i + 1
                return True
        self._register_mismatch(state, node, i)
        return False

    def _none_of(self, state, node):
        i = state.cursor
        text = state.input
        if i < len(text) and not node.pred.contains(text[i]):
            state.cursor = i + 1
            return True
        self._register_mismatch(state, node, i)
        return False

    def _any_char(self, state, node):
        i = state.cursor
        if i < len(state.input):
            state.cursor = i + 1
            return True
        self._register_mismatch(state, node, i)
        return False

    def _end_of_input(self, state, node):
        i = state.cursor
        if i == len(state.input):
            return True
        self._register_mismatch(state, node, i)
        return False

    # -- combinators ----------------------------------------------------------

    def _sequence(self, state, node):
        entry = state.cursor
        snap = state.stack.snapshot() if self._touches(node) else None
        for child in node.children:
            if not self.match(state, child):
                if state.events is not None:
                    state.last_fail_cursor = state.cursor
                state.cursor = entry
                if snap is not None:
                    state.stack.restore(snap)
                return False
        return True

    def _first_of(self, state, node):
        entry = state.cursor
        snap = state.stack.snapshot() if self._touches(node) else None
        alternatives = node.alternatives
        last = len(alternatives) - 1
        for idx, alt in enumerate(alternatives):
            if state.events is not None:
                state.last_fail_cursor = entry
            if self.match(state, alt):
                return True
            state.cursor = entry
            if snap is not None:
                state.stack.restore(snap)
            if state.events is not None and idx != last:
                self._emit(state, self._summarize(node), entry, "reset",
                           state.last_fail_cursor, entry)
        return False

    def _optional(self, state, node):
        tag = self._collect_tag(node)
        if tag is None:
            self.match(state, node.inner)
            return True
        stack = state.stack
        base = stack.size()
        self.match(state, node.inner)
        self._materialize(stack, base, tag)
        return True

    def _repeat(self, state, node):
        """ZeroOrMore and OneOrMore: a zero-width iteration ends the loop."""
        inner = node.inner
        minimum = type(node) is r.OneOrMore
        if state.events is None and type(inner) in _CHARSET_TYPES:
            return self._char_loop(state, inner, minimum)
        stack = state.stack
        tag = self._collect_tag(node)
        base = stack.size() if tag is not None else 0
        if minimum and not self.match(state, inner):
            return False
        touches = self._touches(node)
        while True:
            entry = state.cursor
            snap = stack.snapshot() if touches else None
            if not self.match(state, inner):
                break
            if state.cursor == entry:
                # zero-width success: roll the iteration back and stop
                if snap is not None:
                    stack.restore(snap)
                break
        if tag is not None:
            self._materialize(stack, base, tag)
        return True

    def _char_loop(self, state, inner, minimum):
        """Fused repetition over single-character class matchers.

        Observably identical to the generic loop, including the step count
        and the mismatch registration for the attempt that ends the loop.
        """
        text = state.input
        n = len(text)
        start = i = state.cursor
        if type(inner) is r.NoneOf:
            pred = inner.pred
            while i < n and not pred.contains(text[i]):
                i += 1
        else:  # CharPred / AnyOf
            pred = inner.pred
            mask = pred.mask
            extra = pred.extra
            while i < n:
                c = text[i]
                o = ord(c)
                if ((mask >> o) & 1) if o < 128 else (extra is not None and extra(c)):
                    i += 1
                else:
                    break
        count = i - start
        state.cursor = i
        state.stats.steps += count + 1
        self._register_mismatch(state, inner, i)
        if count >= minimum:
            return True
        state.cursor = start
        return False

    def _predicate(self, state, node):
        """And/not-predicates match without consuming or pushing anything."""
        negate = type(node) is r.NotPredicate
        entry = state.cursor
        snap = state.stack.snapshot() if self._touches(node.inner) else None
        state.not_depth += negate
        try:
            ok = self.match(state, node.inner)
        finally:
            state.not_depth -= negate
        state.cursor = entry
        if snap is not None:
            state.stack.restore(snap)
        return ok != negate

    # -- semantic actions -------------------------------------------------------

    def _capture(self, state, node):
        start = state.cursor
        if self.match(state, node.inner):
            state.stack.push(Value("Str", state.input[start:state.cursor]))
            return True
        return False

    def _push(self, state, node):
        value = node.value
        if value.tag != "Unit":  # unit-like values push nothing
            state.stack.push(value)
        return True

    def _drop(self, state, node):
        stack = state.stack
        for _ in range(node.count):
            stack.pop()
        return True

    def _action(self, state, node):
        stack = state.stack
        n = node.arity
        if n:
            snap = stack.snapshot()
            popped = [stack.pop() for _ in range(n)]  # first popped = last argument
            if state.check_tags:
                pops = node.effect.pops
                for j, v in enumerate(popped):
                    expected = pops[n - 1 - j]
                    if unify_tag(expected, v.tag) is None:
                        state.tag_mismatches.append(
                            (node.name or "<action>", expected, v.tag))
            args = popped[::-1]
        else:
            snap = None
            args = ()
        try:
            out = node.fn(*args)
        except Exception as exc:
            raise ActionRaised(node, exc) from exc
        if out is ACTION_FAIL:
            if snap is not None:
                stack.restore(snap)
            return False
        if out is None:
            return True
        if isinstance(out, Value):
            stack.push(out)
            return True
        for v in out:
            stack.push(v)
        return True

    def _rule_ref(self, state, node):
        return self.match_rule(state, node.name)

    def _quiet(self, state, node):
        state.quiet_depth += 1
        try:
            return self.match(state, node.inner)
        finally:
            state.quiet_depth -= 1

    # -- static per-node properties, memoized for the parser's lifetime ---------

    def _touches(self, node) -> bool:
        cached = self._touch.get(id(node))
        if cached is not None:
            return cached[1]
        result = self._compute_touches(node, frozenset())
        self._touch[id(node)] = (node, result)  # keep node alive so ids stay stable
        return result

    def _compute_touches(self, node, active: frozenset) -> bool:
        t = type(node)
        if t in (r.Capture, r.Push, r.Drop, r.Action):
            return True
        if t in (r.AndPredicate, r.NotPredicate):
            return False  # externally stack-neutral; they restore internally
        if t is r.Sequence:
            return any(self._compute_touches(c, active) for c in node.children)
        if t is r.FirstOf:
            return any(self._compute_touches(a, active) for a in node.alternatives)
        if t in (r.Optional, r.ZeroOrMore, r.OneOrMore, r.Quiet):
            return self._compute_touches(node.inner, active)
        if t is r.RuleRef:
            if node.name in active:
                return True  # conservative on cycles
            rd = self.grammar.rules.get(node.name)
            if rd is None:
                return True
            return self._compute_touches(rd.expr, active | {node.name})
        return False  # terminals

    def _collect_tag(self, node) -> str | None:
        """Element tag when the repetition body is collecting, else None."""
        cached = self._rep.get(id(node))
        if cached is not None:
            return cached[1]
        tag = None
        try:
            shape, info = repetition_shape(infer_effect(node.inner, self.grammar))
            if shape == "collecting":
                tag = info
        except (EffectError, KeyError, TypeError):
            tag = None
        self._rep[id(node)] = (node, tag)
        return tag

    def _materialize(self, stack: ValueStack, base: int, tag: str) -> None:
        vals = [stack.pop() for _ in range(stack.size() - base)]
        vals.reverse()
        stack.push(list_value(vals, tag))

    def _summarize(self, node) -> str:
        cached = self._summary.get(id(node))
        if cached is None:
            cached = (node, r.expr_text(node))
            self._summary[id(node)] = cached
        return cached[1]


def run(grammar: r.Grammar, start: str | None, text: str, mode: str = "result", **kwargs):
    """One-shot convenience over Parser(grammar).run(...)."""
    return Parser(grammar).run(text, start=start, mode=mode, **kwargs)


def match_expr(state: ParserState, expr: r.RuleExpr, grammar: r.Grammar) -> bool:
    """Match a single expression against the state's current position."""
    return Parser(grammar).match(state, expr)
