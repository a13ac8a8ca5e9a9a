"""Backtracking interpreter over rule trees, run without Python recursion.

One ParserState per run holds the executor's input, cursor (at the next
unmatched character), value stack and counters, and an observer, if any:
a ``Trace``, which sees each rule open and close and each step, or the
error pass's ``errors.Collector``, which sees each counted mismatch at the
running maximum. The observer's hooks are read once per run, and one that
is None or absent costs one test where it would be called. The rule path
that a mismatch hands to ``miss`` stays in the executor, as cons cells.
Nearly every counted mismatch of the exact error pass is at the running
maximum and so reaches the collector anyway (255,666 of 255,790 over the
41 documents of the seed-1 calc-error benchmark pool), but a collector
that also kept the path through ``enter`` and ``leave`` calls slowed the
pass over a 12,133-character calc document from 8.5-8.9 to 9.3-9.6 ms
(best of 15, CPython 3.11, one core of a 2-vCPU machine).
Every expression match restores cursor and stack to their entry values
when it fails, so prioritized choice can simply try the next alternative.

A Parser runs the instruction tables of ``pegstack.instructions``, which
it builds when it is built: each rule body becomes nested tuples that carry
the node's static facts. One iterative executor runs them with an explicit
continuation stack: each open Sequence, FirstOf, repetition, predicate,
Capture, Optional and Quiet holds one frame, and so does each open rule in
observed runs and error passes. Nesting depth is therefore bounded by
the input, not by the interpreter's recursion limit. The executor knows
five terminal opcodes and no node types: a CLASS carries the ASCII mask
and the function for other characters of a predicate, a none-of set or
".", and an ACTION the function and arity of an action, a push or a drop.

A Parser writes a Python module for a start rule (``pegstack.generate``)
once its unobserved runs have been asked to parse ``GENERATE_AT``
characters, the current run's included, and calls it from then on for the
runs from that rule; a run from another rule (``start=``) writes that
rule's module once: a short-lived Parser that sees little input never pays
for ``compile()``, and one that sees much pays once per start rule. The
Parser keeps the modules it has written in one cache, ``_modules``, by
start rule and kind (parse or collect). Below that, and in every observed
run, the run takes the exact table, and so does its error pass. In the
generated code every choice, repetition and option dispatches on the next
character, each stack-free fragment runs as one regex, and the value
stack's head is a local of the run's functions. Generated code counts no
steps, so a generated run and its error pass report 0 steps, and the run's
mismatch counters are not exact: a fragment that fails counts one mismatch
but leaves ``max_cursor`` as it is, so the run's ``max_cursor`` is at most
the exact table's. When the generated code opens too many functions
(``TooDeep``), or raises ``RecursionError``, the run starts again on the
exact table, and actions run a second time; a grammar that nests too
deeply to write a module from the caller's stack keeps the exact table for
the runs of that module. ``match``, ``match_rule`` and ``run_phase`` take
the exact table. A failed generated run hands its ``max_cursor`` to its
error pass, which runs its start rule's generated collect code, written on
the first such failure, from there (see ``pegstack.errors``); a run that
took the exact table, or started again on it, hands over no bound, so its
error pass is the exact one.

A repetition of one single-character terminal runs as one fused scan, and
so does a Capture of such a repetition, which pushes the matched slice
itself; an observed run logs one match per character and then the mismatch
that ends the scan. A repetition whose body has a head takes no snapshot:
one would only undo an iteration that matched without moving, and such a
body moves when it matches. The executor runs every alternative, iteration
and option; the dispatch on the next character is the generated code's.

Repetition bodies whose effect pushes exactly one value per iteration are
collecting: the engine bundles the iteration results into a single list
value, matching what the effect checker reports for them.
"""

from __future__ import annotations

from . import rules as r
from .errors import Collector, ParseError, build_parse_error, format_error
from .instructions import OPS, QUIET, RULE, Tables
from .record import record
from .values import Node, StackUnderflow, Value, ValueStack, list_value, node1, node2

# sentinel an action function returns to report a match failure
ACTION_FAIL = object()
_QUIET_FRAME = (QUIET,)
# characters a Parser's unobserved runs are asked to parse, in all, before
# it writes its grammar's module. Writing and compiling the module costs
# what the exact table loses to it on 1.3 KB (json) to 2.6 KB (the
# meta-grammar) of input in a process that has imported the writer, and on
# 12-16 KB (calc) in a one-shot ``pegstack run`` process, which also
# imports it from source. A long-lived Parser passes any of these within
# its first few inputs, so the one-shot break-even sets the constant
GENERATE_AT = 12288


def _scan(mask: int, extra, text: str, i: int) -> int:
    """End of the run from i of a CLASS's characters, (ASCII mask, function
    for the others), for a class without a regex."""
    n = len(text)
    while i < n:
        c = text[i]
        o = ord(c)
        if not (((mask >> o) & 1) if o < 128 else extra(c)):
            break
        i += 1
    return i


class EngineStats:
    """Monotone counters for one run."""

    __slots__ = ("steps", "terminal_mismatches", "max_cursor")

    def __init__(self):
        self.steps = 0
        self.terminal_mismatches = 0
        self.max_cursor = 0  # highest cursor at any terminal mismatch


class ParserState:
    """One run's data: the executor's ``input``, ``cursor``, ``stack`` and
    ``stats``, and the ``observer`` that watches the run, or None."""

    __slots__ = ("input", "cursor", "stack", "stats", "observer")

    def __init__(self, text: str):
        self.input = text
        self.cursor = 0
        self.stack = ValueStack()
        self.stats = EngineStats()
        self.observer = None


@record
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


class Trace:
    """Observer that appends numbered TraceEvents to a sink, anything with ``append``.

    An observer may have ``enter(name, at)`` and ``leave(name, at, ok, pos)``
    for each rule, ``event(node, cursor, outcome, moved_from, moved_to)``
    for each step the executor logs, with that step's rule-tree node, and
    ``miss(at, node, path, quiet)`` for each counted mismatch at or past the
    run's running maximum (see ``errors.Collector``); a hook that is None or
    absent is not called. A Trace logs rules as events too, and renders each
    node's summary once.
    """

    __slots__ = ("append", "step", "summaries")

    def __init__(self, sink):
        self.append = sink.append
        self.step = 0
        # id(node) -> (node, summary); holding the node keeps its id unique
        self.summaries: dict[int, tuple] = {}

    def enter(self, name: str, at: int) -> None:
        self._log(name, at, "start", None, None)

    def leave(self, name: str, at: int, ok: bool, pos: int) -> None:
        if ok:
            self._log(name, at, "match", at, pos)
        else:
            self._log(name, at, "mismatch", None, None)

    def event(self, node, cursor, outcome, moved_from, moved_to) -> None:
        known = self.summaries.get(id(node))
        if known is None:
            known = self.summaries[id(node)] = (node, r.expr_text(node))
        self._log(known[1], cursor, outcome, moved_from, moved_to)

    def _log(self, summary, cursor, outcome, moved_from, moved_to) -> None:
        self.step += 1
        self.append(TraceEvent(self.step, summary, cursor, outcome, moved_from, moved_to))


@record
class InternalFault:
    description: str


@record
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


class TooDeep(Exception):
    """Raised by generated code when too many of its functions are open."""


def _gives_up(*_):
    """The factory a Parser keeps for a module it could not write: each run
    of it gives up at once, and the exact table runs instead."""
    raise TooDeep


class ActionRaised(Exception):
    """Internal: an action function raised; surfaces as an InternalFault."""

    def __init__(self, node: r.Action, cause: BaseException):
        self.node = node
        self.cause = cause
        name = node.name or f"<action/{node.arity}>"
        super().__init__(f"action {name} raised {type(cause).__name__}: {cause}")


def _act(state: ParserState, ins: tuple) -> bool:
    """Run an ACTION instruction, (ACTION, node, fn, arity): an action,
    a push or a drop."""
    stack = state.stack
    n = ins[3]
    if n:
        snap = stack.snapshot()
        args = stack.take(n)  # deepest first
    else:
        snap = None
        args = ()
    try:
        out = ins[2](*args)
    except Exception as exc:
        raise ActionRaised(ins[1], exc) from exc
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


def _pop(head: tuple, count: int) -> tuple[tuple, tuple]:
    """The top count values of the value stack whose head cell generated
    code holds, bottom to top, and the cell below them; ``StackUnderflow``,
    as ``ValueStack.take`` raises it, when the stack holds fewer."""
    if count > head[2]:
        raise StackUnderflow("pop from empty value stack")
    out = []
    for _ in range(count):
        out.append(head[0])
        head = head[1]
    out.reverse()
    return tuple(out), head


def _listed(head: tuple, base: int, tag: str) -> tuple:
    """The head cell of generated code's value stack once the values above
    its first base are one list value of tag, as a collecting repetition
    or option leaves them."""
    values, below = _pop(head, head[2] - base)
    return (list_value(values, tag), below, below[2] + 1)


# what generated code calls besides the grammar's own objects
_RUNTIME = {"Node": Node, "node1": node1, "node2": node2, "Value": Value,
            "list_value": list_value, "act": _act, "scan": _scan, "pop": _pop, "listed": _listed,
            "TooDeep": TooDeep}


class Parser:
    """Executes one validated grammar; reusable across runs and threads."""

    def __init__(self, grammar: r.Grammar):
        self.grammar = grammar
        try:
            self._tables = Tables(grammar)
        except RecursionError:
            self._tables = None  # every run is an internal fault
        # characters the unobserved runs have been asked to parse, in all, by
        # runs of start rules without a module; past GENERATE_AT, such a run
        # writes its rule's module and the runs from the rule call its factory
        self._asked = 0
        # the modules written, by (start rule, collect): each a (closure
        # factory, source) pair, or (_gives_up, None) for a module that nests
        # too deeply to write. A start rule's collect module is written on its
        # first failed generated run, so that a grammar that never fails
        # compiles none
        self._modules: dict[tuple[str, bool], tuple] = {}

    @property
    def fault(self) -> InternalFault | None:
        """The fault every run reports when the grammar is nested too deeply
        to compile; None when it compiled."""
        return None if self._tables is not None else InternalFault(str(r.GrammarTooDeep()))

    # -- top level ----------------------------------------------------------

    def run(self, text: str, start: str | None = None, mode: str = "result",
            observer=None):
        """Run the start rule against text and deliver the result.

        mode "result" returns a RunResult union; "either" returns a
        (values, error) pair whose error side is a ParseError or an
        InternalFault; "raising" returns the values or raises. A run with an
        observer (see Trace) takes the exact table, and so does its error
        pass; so does an unobserved run until the Parser's unobserved runs,
        this one included, have been asked to parse ``GENERATE_AT``
        characters. From then on unobserved runs take the grammar's
        generated code, and the error pass of one that fails runs the
        generated collect code (see ``error_pass``).
        """
        if mode not in ("result", "either", "raising"):
            raise ValueError(f"unknown delivery mode {mode!r}")
        state = ParserState(text)
        state.observer = observer
        name = start or self.grammar.start
        try:
            # unobserved, the generated code once the input pays for it: its
            # furthest mismatch bounds the principal index from below and
            # starts the generated error pass
            bodies = self._bodies()
            if observer is None:
                ok, bound = self._generated(state, name, bodies)
            else:
                ok, bound = self._execute(state, bodies[name], name, bodies), None
            if ok:
                result = RunResult(values=state.stack.values())
            else:
                result = RunResult(error=build_parse_error(self, text, name, bound))
        except StackUnderflow as exc:
            result = RunResult(fault=InternalFault(f"value stack underflow: {exc}"))
        except ActionRaised as exc:
            result = RunResult(fault=InternalFault(str(exc)))
        except EngineFault as exc:
            result = RunResult(fault=exc.fault)
        if mode == "result":
            return result
        if mode == "either":
            if result.values is not None:
                return result.values, None
            return None, (result.error if result.error is not None else result.fault)
        if result.values is not None:  # raising
            return result.values
        if result.error is not None:
            raise ParseFailed(result.error, text)
        raise EngineFault(result.fault)

    def run_phase(self, text: str, start: str | None = None, observer=None) -> ParserState:
        """Run once on the exact table, watched by observer, and hand back
        the final state. Every alternative, iteration and option runs, and
        every value is built."""
        state = ParserState(text)
        state.observer = observer
        name = start or self.grammar.start
        bodies = self._bodies()
        self._execute(state, bodies[name], name, bodies)
        return state

    def error_pass(self, text: str, start: str | None = None,
                   bound: int | None = None) -> tuple[ParserState, list]:
        """The error pass over a failing text: its final state, and the rule
        traces its ``errors.Collector`` found at the principal index. Without
        a bound it is ``run_phase`` with that observer. A bound is the
        ``max_cursor`` of a generated run of the same text that failed
        without a fault, at most the principal index: the pass then runs the
        start rule's generated collect code, written on first use, with its
        running maximum starting there (see ``pegstack.errors``). When that
        code opens too many functions, or raises ``RecursionError``, or the
        module nests too deeply to write, the pass runs on the exact table,
        in the same state with a fresh Collector."""
        if bound is None:
            state = self.run_phase(text, start, Collector())
            return state, state.observer.traces()
        bodies = self._bodies()
        state = ParserState(text)
        state.observer = Collector()
        name = start or self.grammar.start
        try:
            self._generate(name, collect=True)(state, bound)
        except (TooDeep, RecursionError):
            state.stack = ValueStack()  # the counters are written only at the end
            state.observer = Collector()
            self._execute(state, bodies[name], name, bodies)
        return state, state.observer.traces()

    def match(self, state: ParserState, node: r.RuleExpr) -> bool:
        """Match one expression at the state's cursor."""
        bodies = self._bodies()
        return self._execute(state, self._tables.compile(node), None, bodies)

    def match_rule(self, state: ParserState, name: str) -> bool:
        """Match the named rule at the state's cursor."""
        bodies = self._bodies()
        return self._execute(state, bodies[name], name, bodies)

    def _bodies(self) -> dict:
        """The exact rule bodies, by rule name."""
        if self._tables is None:
            raise EngineFault(self.fault)
        return self._tables.bodies

    def _generate(self, start: str | None = None, collect: bool = False):
        """The closure factory of the parse module of a start rule, the
        grammar's unless given, or with collect of its collect module: the
        one in ``_modules``, or one written now and kept there. Two threads
        may both write it; each keeps an equal one. When the grammar nests
        too deeply to write from this call stack (``RecursionError``), the
        Parser keeps a factory that gives up at once instead, so the runs of
        that module take the exact table for good and none writes again. An
        unknown start raises ``KeyError`` and keeps nothing."""
        key = (start or self.grammar.start, collect)
        module = self._modules.get(key)
        if module is None:
            from .generate import generate
            try:
                module = generate(self._tables, _RUNTIME, collect, key[0])
            except RecursionError:
                module = (_gives_up, None)
            self._modules[key] = module
        return module[0]

    def _generated(self, state: ParserState, name: str, bodies: dict) -> tuple[bool, int | None]:
        """Run the named rule through its generated module, written once the
        unobserved runs, this one included, have been asked to parse
        ``GENERATE_AT`` characters; below that, on the exact table.
        When the generated code nests too deeply, run again from the start
        on the exact table, whose actions then run a second time. Hand back
        whether it matched and the bound of its error pass: the generated
        run's ``max_cursor``, or None after a run on the exact table, whose
        error pass is the exact one too; after a rerun the generated collect
        code would nest as deeply."""
        if (name, False) not in self._modules:
            self._asked += len(state.input)
            if self._asked < GENERATE_AT:
                return self._execute(state, bodies[name], name, bodies), None
        try:
            return self._generate(name)(state), state.stats.max_cursor
        except (TooDeep, RecursionError):
            state.cursor = 0
            state.stack = ValueStack()
            state.stats = EngineStats()
            return self._execute(state, bodies[name], name, bodies), None

    # -- the executor -------------------------------------------------------

    def _execute(self, state: ParserState, ins: tuple, rule: str | None, bodies: dict) -> bool:
        """Run one compiled expression of a table (a rule body when rule is its name).

        Every node either decides at once or opens a continuation frame on
        ``frames`` and descends into a child; a decided result is then
        handed to the frames from the top down until one of them descends
        again. No Python call made here re-enters the executor.

        A watched run (one with an observer) opens a frame for each rule and
        keeps the open rules' path, which it hands to the observer's
        ``miss`` with each counted mismatch at or past ``max_cursor``; the
        observer's hooks are read once, and one that is None is not called.
        Every alternative, iteration and option runs, and every value is
        built: the dispatch that skips what cannot start at the next
        character is the generated code's.
        """
        text = state.input
        n = len(text)
        pos = state.cursor
        stats = state.stats
        steps = stats.steps
        mismatches = stats.terminal_mismatches
        max_cursor = stats.max_cursor
        stack = state.stack
        snapshot, restore, push, pop, size = (stack.snapshot, stack.restore, stack.push,
                                              stack.pop, stack.size)
        observer = state.observer
        watched = observer is not None  # rules open frames
        enter, leave, event, miss = (getattr(observer, hook, None)
                                     for hook in ("enter", "leave", "event", "miss"))
        traced = event is not None  # every step is logged
        path = ()  # watched: the open rules, innermost first, as cons cells
        not_depth = quiet_depth = 0
        # continuation frames, by the opcode that opened them:
        #   [SEQ or ALT, children, next child, entry cursor, snapshot, ins]
        #   [REP, ins, iteration entry cursor, snapshot, first match pending,
        #    collect base or None]
        #   (CAPTURE, start)  (OPT, collect tag, collect base)
        #   (PRED, negate, entry cursor, snapshot)  (QUIET,)
        #   (RULE, name, entry cursor) in watched runs; a node entered with a
        #     RULE frame on top is a rule body's root, which logs no events:
        #     its rule's stand for them
        frames: list = []
        if rule is not None and watched:
            frames.append((RULE, rule, pos))
            path = (rule, path)
            if enter is not None:
                enter(rule, pos)
        (CH, CLASS, STR, EOI, ISTR, SEQ, ALT, REF, CHARS, ACTION, CONS, CAPTURE, REP, OPT,
         PRED, QUIET) = OPS
        try:
            while True:
                # -- enter ins --------------------------------------------------
                steps += 1
                op = ins[0]
                if op <= ISTR:  # a terminal
                    at = pos
                    if op == CH:
                        ok = pos < n and text[pos] == ins[2]
                        if ok:
                            pos += 1
                    elif op == CLASS:
                        ok = False
                        if pos < n:
                            c = text[pos]
                            o = ord(c)
                            extra = ins[3]
                            if ((ins[2] >> o) & 1) if o < 128 else (extra is not None and extra(c)):
                                pos += 1
                                ok = True
                    elif op == STR:
                        ok = text.startswith(ins[2], pos)
                        if ok:
                            pos += ins[3]
                    elif op == EOI:
                        ok = pos == n
                    else:  # ISTR
                        end = pos + ins[3]
                        ok = text[pos:end].lower() == ins[2]
                        if ok:
                            pos = end
                    if not ok and not not_depth:
                        mismatches += 1
                        if at >= max_cursor:
                            max_cursor = at
                            if miss is not None:
                                miss(at, ins[1], path, quiet_depth)
                    if traced and (not frames or frames[-1][0] != RULE):
                        if ok:
                            event(ins[1], at, "match", at, pos)
                        else:
                            fail_at = at
                            event(ins[1], at, "mismatch", None, None)
                # the other opcodes, tested in the order of how often the runs of
                # calc.peg and json.peg reach them
                elif op == SEQ:
                    if traced and (not frames or frames[-1][0] != RULE):
                        event(ins[1], pos, "start", None, None)
                    frames.append([SEQ, ins[2], 1, pos, snapshot() if ins[3] else None, ins])
                    ins = ins[2][0]
                    continue
                elif op == ALT:
                    if traced:
                        if not frames or frames[-1][0] != RULE:
                            event(ins[1], pos, "start", None, None)
                        fail_at = pos  # a reset reports the cursor of the last failure
                    frames.append([ALT, ins[2], 1, pos, snapshot() if ins[3] else None, ins])
                    ins = ins[2][0]
                    continue
                elif op == CONS:  # popping one at a time underflows as take does
                    if ins[3] == 2:
                        last = pop()
                        push(node2(ins[2], pop(), last))
                    elif ins[3] == 1:
                        push(node1(ins[2], pop()))
                    else:
                        push(Node(ins[2], stack.take(ins[3])))
                    ok = True
                elif op == REF:
                    if watched:
                        frames.append((RULE, ins[2], pos))
                        path = (ins[2], path)
                        if enter is not None:
                            enter(ins[2], pos)
                    ins = bodies[ins[2]]
                    continue
                elif op == CHARS:
                    # a repetition of one single-character terminal, fused:
                    # each attempt counts one step, and the attempt that
                    # ends the run is a mismatch either way
                    scan = ins[4]
                    term = ins[2]
                    at = (scan(text, pos).end() if scan is not None
                          else _scan(term[2], term[3], text, pos))
                    count = at - pos
                    steps += count + 1 + ins[5]  # a fused Capture counts its own step
                    if traced:  # the attempts of the repetition it stands for
                        for c in range(pos, at):
                            event(term[1], c, "match", c, c + 1)
                        fail_at = at
                        event(term[1], at, "mismatch", None, None)
                    ok = count >= ins[3]
                    if ok:
                        if ins[5]:
                            push(Value("Str", text[pos:at]))
                        pos = at
                    if not not_depth:
                        mismatches += 1
                        if at >= max_cursor:
                            max_cursor = at
                            if miss is not None:
                                miss(at, term[1], path, quiet_depth)
                elif op == REP:
                    # a snapshot undoes a zero-width iteration, so a body with
                    # a head (a filled dispatch operand), which moves when it
                    # matches, needs none
                    first = ins[3]  # OneOrMore: the first match may fail the loop
                    frames.append([REP, ins, pos,
                                   None if ins[6] or first or not ins[5] else snapshot(),
                                   first, size() if ins[4] is not None else None])
                    ins = ins[2]
                    continue
                elif op == OPT:
                    frames.append((OPT, ins[3], size() if ins[3] is not None else 0))
                    ins = ins[2]
                    continue
                elif op == ACTION:
                    ok = _act(state, ins)
                elif op == CAPTURE:
                    frames.append((CAPTURE, pos))
                    ins = ins[2]
                    continue
                elif op == PRED:
                    negate = ins[3]
                    not_depth += negate
                    frames.append((PRED, negate, pos, snapshot() if ins[4] else None))
                    ins = ins[2]
                    continue
                elif op == QUIET:
                    frames.append(_QUIET_FRAME)
                    quiet_depth += 1
                    ins = ins[2]
                    continue
                else:
                    raise TypeError(f"unknown instruction {ins!r}")

                # -- hand ok to the open frames -------------------------------------
                while frames:
                    f = frames[-1]
                    k = f[0]
                    if k == SEQ:
                        if ok:
                            i = f[2]
                            following = f[1][i]
                            if following is not None:
                                f[2] = i + 1
                                ins = following
                                break
                            frames.pop()
                            if traced and (not frames or frames[-1][0] != RULE):
                                event(f[5][1], f[3], "match", f[3], pos)
                        else:
                            frames.pop()
                            if traced:
                                fail_at = pos
                            pos = f[3]
                            if f[4] is not None:
                                restore(f[4])
                    elif k == ALT:
                        if ok:
                            frames.pop()
                            if traced and (not frames or frames[-1][0] != RULE):
                                event(f[5][1], f[3], "match", f[3], pos)
                        else:
                            pos = entry = f[3]
                            if f[4] is not None:
                                restore(f[4])
                            i = f[2]
                            following = f[1][i]
                            if following is not None:
                                if traced:
                                    event(f[5][1], entry, "reset", fail_at, entry)
                                    fail_at = entry
                                f[2] = i + 1
                                ins = following
                                break
                            frames.pop()
                            if traced and (not frames or frames[-1][0] != RULE):
                                event(f[5][1], entry, "mismatch", None, None)
                    elif k == REP:
                        rep = f[1]
                        if f[4]:
                            if not ok:
                                frames.pop()
                                continue
                            f[4] = False
                        elif not ok or pos == f[2]:
                            if ok and f[3] is not None:
                                restore(f[3])  # a zero-width iteration ends the loop undone
                            frames.pop()
                            if f[5] is not None:
                                self._materialize(stack, f[5], rep[4])
                            ok = True
                            continue
                        f[2] = pos
                        if rep[5] and not rep[6]:  # a headed body moves: nothing to undo
                            f[3] = snapshot()
                        ins = rep[2]
                        break
                    elif k == CAPTURE:
                        frames.pop()
                        if ok:
                            push(Value("Str", text[f[1]:pos]))
                    elif k == OPT:
                        frames.pop()
                        if f[1] is not None:
                            self._materialize(stack, f[2], f[1])
                        ok = True
                    elif k == PRED:
                        frames.pop()
                        not_depth -= f[1]
                        pos = f[2]
                        if f[3] is not None:
                            restore(f[3])
                        ok = ok != f[1]
                    elif k == QUIET:
                        frames.pop()
                        quiet_depth -= 1
                    else:  # RULE
                        frames.pop()
                        path = path[1]
                        if leave is not None:
                            leave(f[1], f[2], ok, pos)
                else:
                    return ok
        finally:
            state.cursor = pos
            stats.steps = steps
            stats.terminal_mismatches = mismatches
            stats.max_cursor = max_cursor

    # -- a helper the executor calls; it returns before the next node ---------

    def _materialize(self, stack: ValueStack, base: int, tag: str) -> None:
        stack.push(list_value(stack.take(stack.size() - base), tag))

