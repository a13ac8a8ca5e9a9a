"""Python source expanded from a grammar's exact instruction table.

A Parser writes a parse module for one start rule once its unobserved
runs have been asked to parse ``engine.GENERATE_AT`` characters, and
imports this module only then; before that, and in observed runs, it takes
the exact table. The module holds one closure factory, ``parse(state)``:
each unobserved ``Parser.run`` from that rule on calls it once, and it
makes the module's functions over that run's input, value stack and
counters, runs the start rule's function, ``R[0]``, and writes the
counters into the run's ``ParserState``. A function takes the cursor and
the number of generated functions open below it, and returns the cursor
past its match or -1. A run from another rule (``start=``) has a module
of its own.

The functions hold the head cell of the run's ``ValueStack``, a
``(value, below, size)`` tuple, in the factory's local ``h``: the factory
reads it from the stack and writes it back once the start rule's function
has returned (the parse module also when it raises), and each action call
writes it to the stack before and reads it back after, so that actions
and the run's result see the stack as the executor would leave it. The code works on
``h`` where the executor would call the stack if it dispatched everywhere,
with no call but for a list and a node of other than one or two children
(the runtime's ``listed`` and ``pop``):

* a snapshot is ``s = h`` and a restore ``h = s``; a push builds the cell
  ``(v, h, h[2] + 1)``; ``cons(L,k)`` pops its k children and pushes the
  node in one cell, once it has tested ``h[2] >= k`` (``pop`` raises the
  ``StackUnderflow`` of ``ValueStack.take`` otherwise); it builds a node of
  one or two children with the runtime's ``node1`` or ``node2``, which take
  the children as arguments, and any other with ``Node``;
* a sequence that touches the stack snapshots at entry and restores when it
  fails; a choice with a frame snapshots at entry and restores after each
  alternative that fails; one that starts where another snapshot was just
  taken (a rule run in place at the start of a sequence) reads that one,
  and a sequence that reads one leaves the restore to the sequence that
  took it;
* a choice branches on the next character through its dispatch operand:
  none of its alternatives fails at once, one runs in place with no frame,
  more run in order with one. Where no alternative can start at two
  characters that start different sets, the branches are an ``if`` chain;
  otherwise the alternatives run in order, each guarded by a bit of the
  character's set;
* ``*``, ``+`` and ``?`` are ``while`` and ``if``, tested first on the next
  character where their operand is filled, and a loop whose body can start
  at one character only runs its body knowing that character, as a choice's
  branch does; a loop over a body without a head snapshots before each
  iteration and restores one that matched without moving;
* a ``*`` of one character that fuses into one regex scan calls the regex
  only where the terminal takes the next character, and counts its one
  mismatch either way; a ``+`` calls it at once;
* the largest fragment that lowers to one regex (see
  ``pegstack.instructions``) is one call of the compiled regex, and a
  capture of one pushes the slice it matched; whether a fragment lowers is
  read from its regex source, and the regex is compiled only where the
  code names it;
* a reference calls the rule's function where the rule is a loop breaker,
  or where the rule's code would take the function that holds the
  reference past its budget; every other reference, on a cycle or off
  every cycle, runs the rule's code in place (below).

A module holds only the functions that its code calls. In each strongly
connected component of the rule graph, the loop breakers
(``_loop_breakers``, after Peyton Jones and Marlow, "Secrets of the
Glasgow Haskell Compiler inliner", JFP 12(4), 2002) keep a function that
each reference calls, so that every cycle calls one; a breaker is a rule
that its component reaches only past taken input where there is one, so
that a nesting level, not a token, opens a function: calc's ``Expression``
past ``(``, json's ``Members`` and ``Elements`` past ``{`` and ``[``. The
module holds the functions of the start rule, of the breakers that it
reaches, and of each rule that a reference calls because the rule's code
would take the function past its budget (a spill): each may hold
``_BUDGET`` instructions, counting the code of the rules it runs in place.
Every other rule runs only in place. So the module stays linear in the
grammar: each function holds its rule's code and at most ``_BUDGET``
instructions of the rules it runs in place, and a chain of rules writes
each rule's code once, calling the next function only every few dozen
rules.

The code counts terminal mismatches and the furthest one, ``mm`` and
``mc``, which bound the error pass (a regex fragment that fails is one
mismatch that leaves ``mc`` as it is; a ``!`` puts both back as they were
at its entry, so nothing inside it counts), and no steps: a generated run
reports 0 steps.

The source names every grammar object (action, regex, character set)
through the module's namespace, so equal grammars give equal source, and
the code object is cached by that source (``_CODES``). A construct nested
deeper than ``_SPLIT_AT`` indentation levels becomes a function of its
own, so the source stays within Python's limits on indentation and on
nested loops. Every function raises the engine's ``TooDeep``, which the
runtime names, when more than ``DEPTH_BOUND`` generated functions are
open (calc opens one per paren level, json one per array or object); the
Parser then runs the input again on the exact table, which has no such
bound.

The same walk, in collect mode, writes the collect module of a start
rule, whose factory ``collect(state, bound)`` runs the error pass of a
failed generated run from that rule (see ``pegstack.errors``); a Parser
writes it on the first such failure. It differs from the parse module in
this:

* it keeps the running maximum ``mc`` from ``bound``, and hands each
  counted mismatch at or past it to the ``miss`` of the state's observer,
  an ``errors.Collector``, with the rule path and the open ``quiet``s;
* each rule's function, and each rule's code run in place, opens its rule
  on the path, a cons cell, and closes it again; ``!`` and ``quiet`` are
  counters that a mismatch reads;
* a choice, ``*``, ``+`` and ``?`` dispatch only while ``pos < mc``, a
  choice through the bits of the character's set; at or past ``mc``
  every alternative runs;
* nothing lowers to a regex, which cannot report its inner mismatches; a
  fused scan, whose one mismatch is where it ends, stays;
* it counts no steps either, so a generated error pass reports 0 steps;
* when the grammar's values decide no match (``Tables.value_free``), it
  holds no value code: no snapshot, capture, node, list or action.
"""

from __future__ import annotations

from . import rules as r
from .instructions import (ACTION, ALT, CAPTURE, CH, CHARS, CLASS, CONS, EOI, ISTR, OPT, PRED,
                           QUIET, REF, REP, SEQ, STR, _ASCII, _LOWERED, Tables, _always,
                           _regex)

# generated functions open at once past which a run goes to the exact table;
# well under the default recursion limit, so that actions keep room
DEPTH_BOUND = 200
# indentation past which a compound instruction gets a function of its own:
# CPython allows 100 levels of indentation and 20 nested loops
_SPLIT_AT = 12
# instructions that a generated function may hold, rules run in place included
_BUDGET = 150
# members of a character set that the source lists; larger sets are named
_LISTED_AT_MOST = 8
# instructions whose code nests the code of others
_NESTING = (SEQ, ALT, CAPTURE, REP, OPT, PRED, QUIET)
_CODES: dict = {}  # source -> code object, oldest first
_CACHE_SIZE = 64


# the parse module: the run's names, the helpers that count mismatches, the
# functions, and the call of the start rule's, R[0]; the functions call each
# other through R, one name for all of them, which keeps compile() linear in
# their number
_PARSE = '''\
def parse(state):
    text = state.input
    n = len(text)
{values}
    mm = mc = 0
    R = [None] * {count}

    def miss(at):  # a terminal's mismatch
        nonlocal mm, mc
        mm += 1
        if at > mc: mc = at
        return -1

    def fail():  # a regex fragment's mismatch
        nonlocal mm
        mm += 1
        return -1

{functions}

    try:
        pos = R[0](0, 0)
    finally:
        stack._head = h
        stats = state.stats
        stats.terminal_mismatches, stats.max_cursor = mm, mc
        R.clear()  # the run's closures go now, not in a later collection of cycles
    state.cursor = max(pos, 0)
    return pos >= 0
'''

# the collect module: the same, but for the rule path and the ``!`` and
# ``quiet`` counters; each mismatch at or past the running maximum goes to
# the state's observer
_COLLECT = '''\
def collect(state, bound):
    text = state.input
    n = len(text)
{values}
    mm = nots = quiets = 0
    mc = bound
    path = ()  # the open rules, innermost first, as cons cells
    note = state.observer.miss
    R = [None] * {count}

    def miss(at, t):  # the mismatch of terminal node t
        nonlocal mm, mc
        if nots:
            return -1
        mm += 1
        if at >= mc:
            mc = at
            note(at, t, path, quiets)
        return -1

{functions}

    try:
        pos = R[0](0, 0)
    finally:
        R.clear()
{store}    stats = state.stats
    stats.terminal_mismatches, stats.max_cursor = mm, mc
    state.cursor = max(pos, 0)
    return pos >= 0
'''
# the value stack's head cell, which the functions hold in h, and which the
# run's ValueStack holds again once they have run (the parse module builds
# values always, the collect module only when they decide a match)
_VALUES = '''\
    stack = state.stack
    h = stack._head'''
_STORE = "    stack._head = h\n"


def _push(value: str) -> str:
    """The statement that pushes the value an expression gives."""
    return f"h = ({value}, h, h[2] + 1)"


def _code(source: str):
    """The code object of a module's source, compiled once per source."""
    code = _CODES.get(source)
    if code is None:
        if len(_CODES) >= _CACHE_SIZE:
            try:  # as re drops its oldest pattern
                del _CODES[next(iter(_CODES))]
            except (StopIteration, RuntimeError, KeyError):
                pass
        code = _CODES[source] = compile(source, "<pegstack grammar>", "exec")
    return code


class _Function:
    """The lines of one generated function, which may hold ``_BUDGET``
    instructions. A rule's function in the collect module opens its rule on
    the path and closes it on return."""

    def __init__(self, index: int, label: str, names: str, rule: str | None = None):
        self.index = index
        self.lines = [f"    def f(pos, d):{label}", f"        nonlocal {names}",
                      f"        if d > {DEPTH_BOUND}: raise TooDeep"]
        self.indent = 2
        self.locals = 0
        self.size = 0  # instructions written so far
        self.snapped: tuple[int, str] | None = None  # the last snapshot and the line count after it
        self.opened: list[int] = []  # the line count where each open block starts
        self.rule = rule
        if rule is not None:
            self.line(f"path = ({rule!r}, path)")

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def open(self, header: str) -> None:
        self.line(header)
        self.indent += 1
        self.opened.append(len(self.lines))

    def close(self) -> None:
        """End the block opened last. An empty one goes, header and all: only
        a guard can be empty, as no branch with an ``elif`` or ``else`` after
        it matches the empty string without writing a line."""
        if len(self.lines) == self.opened.pop():
            self.lines.pop()
        self.indent -= 1

    def fresh(self, prefix: str) -> str:
        self.locals += 1
        return f"{prefix}{self.locals}"

    def last_snapshot(self) -> str | None:
        """The local of the snapshot written last, where no line follows it: a
        sequence that takes it starts the sequence that wrote it."""
        if self.snapped is not None and self.snapped[0] == len(self.lines):
            return self.snapped[1]
        return None

    def snapshot(self) -> str:
        """A local that holds ``h`` as it is now, for a construct that only
        restores from it: the one written last, where no line follows it (a
        rule run in place at the start of a sequence), or a new one."""
        snap = self.last_snapshot()
        if snap is not None:
            return snap
        snap = self.fresh("s")
        self.line(f"{snap} = h")
        self.snapped = (len(self.lines), snap)
        return snap

    def end(self) -> list[str]:
        if self.rule is not None:
            self.line("path = path[1]")
        self.line("return pos")
        self.lines.append(f"    R[{self.index}] = f")
        return self.lines


class _Module:
    """The source of one grammar's module for one start rule and the namespace
    it runs in: the parse module, or, with collect, the collect module."""

    def __init__(self, tables: Tables, runtime: dict, collect: bool = False,
                 start: str | None = None):
        self.bodies = tables.bodies
        self.collect = collect
        # the collect module of a grammar whose values decide no match builds none
        self.valued = not (collect and tables.value_free)
        self.nonlocals = ("h, " if self.valued else "") + (
            "mm, path, nots, quiets" if collect else "mm, mc")
        self.namespace = dict(runtime)
        self.names: dict = {}  # id or value of a namespace object -> its name
        self.regexes: dict[int, object] = {}  # id(ins) -> its regex's match, or None
        self.functions: list[list[str]] = []
        self.helpers = 0
        self.labels = {name: f"  # {name}" if name.isascii() and name.isidentifier()
                       else f"  # rule {i}" for i, name in enumerate(self.bodies)}
        self.breakers = _loop_breakers(tables)
        self.weights = self._weights(tables.references)
        start = tables.grammar.start if start is None else start
        reached, todo = set(), [start]  # the rules that the start rule reaches
        while todo:
            if (name := todo.pop()) not in reached:
                reached.add(name)
                todo += tables.references[name]
        # the rules whose functions generated code calls, by their index in R
        # (the start rule's is R[0]), written in the order of the queue: the
        # loop breakers that the start rule reaches, in grammar order, the
        # start rule, then each rule that a reference calls because its code
        # would not fit the budget, queued as the functions are written
        self.queue = [name for name in self.bodies if name in self.breakers and name in reached]
        if start not in self.breakers:
            self.queue.append(start)
        self.called = {name: i for i, name in enumerate(dict.fromkeys([start, *self.queue]))}
        for name in self.queue:  # grows while it is walked
            code = _Function(self.called[name], self.labels[name], self.nonlocals,
                             name if self.collect else None)
            self.emit(code, self.bodies[name])
            self.functions.append(code.end())

    def _weights(self, references: dict) -> dict[str, int]:
        """The instructions that running each rule but the loop breakers in
        place writes, up to one past the budget, each rule after those it
        references."""
        graph = {name: [n for n in found if n not in self.breakers]
                 for name, found in references.items()}
        weights: dict[str, int] = {}
        for name in r.depth_first(graph)[0]:
            if name not in self.breakers:
                weights[name] = min(self.weight(self.bodies[name], weights), _BUDGET + 1)
        return weights

    def weight(self, ins: tuple, weights: dict) -> int:
        """The instructions that emit writes for ins, where a reference runs
        a rule of weights in place if that rule fits the budget alone, and
        calls any other."""
        op = ins[0]
        if op == REF:
            inner = weights.get(ins[2], _BUDGET)
            return 1 + inner if inner < _BUDGET else 1
        if self.lowers(ins[2] if op == CAPTURE else ins):
            return 1
        if op == SEQ or op == ALT:
            return 1 + sum(self.weight(kid, weights) for kid in ins[2][:-1])
        if op in _NESTING:
            return 1 + self.weight(ins[2], weights)
        return 1

    def source(self) -> str:
        return (_COLLECT if self.collect else _PARSE).format(
            values=_VALUES if self.valued else "", store=_STORE if self.valued else "",
            count=len(self.functions),
            functions="\n\n".join("\n".join(f) for f in self.functions))

    def name(self, obj, prefix: str, key=None) -> str:
        """The namespace name of obj, one per key (obj's identity unless given)."""
        key = id(obj) if key is None else key
        found = self.names.get(key)
        if found is None:
            found = self.names[key] = f"{prefix}{len(self.names)}"
            self.namespace[found] = obj
        return found

    def members(self, chars) -> str:
        """An expression for a set of characters that ``in`` tests."""
        chars = sorted(chars)
        if len(chars) <= _LISTED_AT_MOST:
            return repr("".join(chars))
        return self.name(frozenset(chars), "S", ("S", *chars))

    def lowers(self, ins: tuple) -> bool:
        """Whether ins runs as one regex, read from its source without
        compiling it: never in the collect module, where a regex could not
        report the mismatches inside it."""
        return not self.collect and ins[0] in _LOWERED and ins[-1] is not None

    def regex(self, ins: tuple):
        """The match function of the regex of an instruction that lowers,
        compiled once, or None; None too where ``re`` rejects the source."""
        if not self.lowers(ins):
            return None
        if id(ins) not in self.regexes:
            self.regexes[id(ins)] = _regex(ins)
        return self.regexes[id(ins)]

    # -- instructions ---------------------------------------------------------

    def emit(self, code: _Function, ins: tuple, known: str | None = None) -> bool:
        """Code that matches ins at ``pos``: it leaves ``pos`` past the match,
        or -1 when it fails. known: the next character, where a choice
        branched on it. Returns whether the code can fail."""
        op = ins[0]
        code.size += 1
        if op == REF:
            return self.reference(code, ins[2], known)
        match = self.regex(ins[2] if op == CAPTURE else ins)
        if match is not None:
            if op == OPT or op == REP and not ins[3]:  # matches everywhere
                code.line(f"pos = {self.name(match, 'M')}(text, pos).end()")
                return False
            return self.fragment(code, match, op == CAPTURE)
        if op in _NESTING and code.indent > _SPLIT_AT:
            return self.helper(code, ins)
        if op <= ISTR:
            return self.terminal(code, ins, known)
        if op == SEQ:
            snap = shared = None
            if ins[3] and self.valued:
                # the sequence that took the snapshot this one starts with
                # restores it when this one fails
                shared = code.last_snapshot()
                snap = shared or code.snapshot()
            fails = guarded = last = False
            for kid in ins[2][:-1]:
                if last:  # the children after one that can fail run only if it matched
                    if guarded:
                        code.close()
                    code.open("if pos >= 0:")
                    guarded = True
                last = self.emit(code, kid, known)
                fails, known = fails or last, None
            if guarded:
                code.close()
            if snap and fails and not shared:
                code.line(f"if pos < 0: h = {snap}")
            return fails
        if op == ALT:
            return self.choice(code, ins)
        if op == CHARS:
            return self.scan(code, ins)
        if op == CONS:
            if self.valued:
                self.cons(code, ins[2], ins[3])
            return False
        if op == ACTION:
            if not self.valued:  # a push or a drop
                return False
            code.line("stack._head = h")  # what the action pops, and where it pushes
            code.line(f"if not act(state, {self.name(ins, 'A')}): pos = -1")
            code.line("h = stack._head")
            return True
        if op == REP:
            return self.loop(code, ins)
        if op == OPT:
            tag, start = ins[3] if self.valued else None, self.starts(ins[4])
            if start:
                code.open(f"if {start}:")
            base, entry = code.fresh("b") if tag is not None else None, code.fresh("p")
            if base:
                code.line(f"{base} = h[2]")
            code.line(f"{entry} = pos")
            if self.emit(code, ins[2]):
                code.line(f"if pos < 0: pos = {entry}")
            if base:
                code.line(f"h = listed(h, {base}, {tag!r})")
            if start:
                code.close()
                if tag is not None:
                    code.open("else:")
                    code.line(_push(f"list_value((), {tag!r})"))
                    code.close()
            return False
        if op == CAPTURE:
            if not self.valued:
                return self.emit(code, ins[2], known)
            entry = code.fresh("p")
            code.line(f"{entry} = pos")
            fails = self.emit(code, ins[2], known)
            code.line(("if pos >= 0: " if fails else "") + _push(f"Value('Str', text[{entry}:pos])"))
            return fails
        if op == PRED:
            negate = ins[3]
            snap = code.snapshot() if ins[4] and self.valued else None
            entry = code.fresh("p")
            code.line(f"{entry} = pos")
            if self.collect:
                if negate:
                    code.line("nots += 1")
                self.emit(code, ins[2])
                if negate:
                    code.line("nots -= 1")
            else:  # what a ! body counts is undone
                if negate:
                    code.line(f"{entry}m, {entry}c = mm, mc")
                self.emit(code, ins[2])
                if negate:
                    code.line(f"mm, mc = {entry}m, {entry}c")
            if snap:
                code.line(f"h = {snap}")
            code.line(f"pos = {entry} if pos < 0 else -1" if negate
                      else f"if pos >= 0: pos = {entry}")
            return True
        if op == QUIET:
            if not self.collect:
                return self.emit(code, ins[2], known)
            code.line("quiets += 1")
            fails = self.emit(code, ins[2], known)
            code.line("quiets -= 1")
            return fails
        raise TypeError(f"unknown instruction {ins!r}")

    def cons(self, code: _Function, label: str, arity: int) -> None:
        """Pop arity values and push the node of label over them, bottom to
        top; with fewer values on the stack, ``pop`` raises ``StackUnderflow``
        as ``ValueStack.take`` does."""
        if arity == 1:
            code.line(f"h = (node1({label!r}, h[0]), h[1], h[2]) if h[2] else pop(h, 1)")
        elif arity == 2:
            code.line(f"h = (node2({label!r}, h[1][0], h[0]), h[1][1], h[2] - 1)"
                      " if h[2] >= 2 else pop(h, 2)")
        else:  # pop(h, 0) pops nothing
            values, below = code.fresh("v"), code.fresh("c")
            code.line(f"{values}, {below} = pop(h, {arity})")
            code.line(f"h = (Node({label!r}, {values}), {below}, {below}[2] + 1)")

    def reference(self, code: _Function, name: str, known) -> bool:
        """A rule's code in place, or a call of its function where the rule is
        a loop breaker or its code would take this function past the budget;
        the first call of a rule queues its function."""
        if name not in self.breakers and code.size + self.weights[name] <= _BUDGET:
            if self.collect:
                code.line(f"path = ({name!r}, path)")
            fails = self.emit(code, self.bodies[name], known)
            if self.collect:
                code.line("path = path[1]")
            return fails
        if name not in self.called:
            self.called[name] = len(self.called) + self.helpers
            self.queue.append(name)
        self.call(code, self.called[name], self.labels[name])
        return True

    def call(self, code: _Function, index: int, label: str = "") -> None:
        code.line(f"pos = R[{index}](pos, d + 1){label}")

    def helper(self, code: _Function, ins: tuple) -> bool:
        """Move a deeply nested instruction into a function of its own, which
        shares the budget of the function it leaves."""
        inner = _Function(len(self.called) + self.helpers, "", self.nonlocals)
        self.helpers += 1
        inner.size = code.size - 1  # emit counts ins again
        fails = self.emit(inner, ins)
        code.size = inner.size
        self.functions.append(inner.end())
        self.call(code, inner.index)
        return fails

    def terminal(self, code: _Function, ins: tuple, known) -> bool:
        """A terminal's test; where the next character is known, a one-character
        terminal that takes it only moves."""
        op = ins[0]
        miss = f"miss(pos, {self.name(ins[1], 'T')})" if self.collect else "miss(pos)"
        if op == STR and not ins[2]:
            return False  # the empty string matches everywhere
        if known is not None and (op == CH and ins[2] == known
                                  or op == CLASS and known < "\x80" and ins[2] >> ord(known) & 1):
            code.line("pos += 1")
            return False
        if op == EOI:
            code.line(f"if pos != n: pos = {miss}")
            return True
        if op == STR or op == ISTR:
            width = ins[3]
            test = (f"text.startswith({ins[2]!r}, pos)" if op == STR
                    else f"text[pos:pos + {width}].lower() == {ins[2]!r}")
        else:
            width, test = 1, self.takes(ins)
        code.line(f"pos = pos + {width} if {test} else {miss}")
        return True

    def takes(self, ins: tuple) -> str:
        """The test that a one-character terminal takes the next character."""
        if ins[0] == CH:
            return f"pos < n and text[pos] == {ins[2]!r}"
        mask, extra = ins[2], ins[3]
        members = self.members(chr(o) for o in range(128) if mask >> o & 1)
        if extra is None:
            return f"pos < n and text[pos] in {members}"
        if extra is _always:
            return ("pos < n" if mask == _ASCII
                    else f"pos < n and ((c := text[pos]) in {members} or c >= '\\x80')")
        return (f"pos < n and (c in {members} if (c := text[pos]) < '\\x80'"
                f" else {self.name(extra, 'X')}(c))")

    def fragment(self, code: _Function, match, capture: bool) -> bool:
        """One regex: a failure is one mismatch at no new maximum."""
        m = code.fresh("m")
        if capture:
            code.line(f"{m} = {self.name(match, 'M')}(text, pos)")
            value = f"Value('Str', text[pos:{m}.end()])"
            code.line(f"if {m}: {_push(value)}; pos = {m}.end()")
            code.line("else: pos = fail()")
        else:
            code.line(f"pos = {m}.end() if ({m} := {self.name(match, 'M')}(text, pos)) else fail()")
        return True

    def scan(self, code: _Function, ins: tuple) -> bool:
        """A fused one-character loop, whose one mismatch is where it ends; a
        ``*`` calls its regex only where the terminal takes the next character."""
        term, plus, scan, capture = ins[2], ins[3], ins[4], ins[5]
        if scan is not None:
            guard = "" if plus else f" if {self.takes(term)} else pos"
            code.line(f"at = {self.name(scan, 'M')}(text, pos).end(){guard}")
        else:
            code.line(f"at = scan({self.name(term[2], 'K', ('K', term[2]))}, "
                      f"{self.name(term[3], 'X')}, text, pos)")
        if self.collect:  # below the running maximum, only counted
            code.line(f"if at >= mc or nots: miss(at, {self.name(term[1], 'T')})")
            code.line("else: mm += 1")
        else:
            code.line("mm += 1")
            code.line("if at > mc: mc = at")
        push = _push("Value('Str', text[pos:at])") + "; " if capture and self.valued else ""
        if plus:
            code.line(f"if at > pos: {push}pos = at")
            code.line("else: pos = -1")
            return True
        code.line(f"{push}pos = at")
        return False

    def starts(self, operand) -> str | None:
        """The test that a repetition's or option's body can start at the next
        character, from its dispatch operand; None when the operand is empty.
        The collect module tests only below its running maximum."""
        if not operand:
            return None
        table, other = operand
        if not other:
            test = f"pos < n and text[pos] in {self.members(c for c, b in table.items() if b)}"
        else:
            outside = [c for c, b in table.items() if not b]
            test = f"pos < n and text[pos] not in {self.members(outside)}" if outside else "pos < n"
        return f"pos >= mc or {test}" if self.collect else test

    def one(self, operand) -> str | None:
        """The one character that a repetition's body can start at, where
        the parse module tests it before each iteration; else None."""
        if self.collect or not operand:
            return None
        table, other = operand
        chars = [c for c, b in table.items() if b]
        return chars[0] if not other and len(chars) == 1 else None

    def loop(self, code: _Function, ins: tuple) -> bool:
        inner, plus, tag, touches, operand = ins[2:7]
        if not self.valued:
            tag = touches = None
        start = self.starts(operand)
        snap = code.fresh("s") if touches and not operand else None
        if start:
            code.open(f"if {start}:")
        base = code.fresh("b") if tag is not None else None
        if base:
            code.line(f"{base} = h[2]")
        entry = code.fresh("p")
        code.line(f"{entry} = {-1 if plus else 'pos'}")  # -1: the first iteration may fail the +
        if snap and not plus:
            code.line(f"{snap} = h")
        code.open("while True:")
        self.emit(code, inner, self.one(operand))
        code.open("if pos < 0:")
        if plus:
            code.line(f"if {entry} < 0: break")
        code.line(f"pos = {entry}")
        code.line("break")
        code.close()
        code.open(f"if pos == {entry}:")  # an iteration that matched without moving
        if snap:
            code.line(f"h = {snap}")
        code.line("break")
        code.close()
        if start:
            code.line(f"if not ({start}): break")
        code.line(f"{entry} = pos")
        if snap:
            code.line(f"{snap} = h")
        code.close()
        if base:
            code.line(("if pos >= 0: " if plus else "") + f"h = listed(h, {base}, {tag!r})")
        if start:
            code.close()
            if plus or tag is not None:
                code.open("else:")
                code.line("pos = -1" if plus else _push(f"list_value((), {tag!r})"))
                code.close()
        return plus

    # -- choices --------------------------------------------------------------

    def choice(self, code: _Function, ins: tuple) -> bool:
        kids, touches, operand = ins[2][:-1], ins[3] and self.valued, ins[4]
        if not operand:
            self.alternatives(code, kids, touches)
            return True
        if self.collect:  # one branch per alternative, whichever run
            self.shared(code, kids, operand, touches)
            return True
        by_char, other, end = operand
        keys = {c: bits for c, bits in by_char.items() if bits != other}
        if end != other:
            keys[None] = end  # the end of the input
        groups: dict[int, list] = {}
        for key, bits in keys.items():
            groups.setdefault(bits, []).append(key)
        masks = [*groups, other]
        if any(sum(m >> i & 1 for m in masks) > 1 for i in range(len(kids))):
            self.shared(code, kids, operand, touches)
            return True
        first = True
        if groups:
            code.line("c = text[pos] if pos < n else None")
        for bits in sorted(groups, key=lambda b: (b & -b, b)):
            chars = sorted(groups[bits], key=lambda k: (k is not None, k or ""))
            if len(chars) == 1:
                test = f"c == {chars[0]!r}" if chars[0] is not None else "c is None"
            elif len(chars) <= _LISTED_AT_MOST:
                test = f"c in ({', '.join(map(repr, chars))})"
            else:
                test = f"c in {self.name(frozenset(chars), 'S', ('S', *map(repr, chars)))}"
            code.open(f"{'if' if first else 'elif'} {test}:")
            one = chars[0] if len(chars) == 1 else None  # the next character, known
            self.candidates(code, kids, bits, touches, one)
            code.close()
            first = False
        if first:
            self.candidates(code, kids, other, touches)
        else:
            code.open("else:")
            self.candidates(code, kids, other, touches)
            code.close()
        return True

    def candidates(self, code: _Function, kids: tuple, bits: int, touches: bool,
                   known: str | None = None) -> None:
        """The alternatives in bits: none fails at once, one runs in place."""
        chosen = [kid for i, kid in enumerate(kids) if bits >> i & 1]
        if not chosen:
            code.line("pos = -1")
        elif len(chosen) == 1:
            self.emit(code, chosen[0], known)
        else:
            self.alternatives(code, chosen, touches, known)

    def alternatives(self, code: _Function, kids, touches: bool,
                     known: str | None = None) -> None:
        """Alternatives tried in order from one entry, as a choice's frame does."""
        snap = code.snapshot() if touches else None
        entry = code.fresh("p")
        code.line(f"{entry} = pos")
        for i, kid in enumerate(kids):
            if i:
                code.open("if pos < 0:")
                code.line(f"pos = {entry}")
            fails = self.emit(code, kid, known)
            if snap and fails:
                code.line(f"if pos < 0: h = {snap}")
            if i:
                code.close()

    def shared(self, code: _Function, kids, operand, touches: bool) -> None:
        """A choice whose candidate sets share alternatives: each alternative
        once, run when its bit is in the set of the next character. In the
        collect module every alternative runs at or past the running maximum."""
        by_char, other, end = operand
        snap = code.snapshot() if touches else None
        bits, entry = code.fresh("k"), code.fresh("p")
        table = self.name(by_char, "D")
        lookup = f"{table}.get(text[pos], {other}) if pos < n else {end}"
        if self.collect:
            lookup = f"({lookup}) if pos < mc else {(1 << len(kids)) - 1}"
        code.line(f"{bits} = {lookup}")
        code.line(f"{entry} = pos")
        code.line("pos = -1")
        for i, kid in enumerate(kids):
            code.open(f"if {bits} & {1 << i}:" if i == 0 else f"if pos < 0 and {bits} & {1 << i}:")
            code.line(f"pos = {entry}")
            if self.emit(code, kid) and snap:
                code.line(f"if pos < 0: h = {snap}")
            code.close()


def _components(graph: dict[str, list[str]]) -> list[list[str]]:
    """The strongly connected components of a graph, by Kosaraju's two walks:
    the second, over the reversed edges, takes the nodes latest finished in
    the first walk first."""
    into: dict[str, list[str]] = {v: [] for v in graph}
    for v, successors in graph.items():
        for w in successors:
            into[w].append(v)
    seen: set[str] = set()
    components = []
    for root in reversed(r.depth_first(graph)[0]):
        if root in seen:
            continue
        seen.add(root)
        todo, component = [root], []
        while todo:
            v = todo.pop()
            component.append(v)
            for w in into[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        components.append(component)
    return components


def _loop_breakers(tables: Tables) -> set[str]:
    """The loop breakers, enough rules to break every cycle of references: in
    each strongly connected component of the rules on cycles, the first
    rule in the grammar that the component reaches only past taken input
    (no rule of it references the rule at its own entry; without left
    recursion, every component has one), then the same in each component
    of what is left without it, until no cycle remains."""
    graph = {name: [n for n in found if n not in tables._acyclic]
             for name, found in tables.references.items() if name not in tables._acyclic}
    if not graph:
        return set()
    grammar = tables.grammar
    position = {name: i for i, name in enumerate(tables.references)}
    nullable = r.nullable_rules(grammar)
    entered: dict[str, set] = {}  # the rules each rule may reference at its entry
    for name in graph:
        entered[name] = set()
        r._head_refs(grammar.rules[name].expr, nullable, entered[name])
    breakers: set[str] = set()
    todo = _components(graph)
    while todo:
        component = todo.pop()
        if len(component) == 1 and component[0] not in graph[component[0]]:
            continue  # no cycle
        at_entry = {w for v in component for w in entered[v]}
        guarded = [v for v in component if v not in at_entry] or component
        breaker = min(guarded, key=position.__getitem__)
        breakers.add(breaker)
        rest = set(component) - {breaker}
        todo += _components({v: [w for w in graph[v] if w in rest] for v in rest})
    return breakers


def generate(tables: Tables, runtime: dict, collect: bool = False,
             start: str | None = None) -> tuple:
    """The closure factory of a grammar's module for one start rule, the
    grammar's unless given, and the module's source: ``parse``, or with
    collect ``collect``. runtime names what the source calls that is not a
    grammar object. An unknown start raises ``KeyError``."""
    module = _Module(tables, runtime, collect, start)
    source = module.source()
    exec(_code(source), module.namespace)
    return module.namespace["collect" if collect else "parse"], source
