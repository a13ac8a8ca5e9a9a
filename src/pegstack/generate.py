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

A function keeps its values in one of two forms:

* the register form, where its rule's stack-effect counts are known
  (``Tables.effects``) and it pops nothing. The walk counts the values held
  at each point, ``k``, and keeps value i in the local ``v{i}``: a push is
  ``v{k} = ...``; ``cons(L,2)`` builds the node of ``v{k-2}`` and ``v{k-1}``
  in place, with no call, in the statements of ``values.built`` (which
  allocate the ``Node`` and store its slots into the local ``node``), and
  puts it in ``v{k-2}``; ``cons`` of one child does the same, and of any
  other number calls ``Node``; none tests for underflow; a snapshot and a
  restore write nothing, as a failure leaves the
  values below its entry as they were, but for a sequence that changes one
  below its entry before a child that can fail, and a loop whose body
  without a head may change one and match without moving, which copy it
  first and put it back; a collecting ``*``, ``+`` or ``?`` appends each
  iteration's value to a list local and ends with one ``list_value``. A
  capture keeps the slice it matched as plain text in its local, and a
  ``cons`` of one child over that local builds the leaf of that text, one
  object where a node over its ``Value('Str', ...)`` would be two;
  terminals, scans, predicates and nested sequences may stand between
  them. Every other use boxes the text into its ``Value('Str', ...)``
  first: a ``cons`` of any other arity, handing it back in ``out``, to a
  split function or onto ``h`` for a rule that pops; and so that every
  path through a construct that branches leaves the same locals boxed, a
  choice, loop or option boxes the texts held where it starts, and each
  alternative and body those it leaves, while a predicate's body, which
  reads no value held at its entry, boxes none of those. A
  function hands back its values in the run's local ``out`` (a tuple for
  more than one), which its caller reads into its next locals; a function
  split off for depth (below) takes the values it may change in ``out``
  and hands them back the same way. The start rule's values go onto the
  run's ``ValueStack`` once, when the run has matched;
* the cell form, for any other function: it holds the head cell of the
  run's ``ValueStack``, a ``(value, below, size)`` tuple, in the factory's
  local ``h``. The factory reads it from the stack and writes it back once
  the start rule's function has returned or raised, and each action call
  writes it to the stack before and reads it back after, so that actions
  and the run's result see the stack as the executor would leave it. A
  snapshot is ``s = h`` and a restore ``h = s``; a push builds the cell
  ``(v, h, h[2] + 1)``; ``cons(L,k)`` pops its k children and pushes the
  node in one cell, once it has tested ``h[2] >= k`` (``pop`` raises the
  ``StackUnderflow`` of ``ValueStack.take`` otherwise); a sequence that
  touches the stack snapshots at entry and restores when it fails; a
  choice with a frame snapshots at entry and restores after each
  alternative that fails; one that starts where another snapshot was just
  taken (a rule run in place at the start of a sequence) reads that one,
  and a sequence that reads one leaves the restore to the sequence that
  took it. The values that a function in the register form hands back go
  onto ``h``, and a function in the register form that calls one of a rule
  that pops hands over the values it takes and reads back those it gives
  through ``h``.

In both forms:

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
  capture of one pushes the slice it matched (as text, in the register
  form); whether a fragment lowers is
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
through the module's namespace, so equal grammars give equal source. A
Parser compiles each module it writes once, and keeps only the module's
closure factory, not its source (see ``engine.Parser``). A sequence,
choice, loop or option, the instructions whose code opens blocks, nested
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
writes it on the first such failure. It is written only for a grammar
whose values decide no match (``Tables.value_free``): the error pass of
any other grammar is the exact one, and ``_Module`` refuses to write its
collect module. It differs from the parse module in this:

* it keeps the running maximum ``mc`` from ``bound``, at most ``n``, and
  hands each counted mismatch at or past it to the ``miss`` of the
  state's observer, an ``errors.Collector``, with the rule path and the
  open ``quiet``s;
* each rule's function opens its rule on the path, a cons cell, and
  closes it again, but a rule's code run in place writes no path: the
  walk keeps the rules that a function runs in place at each point, and a
  terminal's or a scan's mismatch site names them as a tuple in the
  namespace, ``miss(pos, T3, P2)``, which ``miss`` conses onto the path
  only for a mismatch it hands to the observer, as parboiled2 builds a
  rule trace only for a mismatch it records. A call of a loop breaker or
  a budget spill puts the caller's rules run in place on the path first
  and takes them off after, and a function split off for depth, which has
  one caller, starts from that caller's rules and puts none on the path;
  ``!`` and ``quiet`` are counters that a mismatch reads;
* a choice, ``*``, ``+`` and ``?`` dispatch only while ``pos < mc``,
  where ``pos < n`` too, so that the dispatch reads the next character
  without testing the end; a choice keeps that character in a local,
  None at or past ``mc``, and runs each alternative in order, until one
  matches, where the local is None or one of the characters that select
  the alternative (``_Module.selects``); so at or past ``mc`` every
  alternative runs;
* nothing lowers to a regex, which cannot report its inner mismatches; a
  fused scan, whose one mismatch is where it ends, stays;
* it counts no steps either, so a generated error pass reports 0 steps;
* it holds no value code: no value stack, snapshot, capture, node, list or
  action; so a sequence of one child and value code is that child's code.
"""

from __future__ import annotations

from . import rules as r
from .instructions import (ACTION, ALT, CAPTURE, CH, CHARS, CLASS, CONS, EOI, ISTR, OPT, PRED,
                           QUIET, REF, REP, SEQ, STR, _ASCII, _LOWERED, Tables, _always,
                           _regex)
from .values import built

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
# instructions whose code nests the code of others, and those of them whose
# code opens blocks
_NESTING = (SEQ, ALT, CAPTURE, REP, OPT, PRED, QUIET)
_BLOCKS = (SEQ, ALT, REP, OPT)


# the parse module: the run's names, the helpers that count mismatches, the
# functions, and the call of the start rule's, R[0]; the functions call each
# other through R, one name for all of them, which keeps compile() linear in
# their number
_PARSE = '''\
def parse(state):
    text = state.input
    n = len(text)
    stack = state.stack
    h = stack._head
    mm = mc = 0
    out = None  # the values that a function in the register form hands back
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
        pos = R[0](0, 0){values}
    finally:
        stack._head = h
        stats = state.stats
        stats.terminal_mismatches, stats.max_cursor = mm, mc
        R.clear()  # the run's closures go now, not in a later collection of cycles
    state.cursor = max(pos, 0)
    return pos >= 0
'''

# the collect module: the same, but for the rule path and the ``!`` and
# ``quiet`` counters, and with no value stack; each mismatch at or past the
# running maximum goes to the state's observer, with the path of the open
# functions' rules and of the rules that its site runs in place
_COLLECT = '''\
def collect(state, bound):
    text = state.input
    n = len(text)

    mm = nots = quiets = 0
    mc = min(bound, n)
    path = ()  # the rules of the open functions, innermost first, as cons cells
    note = state.observer.miss
    R = [None] * {count}

    def miss(at, t, rules=()):  # the mismatch of terminal node t, in the rules run in place
        nonlocal mm, mc
        if nots:
            return -1
        mm += 1
        if at >= mc:
            mc = at
            opened = path
            for name in rules:  # outermost first
                opened = (name, opened)
            note(at, t, opened, quiets)
        return -1

{functions}

    try:
        pos = R[0](0, 0)
    finally:
        R.clear()
    stats = state.stats
    stats.terminal_mismatches, stats.max_cursor = mm, mc
    state.cursor = max(pos, 0)
    return pos >= 0
'''


def _push(value: str) -> str:
    """The statement that pushes the value an expression gives onto ``h``."""
    return f"h = ({value}, h, h[2] + 1)"


def _pushes(count: int) -> str:
    """The statements that push onto ``h`` the count values that a function
    in the register form handed back in ``out``."""
    if count == 1:
        return _push("out")
    return "; ".join(_push(f"out[{i}]") for i in range(count))


def _slots(low: int, high: int) -> str:
    """The locals of the register form that hold the values low to high."""
    return ", ".join(f"v{i}" for i in range(low, high))


class _Function:
    """The lines of one generated function, which may hold ``_BUDGET``
    instructions, in the register form where depth, the values it starts
    with, is given. A rule's function in the collect module opens its rule
    on the path and closes it on return; static names the rules that the
    code runs in place, outermost first, which the code does not put on the
    path (a function split off for depth starts from its caller's)."""

    def __init__(self, index: int, label: str, names: str, rule: str | None = None,
                 depth: int | None = None, static: tuple[str, ...] = ()):
        self.index = index
        self.lines = [f"    def f(pos, d):{label}", f"        nonlocal {names}",
                      f"        if d > {DEPTH_BOUND}: raise TooDeep"]
        self.indent = 2
        self.locals = 0
        self.size = 0  # instructions written so far
        self.snapped: tuple[int, str] | None = None  # the last snapshot and the line count after it
        self.opened: list[int] = []  # the line count where each open block starts
        self.rule = rule
        # the register form: the values the code holds, in v0 to v{k-1}, and
        # the fewest it has held since the innermost open sequence began (a
        # value below those is as it was there); None in the cell form
        self.k = self.low = depth
        # the register form: the locals that hold a capture's text, not yet
        # boxed as its Value('Str', text), and the depth below which no code
        # reads a value (a predicate's entry, inside its body)
        self.texts: set[int] = set()
        self.floor = 0
        self.static = list(static)
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

    def push(self, value: str, text: bool = False) -> str:
        """The statement that pushes the value an expression gives, or with
        text the ``Value('Str', ...)`` of the text it gives: onto ``h``, or
        in the register form into the next local, where text stays unboxed."""
        if self.k is None:
            return _push(f"Value('Str', {value})" if text else value)
        (self.texts.add if text else self.texts.discard)(self.k)
        self.k += 1
        return f"v{self.k - 1} = {value}"

    def reads(self, low: int, high: int) -> str:
        """The values low to high for code that takes them: a local that
        holds a text gives its ``Value('Str', ...)``, and is read no more."""
        held = [f"Value('Str', v{i})" if i in self.texts else f"v{i}" for i in range(low, high)]
        self.texts.difference_update(range(low, high))
        return ", ".join(held)

    def box(self, high: int | None, guard: bool) -> None:
        """Box the texts held from the floor up to high, where a construct
        that branches starts or a branch ends, so that every path leaves the
        same locals boxed; those at high and above are dead. With guard, the
        boxes wait for a match: a failed branch may not have written them.
        The cell form holds no text."""
        if not self.texts:
            return
        boxed = sorted(i for i in self.texts if self.floor <= i < high)
        self.texts = {i for i in self.texts if i < self.floor}
        if boxed:
            self.line(("if pos >= 0: " if guard else "")
                      + "; ".join(f"v{i} = Value('Str', v{i})" for i in boxed))

    def insert(self, at: int, text: str) -> None:
        """A line at line count at, where every block opened since has been
        closed, at the indentation of the code there."""
        self.lines.insert(at, "    " * self.indent + text)

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
        if collect and not tables.value_free:
            raise ValueError("a collect module is written only for a grammar whose values"
                             " decide no match")
        self.bodies = tables.bodies
        self.effects = tables.effects
        self.collect = collect
        self.nonlocals = "mm, path, nots, quiets" if collect else "h, mm, mc, out"
        self.namespace = dict(runtime)
        self.names: dict = {}  # id or value of a namespace object -> its name
        self.regexes: dict[int, object] = {}  # id(ins) -> its regex's match, or None
        self.nets: dict[int, int] = {}  # id(ins) of a sequence or choice -> net, in the register form
        self.functions: list[list[str]] = []
        self.registers = 0  # the functions written in the register form
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
                             name if self.collect else None, 0 if self.register(name) else None)
            fails = self.emit(code, self.bodies[name])
            if code.k:  # what the register form hands back
                code.line(("if pos >= 0: " if fails else "") + f"out = {code.reads(0, code.k)}")
            self.registers += code.k is not None
            self.functions.append(code.end())
        self.values = ""  # the start rule's values, handed back in the register form
        if self.register(start) and self.effects[start][1]:
            self.values = f"\n        if pos >= 0: {_pushes(self.effects[start][1])}"

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

    def register(self, name: str) -> bool:
        """Whether the function of a rule takes the register form: in the
        parse module, where the rule's counts are known and it pops nothing."""
        counts = self.effects[name]
        return not self.collect and counts is not None and not counts[0]

    def source(self) -> str:
        return (_COLLECT if self.collect else _PARSE).format(
            count=len(self.functions), values=self.values,
            functions="\n\n".join("\n".join(f) for f in self.functions))

    def name(self, obj, prefix: str, key=None) -> str:
        """The namespace name of obj, one per key (obj's identity unless given)."""
        key = id(obj) if key is None else key
        found = self.names.get(key)
        if found is None:
            found = self.names[key] = f"{prefix}{len(self.names)}"
            self.namespace[found] = obj
        return found

    def missed(self, code: _Function, node) -> str:
        """The arguments of the collect module's ``miss`` that name a
        terminal node and the rules that the code runs in place around it."""
        if not code.static:
            return self.name(node, "T")
        return f"{self.name(node, 'T')}, {self.name(tuple(code.static), 'P', ('P', *code.static))}"

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
        if self.collect and op == SEQ:  # a sequence of one child but for value code
            kids = [kid for kid in ins[2][:-1] if kid[0] != CONS and kid[0] != ACTION]
            if len(kids) == 1:
                return self.emit(code, kids[0], known)
        if op in _BLOCKS and code.indent > _SPLIT_AT:
            return self.helper(code, ins)
        if op <= ISTR:
            return self.terminal(code, ins, known)
        if op == SEQ:
            snap = shared = None
            if ins[3] and code.k is None and not self.collect:
                # the sequence that took the snapshot this one starts with
                # restores it when this one fails
                shared = code.last_snapshot()
                snap = shared or code.snapshot()
            # the register form: the lowest value that a child which fails
            # may find changed since the entry, which a failure restores
            entry, outer, at = code.k, code.low, len(code.lines)
            lost = code.low = entry
            fails = guarded = last = False
            for kid in ins[2][:-1]:
                if last:  # the children after one that can fail run only if it matched
                    if guarded:
                        code.close()
                    code.open("if pos >= 0:")
                    guarded = True
                low = code.low
                last = self.emit(code, kid, known)
                if last and entry is not None and low < lost:
                    lost = low
                fails, known = fails or last, None
            if guarded:
                code.close()
            if snap and fails and not shared:
                code.line(f"if pos < 0: h = {snap}")
            if entry is not None:
                if lost < entry:
                    kept = code.fresh("t")
                    code.insert(at, f"{kept} = {_slots(lost, entry)}")
                    code.line(f"if pos < 0: {_slots(lost, entry)} = {kept}")
                code.low = min(outer, code.low)
            return fails
        if op == ALT:
            return self.choice(code, ins)
        if op == CHARS:
            return self.scan(code, ins)
        if op == CONS:
            if not self.collect:
                self.cons(code, ins[2], ins[3])
            return False
        if op == ACTION:
            if self.collect:  # a push or a drop
                return False
            if code.k is not None:  # a push or a drop: no other action has counts
                if type(ins[1]) is r.Drop:
                    code.k -= ins[3]
                    code.low = min(code.low, code.k)
                elif (value := ins[2]()) is not None:  # a push of no unit
                    code.line(code.push(self.name(value, "P")))
                return False
            code.line("stack._head = h")  # what the action pops, and where it pushes
            code.line(f"if not act(state, {self.name(ins, 'A')}): pos = -1")
            code.line("h = stack._head")
            return True
        if op == REP:
            return self.loop(code, ins)
        if op == OPT:
            tag, start, k = None if self.collect else ins[3], self.starts(ins[4]), code.k
            code.box(k, False)
            if start:
                code.open(f"if {start}:")
            base = code.fresh("b") if tag is not None and k is None else None
            entry = code.fresh("p")
            if base:
                code.line(f"{base} = h[2]")
            code.line(f"{entry} = pos")
            fails = self.emit(code, ins[2])
            code.box(code.k, fails)
            if tag is not None and k is not None:  # the value the body pushed, if it matched
                one = f"v{k} = list_value((v{k},), {tag!r})"
                if fails:
                    code.line(f"if pos < 0: pos = {entry}; v{k} = list_value((), {tag!r})")
                    one = "else: " + one
                code.line(one)
            elif fails:
                code.line(f"if pos < 0: pos = {entry}")
            if base:
                code.line(f"h = listed(h, {base}, {tag!r})")
            if start:
                code.close()
                if tag is not None:
                    code.open("else:")
                    code.k = k
                    code.line(code.push(f"list_value((), {tag!r})"))
                    code.close()
            return False
        if op == CAPTURE:
            if self.collect:
                return self.emit(code, ins[2], known)
            entry = code.fresh("p")
            code.line(f"{entry} = pos")
            fails = self.emit(code, ins[2], known)
            code.line(("if pos >= 0: " if fails else "") + code.push(f"text[{entry}:pos]", True))
            return fails
        if op == PRED:
            negate, k = ins[3], code.k
            # the register form: the body pops nothing, and what it pushes
            # is above the values held
            snap = code.snapshot() if ins[4] and k is None and not self.collect else None
            floor = code.floor
            if k is not None:  # the body reads no value held at its entry
                code.floor = k
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
            if k is not None:  # what the body pushed is gone
                code.texts = {i for i in code.texts if i < k}
            code.k, code.floor = k, floor
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
        as ``ValueStack.take`` does. The register form has them in locals."""
        k = code.k
        if k is not None:
            low = k - arity
            if arity == 1 and low in code.texts:  # a captured text: the leaf is one object
                code.texts.discard(low)
                code.line(built("node", label, f"v{low}", text=True) + f"; v{low} = node")
            elif arity == 1 or arity == 2:
                kids = [code.reads(i, i + 1) for i in range(low, k)]
                code.line(built("node", label, *kids) + f"; v{low} = node")
            else:
                code.line(f"v{low} = Node({label!r}, ({code.reads(low, k)}))")
            code.k, code.low = low + 1, min(code.low, low)
        elif arity == 1:
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
            code.static.append(name)
            fails = self.emit(code, self.bodies[name], known)
            code.static.pop()
            return fails
        if name not in self.called:
            self.called[name] = len(self.called) + self.helpers
            self.queue.append(name)
        k, register, counts = code.k, self.register(name), self.effects[name]
        if self.collect and code.static:  # the rules run in place go on the path for the call
            below, opened = code.fresh("q"), "path"
            for rule in code.static:
                opened = f"({rule!r}, {opened})"
            code.line(f"{below} = path; path = {opened}")
            self.call(code, self.called[name], self.labels[name])
            code.line(f"path = {below}")
            return True
        if k is None:  # what a function in the register form hands back goes onto h
            self.call(code, self.called[name], self.labels[name])
            if register and counts[1]:
                code.line(f"if pos >= 0: {_pushes(counts[1])}")
            return True
        pops, pushes = counts  # known: the rule of this function reaches the rule
        low = k - pops
        if register:  # into the next locals; a value above k is dead if the call failed
            self.call(code, self.called[name], self.labels[name])
            if pushes:
                code.line(("if pos >= 0: " if pushes > 1 else "") + f"{_slots(k, k + pushes)} = out")
                code.texts.difference_update(range(k, k + pushes))
        else:  # a rule that pops: the values it takes and gives go through h
            below = code.fresh("c")
            code.line(f"{below} = h; " + "; ".join(_push(code.reads(i, i + 1)) for i in range(low, k)))
            self.call(code, self.called[name], self.labels[name])
            if pushes:
                code.texts.difference_update(range(low, low + pushes))
                taken = "h[0]" if pushes == 1 else f"pop(h, {pushes})[0]"
                code.line(f"if pos >= 0: {_slots(low, low + pushes)} = {taken}")
            code.line(f"h = {below}")
        code.k, code.low = low + pushes, min(code.low, low)
        return True

    def call(self, code: _Function, index: int, label: str = "") -> None:
        code.line(f"pos = R[{index}](pos, d + 1){label}")

    def helper(self, code: _Function, ins: tuple) -> bool:
        """Move a deeply nested instruction into a function of its own, which
        shares the budget of the function it leaves. In the register form the
        values that its code changes go in and out through ``out``: those
        below the entry that it may change and the ones it leaves above."""
        k = code.k
        inner = _Function(len(self.called) + self.helpers, "", self.nonlocals, depth=k,
                          static=code.static)
        self.helpers += 1
        inner.size = code.size - 1  # emit counts ins again
        fails = self.emit(inner, ins)
        code.size = inner.size
        if k is None:
            self.functions.append(inner.end())
            self.call(code, inner.index)
            return fails
        self.registers += 1
        low, high = inner.low, inner.k
        if low < k:
            inner.insert(3, f"{_slots(low, k)} = out")
            code.line(f"out = {code.reads(low, k)}")
        if low < high:
            inner.line(("if pos >= 0: " if fails else "") + f"out = {inner.reads(low, high)}")
        self.functions.append(inner.end())
        self.call(code, inner.index)
        if low < high:
            # after a failure out may hold what a function that the split one
            # called handed back, so the read waits for a match where it would
            # change a value below k or unpack a tuple
            guard = fails and (low < k or high - low > 1)
            code.line(("if pos >= 0: " if guard else "") + f"{_slots(low, high)} = out")
            code.texts.difference_update(range(low, high))
        code.k, code.low = high, min(code.low, low)
        return fails

    def terminal(self, code: _Function, ins: tuple, known) -> bool:
        """A terminal's test; where the next character is known, a one-character
        terminal that takes it only moves."""
        op = ins[0]
        miss = f"miss(pos, {self.missed(code, ins[1])})" if self.collect else "miss(pos)"
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
            code.line(f"if {m}: {code.push(f'text[pos:{m}.end()]', True)}; pos = {m}.end()")
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
            code.line(f"if at >= mc or nots: miss(at, {self.missed(code, term[1])})")
            code.line("else: mm += 1")
        else:
            code.line("mm += 1")
            code.line("if at > mc: mc = at")
        push = code.push("text[pos:at]", True) + "; " if capture and not self.collect else ""
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
            test = f"text[pos] in {self.members(c for c, b in table.items() if b)}"
        else:
            outside = [c for c, b in table.items() if not b]
            test = f"text[pos] not in {self.members(outside)}" if outside else ""
        if self.collect:  # below the running maximum, which is at most n, pos < n
            return f"pos >= mc or {test}" if test else None
        return f"pos < n and {test}" if test else "pos < n"

    def one(self, operand) -> str | None:
        """The one character that a repetition's body can start at, where
        the parse module tests it before each iteration; else None."""
        if self.collect or not operand:
            return None
        table, other = operand
        chars = [c for c, b in table.items() if b]
        return chars[0] if not other and len(chars) == 1 else None

    def loop(self, code: _Function, ins: tuple) -> bool:
        """A repetition. Its values go onto ``h`` and are listed from base on
        at the end, or in the register form into the list local base, one
        for each iteration that moved."""
        inner, plus, tag, touches, operand = ins[2:7]
        if self.collect:
            tag = touches = None
        k, outer = code.k, code.low
        code.box(k, False)
        start = self.starts(operand)
        snap = code.fresh("s") if touches and not operand and k is None else None
        if start:
            code.open(f"if {start}:")
        base = code.fresh("b" if k is None else "l") if tag is not None else None
        if base:
            code.line(f"{base} = h[2]" if k is None else f"{base} = []")
        entry = code.fresh("p")
        code.line(f"{entry} = {-1 if plus else 'pos'}")  # -1: the first iteration may fail the +
        if snap and not plus:
            code.line(f"{snap} = h")
        code.open("while True:")
        at = len(code.lines)
        code.low = k
        fails = self.emit(code, inner, self.one(operand))
        code.box(code.k, fails)
        # the register form: a body without a head may pop values and match
        # without moving, which the loop undoes
        kept = code.fresh("t") if k is not None and code.low < k and not operand else None
        if kept:
            code.insert(at, f"{kept} = {_slots(code.low, k)}")
        code.open("if pos < 0:")
        if plus:
            code.line(f"if {entry} < 0: break")
        code.line(f"pos = {entry}")
        code.line("break")
        code.close()
        code.open(f"if pos == {entry}:")  # an iteration that matched without moving
        if snap:
            code.line(f"h = {snap}")
        if kept:
            code.line(f"{_slots(code.low, k)} = {kept}")
        code.line("break")
        code.close()
        if base and k is not None:
            code.line(f"{base}.append(v{k})")
        if start:
            code.line(f"if not ({start}): break")
        code.line(f"{entry} = pos")
        if snap:
            code.line(f"{snap} = h")
        code.close()
        if k is not None:
            code.k, code.low = k, min(outer, code.low)
        if base:
            code.line(("if pos >= 0: " if plus else "")
                      + (f"h = listed(h, {base}, {tag!r})" if k is None
                         else code.push(f"list_value({base}, {tag!r})")))
        if start:
            code.close()
            if plus or tag is not None:
                code.open("else:")
                if plus:
                    code.line("pos = -1")
                else:
                    code.k = k
                    code.line(code.push(f"list_value((), {tag!r})"))
                code.close()
        return plus

    # -- choices --------------------------------------------------------------

    def choice(self, code: _Function, ins: tuple) -> bool:
        """A choice. In the register form each alternative starts from the
        values held at the entry and, where it matches, leaves as many."""
        kids, operand, k = ins[2][:-1], ins[4], code.k
        touches = ins[3] and k is None and not self.collect
        code.box(k, False)
        self.choose(code, kids, operand, touches)
        if k is not None:
            code.k = k + self.net(kids[0])
        return True

    def net(self, ins: tuple) -> int:
        """The values that ins leaves where it matches, less those it takes,
        in the register form, where every rule that ins reaches has counts."""
        op = ins[0]
        if op == SEQ or op == ALT:
            if id(ins) not in self.nets:
                self.nets[id(ins)] = (sum(map(self.net, ins[2][:-1])) if op == SEQ
                                      else self.net(ins[2][0]))
            return self.nets[id(ins)]
        if op == REF:
            pops, pushes = self.effects[ins[2]]
            return pushes - pops
        if op == CAPTURE or op == QUIET:
            return (op == CAPTURE) + self.net(ins[2])
        if op == ACTION:  # a push or a drop
            return -ins[3] if type(ins[1]) is r.Drop else int(ins[2]() is not None)
        if op == CONS:
            return 1 - ins[3]
        if op == CHARS:
            return int(ins[5])
        if op == REP or op == OPT:  # a collecting one leaves one list
            return int(ins[4 if op == REP else 3] is not None)
        return 0  # a terminal or a predicate

    def branch(self, code: _Function, ins: tuple, known: str | None = None) -> bool:
        """One alternative of a choice, which boxes the texts it leaves."""
        fails = self.emit(code, ins, known)
        code.box(code.k, fails)
        return fails

    def choose(self, code: _Function, kids, operand, touches: bool) -> None:
        """The branches of a choice: in order, through the bits of the next
        character's set, or an ``if`` chain on the next character."""
        if not operand:
            self.alternatives(code, kids, touches)
            return
        if self.collect:  # one branch per alternative, whichever run
            self.shared(code, kids, operand, touches)
            return
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
            return
        k, first = code.k, True
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
            code.k, first = k, False
        if first:
            self.candidates(code, kids, other, touches)
        else:
            code.open("else:")
            self.candidates(code, kids, other, touches)
            code.close()

    def candidates(self, code: _Function, kids: tuple, bits: int, touches: bool,
                   known: str | None = None) -> None:
        """The alternatives in bits: none fails at once, one runs in place."""
        chosen = [kid for i, kid in enumerate(kids) if bits >> i & 1]
        if not chosen:
            code.line("pos = -1")
        elif len(chosen) == 1:
            self.branch(code, chosen[0], known)
        else:
            self.alternatives(code, chosen, touches, known)

    def alternatives(self, code: _Function, kids, touches: bool,
                     known: str | None = None) -> None:
        """Alternatives tried in order from one entry, as a choice's frame does."""
        snap = code.snapshot() if touches else None
        entry, k = code.fresh("p"), code.k
        code.line(f"{entry} = pos")
        for i, kid in enumerate(kids):
            if i:
                code.open("if pos < 0:")
                code.line(f"pos = {entry}")
            code.k = k
            fails = self.branch(code, kid, known)
            if snap and fails:
                code.line(f"if pos < 0: h = {snap}")
            if i:
                code.close()

    def shared(self, code: _Function, kids, operand, touches: bool) -> None:
        """A choice whose candidate sets share alternatives: each alternative
        once, run when its bit is in the set of the next character. In the
        collect module each alternative runs where the next character is one
        of those that select it, and every alternative at or past the
        running maximum, where the character is None."""
        by_char, other, end = operand
        snap = code.snapshot() if touches else None
        bits, entry = code.fresh("c" if self.collect else "k"), code.fresh("p")
        if self.collect:  # below the running maximum, which is at most n, pos < n
            code.line(f"{bits} = text[pos] if pos < mc else None")
        else:
            code.line(f"{bits} = {self.name(by_char, 'D')}.get(text[pos], {other})"
                      f" if pos < n else {end}")
        code.line(f"{entry} = pos")
        code.line("pos = -1")
        k = code.k
        selects = self.selects(bits, by_char, other, len(kids)) if self.collect else None
        for i, kid in enumerate(kids):
            test = selects[i] if selects else (
                # a mask literal up to 20 digits; past bit 63, a shift keeps the source linear
                f"{bits} & {1 << i}" if i < 64 else f"{bits} >> {i} & 1")
            guard = "" if i == 0 else "pos < 0 and " if test else "pos < 0"
            if guard or test:  # no block where every character selects the first
                code.open(f"if {guard}{test or ''}:")
            code.line(f"pos = {entry}")
            code.k = k
            if self.branch(code, kid) and snap:
                code.line(f"if pos < 0: h = {snap}")
            if guard or test:
                code.close()

    def selects(self, char: str, by_char: dict, other: int, count: int) -> list[str | None]:
        """For each of count alternatives, the test that the next character,
        in the local char, or None at or past the running maximum, selects
        it; None where every character does."""
        chosen: list[list[str]] = [[] for _ in range(count)]  # the characters of each bit
        for c, bits in by_char.items():
            while bits:
                low = bits & -bits
                chosen[low.bit_length() - 1].append(c)
                bits ^= low
        tests: list[str | None] = []
        for i, chars in enumerate(chosen):
            test = "in"
            if other >> i & 1:  # the characters outside by_char select it too
                chars, test = sorted(by_char.keys() - set(chars)), "not in"
                if not chars:
                    tests.append(None)
                    continue
            elif not chars:
                tests.append(f"{char} is None")
                continue
            if len(chars) == 1:
                test = "==" if test == "in" else "!="
                tests.append(f"({char} is None or {char} {test} {chars[0]!r})")
            else:
                tests.append(f"({char} is None or {char} {test} {self.members(chars)})")
        return tests


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


def generate(tables: Tables, runtime: dict, collect: bool = False, start: str | None = None):
    """The closure factory of a grammar's module for one start rule, the
    grammar's unless given: ``parse``, or with collect ``collect``. runtime
    names what the source calls that is not a grammar object. An unknown
    start raises ``KeyError``, and a collect module for a grammar that is
    not ``value_free`` raises ``ValueError``."""
    module = _Module(tables, runtime, collect, start)
    exec(compile(module.source(), "<pegstack grammar>", "exec"), module.namespace)
    return module.namespace["collect" if collect else "parse"]
