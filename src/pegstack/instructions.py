"""Rule trees compiled into the instruction tables the engine executes.

A node becomes a tuple (opcode, node, operands...) that carries its static
facts: whether it touches the value stack, the element tag of a collecting
repetition, literal lengths. Rule references stay symbolic, except to
acyclic rules in the fast table; the executor looks each one up in the
table it runs. Every rule body is compiled into both tables when the
grammar's Parser is built. One walk of each rule body first gives the
rule's references, whether its own nodes touch the stack and whether it
holds an action other than a ``cons``; a least fixpoint over the rules
then gives which rules touch it, and compiling a node takes its own flag
from its children's. A grammar with no such action, only ``cons``, push
and drop, is ``value_free``: its values decide no match, so the error pass
may leave them out.

A terminal compiles to one of five opcodes, and its other facts (its
head, its regex source, whether a repetition of it is one fused scan) are
read from the instruction's operands, not from the node type. A CLASS is
an ASCII mask and a function for the other characters: a character
predicate, a none-of set (its mask complemented, its function negated or
``_always``) and "." (every ASCII bit and ``_always``); bits at or above
128 name no member and are cut. An ignore-case terminal is an ISTR, also
for one character. Push, drop and other actions are one ACTION, which
carries its function and arity; a ``cons`` is a CONS, built in place.

* EXACT: every run whose step and mismatch counters must be exact
  (``match``, ``match_rule``, ``run_phase``, the error pass) and every
  observed run. A repetition of one single-character terminal is
  one fused scan, a sequence with a terminal head tests it before opening a
  frame, and a predicate over a terminal resolves in place; an observed run
  logs the steps these shortcuts stand for. Each instruction ends with the
  node's regex source, None when it has none. A choice, repetition or
  option carries a dispatch operand, filled once every head is known:
  which of its alternatives, or whether its body, can start at each next
  character. The error pass dispatches through it below its running
  maximum.
* FAST: ``Parser.run`` when it is not observed. It is the exact table with
  every maximal subtree that touches no stack, runs no action and reaches
  no reference cycle replaced by one ``re`` match (an RE instruction); a
  Capture of such a subtree pushes the matched slice. Atomic groups and
  possessive quantifiers (Python 3.11) give the regex PEG semantics:
  ``e1 e2`` is concatenation, ``/`` is ``(?>a|b)``, ``*`` ``+`` ``?`` are
  ``*+`` ``++`` ``?+``, ``&e`` is ``(?=e)``, ``!e`` is ``(?!e)``, ``.`` is
  ``.`` under DOTALL, EOI is ``\\Z``, and a reference to a rule off every
  cycle is inlined. Ignore-case terminals (``str.lower`` and
  ``re.IGNORECASE`` disagree, e.g. on "ſ"), predicates decided by an
  ``extra`` function, a source longer than ``_MAX_SOURCE`` and a fragment
  that ``re`` rejects stay instructions; a lone terminal and a fused scan
  gain nothing and stay too. A reference
  to a rule off every cycle becomes that rule's fast body, shared. The
  run dispatches through every filled operand: a choice keeps its exact
  operand's candidates, rebuilt over its fast children, and a ``*``,
  ``+`` or ``?`` keeps its operand as it is. Each instruction whose first
  action is a terminal test has a head, the characters it can start
  with; a reference has its rule's head, and those of the rules on
  cycles are one least fixpoint over the rules, so json's ``Value``
  offers its recursive ``Object`` only at ``{``. In ``calc.peg`` nothing
  lowers, but every loop and every choice dispatches.
"""

from __future__ import annotations

import re

from . import rules as r
from .effects import ConsFn, EffectError, infer_effect, repetition_shape

# opcodes: terminals first, so "op <= ISTR" tells a terminal (a CLASS also
# stands for "." and a none-of set); an ACTION also stands for push and
# drop; RE occurs in the fast table only; a frame is tagged with the opcode
# of the node that opened it, or with RULE
OPS = (CH, CLASS, STR, EOI, ISTR, SEQ, ALT, REF, CHARS, ACTION, CONS, CAPTURE, REP, OPT,
       PRED, QUIET, RE) = range(17)
RULE = 17
# compiled tables: exact and observed runs, unobserved Parser.run
EXACT, FAST = 0, 1
# instructions worth one regex; a lone terminal, a fused scan and a bare
# rule reference already run as one instruction
_LOWERED = (SEQ, ALT, REP, OPT, PRED)
_ASCII = (1 << 128) - 1
# longest regex source a node keeps: inlining each acyclic rule's source
# into every reference to it can double the source per rule
_MAX_SOURCE = 10_000
_WRAPPERS = (r.Optional, r.ZeroOrMore, r.OneOrMore, r.Capture, r.Quiet)


def _always(c: str) -> bool:
    """Membership above ASCII of "." and of a none-of set without ``extra``."""
    return True


def _nothing(*values) -> None:
    """The function of a drop: it takes its values and pushes nothing."""


def _class_char(o: int) -> str:
    c = chr(o)
    return c if c.isalnum() else f"\\x{o:02x}"


def _char_class(mask: int, negate: bool) -> str:
    """Regex for one character of an ASCII set, written as ranges."""
    spans = []
    while mask:
        lo = (mask & -mask).bit_length() - 1  # the lowest member
        run = mask >> lo
        n = (run ^ (run + 1)).bit_length() - 1  # members from lo up without a gap
        hi = lo + n - 1
        spans.append(_class_char(lo) if lo == hi else f"{_class_char(lo)}-{_class_char(hi)}")
        mask &= ~(((1 << n) - 1) << lo)
    if not spans:
        return "." if negate else "(?!)"
    return ("[^" if negate else "[") + "".join(spans) + "]"


def _terminal_source(ins: tuple) -> str | None:
    """Regex (under re.DOTALL) for a terminal instruction; None for an ISTR,
    where str.lower and re.IGNORECASE differ, and for a CLASS whose function
    decides non-ASCII characters in Python."""
    op = ins[0]
    if op == CH or op == STR:
        return re.escape(ins[2])
    if op == EOI:
        return r"\Z"  # "$" would also match before a final newline
    if op == CLASS:
        if ins[3] is None:
            return _char_class(ins[2], False)
        if ins[3] is _always:  # every character but the ASCII non-members
            return _char_class(~ins[2] & _ASCII, True)
    return None


def _regex(ins: tuple):
    """Match function of an exact instruction's regex source, or None where
    one regex gains nothing or ``re`` rejects the source."""
    source = ins[-1]
    if source is None or ins[0] not in _LOWERED:
        return None
    try:
        return re.compile(source, re.DOTALL).match
    except (re.error, RecursionError, OverflowError):
        return None


def _terminal_head(ins: tuple) -> tuple | None:
    """Head of a terminal instruction: (ASCII mask, other characters, wide),
    where wide means that it may also take characters at or above 128 that
    are not listed; None when it can match without taking a character, or
    when ignore case makes its first character unknown."""
    op = ins[0]
    if op == CH or op == STR and ins[2]:
        c = ins[2][0]
        o = ord(c)
        return (1 << o, (), False) if o < 128 else (0, (c,), False)
    if op == CLASS:
        return ins[2], (), ins[3] is not None
    return None


def _by_char(heads: list) -> tuple[dict[str, int], int, int]:
    """Bit sets of the heads each character can start, where bit i stands
    for heads[i] and a None head starts anywhere, end of input included: by
    listed character, for any other character, and at end of input. Under a
    wide head every ASCII character is listed, so the others are above 127."""
    table: dict[str, int] = {}
    always = wide = 0
    for i, head in enumerate(heads):
        if head is None:
            always |= 1 << i
            continue
        mask, chars, w = head
        wide |= w << i
        for c in chars:
            table[c] = table.get(c, 0) | 1 << i
        while mask:
            low = mask & -mask
            c = chr(low.bit_length() - 1)
            table[c] = table.get(c, 0) | 1 << i
            mask ^= low
    if wide:
        for o in range(128):
            table.setdefault(chr(o), 0)
    for c, bits in table.items():
        table[c] = bits | always | (wide if ord(c) >= 128 else 0)
    return table, always | wide, always


def _switch(kids: tuple, bits: tuple) -> tuple[dict[str, tuple], tuple, tuple]:
    """The alternatives of a choice that can start at each character, in
    order, each tuple ending with None, from the ``_by_char`` bit sets of
    their heads: by listed character, for any other character, and at end
    of input."""
    table, other, end = bits
    tuples: dict[int, tuple] = {}

    def candidates(bits: int) -> tuple:
        found = tuples.get(bits)
        if found is None:
            found = tuples[bits] = tuple(k for i, k in enumerate(kids) if bits >> i & 1) + (None,)
        return found

    return {c: candidates(bits) for c, bits in table.items()}, candidates(other), candidates(end)


def _facts(expr: r.RuleExpr) -> tuple[set, set, bool, bool]:
    """Facts of a rule body, from one walk: the rules it references, those
    it references outside predicates, whether one of its own nodes outside
    predicates pushes or pops (predicates restore the stack), and whether
    one of them, inside a predicate or not, is an action other than a
    ``cons``, whose values may decide a match."""
    refs, calls, touches, acts = set(), set(), False, False
    todo, inside = [expr], []  # nodes to visit: outside every predicate, inside one
    while todo or inside:
        counts = bool(todo)  # outside: the node's pushes, pops and calls count
        into = todo if counts else inside
        node = into.pop()
        t = type(node)
        if t is r.RuleRef:
            (calls if counts else refs).add(node.name)
        elif t is r.Sequence:
            into.extend(node.children)
        elif t is r.FirstOf:
            into.extend(node.alternatives)
        elif t is r.AndPredicate or t is r.NotPredicate:
            inside.append(node.inner)
        elif t in _WRAPPERS:
            touches = touches or counts and t is r.Capture
            into.append(node.inner)
        elif t is r.Push or t is r.Drop or t is r.Action:
            touches = touches or counts
            acts = acts or t is r.Action and type(node.fn) is not ConsFn
    return refs | calls, calls, touches, acts


class Tables:
    """The compiled rule bodies of one grammar, by table, and the facts about
    the grammar they rest on; reusable across runs and threads."""

    def __init__(self, grammar: r.Grammar):
        self.grammar = grammar
        self._effects: dict | None = {}  # infer_effect's memo while the rules compile
        exprs = {name: rd.expr for name, rd in grammar.rules.items()}
        facts = {name: _facts(expr) for name, expr in exprs.items()}
        # no action but cons, push and drop: values decide no match, so an
        # error pass given a bound may leave them out (see engine)
        self.value_free = not any(f[3] for f in facts.values())
        # least fixpoint over the rules: a rule touches the stack when one of
        # its nodes pushes or pops, or when it calls a rule that does
        touches = self._rule_touches = {name: f[2] for name, f in facts.items()}
        changed = True
        while changed:
            changed = False
            for name, (_, calls, _, _) in facts.items():
                if not touches[name] and any(touches.get(n, True) for n in calls):
                    touches[name] = changed = True
        # the rules that reach no reference cycle, each after the rules it
        # references: compiled in this order, a reference to one of them
        # finds its body's regex source ready to inline
        acyclic = self._acyclic = {}
        ready = True
        while ready:
            ready = [name for name, (refs, _, _, _) in facts.items()
                     if name not in acyclic and refs <= acyclic.keys()]
            acyclic.update(dict.fromkeys(ready))
        cyclic = [name for name in exprs if name not in acyclic]
        exact, fast = self.bodies = ({}, {})  # EXACT, FAST
        for name in [*acyclic, *cyclic]:
            exact[name] = self.compile(exprs[name])
        self._effects = None  # compile() of a node outside the rules infers afresh
        # heads, in the same order, so an acyclic rule's are ready for the
        # references to it. The heads of the rules that reach a cycle are
        # one least fixpoint: each starts from the empty head and only
        # grows, so the rounds end; validation rejected left recursion, so
        # no head is made of its own rule's.
        heads = self._heads = {}
        for name in acyclic:
            heads[name] = self._head(exact[name])
        heads.update(dict.fromkeys(cyclic, (0, (), False)))  # the empty head
        changed = True
        while changed:
            changed = False
            for name in cyclic:
                head = self._head(exact[name])
                if head != heads[name]:
                    heads[name], changed = head, True
        for body in exact.values():
            self._fill_dispatch(body)
        # fast bodies, acyclic rules first, so that theirs are ready for the
        # references that run them in place
        for name in [*acyclic, *cyclic]:
            fast[name] = self._fast(exact[name])

    def _fill_dispatch(self, body: tuple) -> None:
        """Fill the dispatch operand of each choice, repetition and option
        in an exact rule body, from the heads of its alternatives or its
        body: for a choice, (by character, any other, end of input) of
        ``_switch`` and the ``_by_char`` bit sets they come from; for a
        repetition or option, (by character, any other) of ``_by_char``,
        nonzero where the body can start. Left empty where no alternative,
        or no body, has a head. The fast run and the error pass dispatch
        through them."""
        todo = [body]
        while todo:
            ins = todo.pop()
            op = ins[0]
            if op == SEQ or op == ALT:
                kids = ins[2][:-1]
                todo.extend(kids)
                if op == ALT:
                    heads = [self._head(kid) for kid in kids]
                    if heads.count(None) < len(heads):
                        bits = _by_char(heads)
                        ins[4][:] = *_switch(kids, bits), bits
            elif op in (REP, OPT, PRED, CAPTURE, QUIET):
                todo.append(ins[2])
                head = self._head(ins[2]) if op == REP or op == OPT else None
                if head is not None:  # the operand before the regex source
                    ins[-2][:] = _by_char([head])[:2]

    def _head(self, ins: tuple) -> tuple | None:
        """Head of an exact instruction's fast form, in the form of
        ``_terminal_head``: None unless its first action is a terminal test
        that must pass, so None for an RE instruction. A reference takes
        its rule's head; the others combine those of their children in head
        position, so a node is visited once for each choice, loop or option
        whose head it decides."""
        if _regex(ins) is not None:
            return None
        op = ins[0]
        if op <= ISTR:
            return _terminal_head(ins)
        if op == SEQ:
            return self._head(ins[2][0])
        if op == ALT:  # the union of the alternatives' heads
            mask, chars, wide = 0, set(), False
            for kid in ins[2][:-1]:
                head = self._head(kid)
                if head is None:
                    return None
                mask, wide = mask | head[0], wide or head[2]
                chars.update(head[1])
            return mask, tuple(sorted(chars)), wide  # sorted: equal heads are equal
        if op == CHARS:
            return _terminal_head(ins[2]) if ins[3] else None
        if op == REF:
            return self._heads.get(ins[2])
        if op == CAPTURE:
            return None if _regex(ins[2]) is not None else self._head(ins[2])
        if op == QUIET or op == REP and ins[3]:
            return self._head(ins[2])
        return None

    def _fast(self, ins: tuple) -> tuple:
        """Fast-table form of an exact instruction.

        Each maximal regex fragment runs as one RE instruction and a
        reference to an acyclic rule as that rule's fast body; a choice's
        dispatch candidates are rebuilt over its fast children, and
        unchanged parts are shared. A reference to a rule on a cycle stays
        as it is.
        """
        match = _regex(ins)
        if match is not None:
            return (RE, ins[1], match, False, ins[-1])
        op = ins[0]
        if op == SEQ or op == ALT:
            kids = tuple(self._fast(kid) for kid in ins[2][:-1])
            if any(fast is not kid for fast, kid in zip(kids, ins[2])):
                ins = ins[:2] + (kids + (None,),) + ins[3:]
                if op == ALT and ins[4]:  # some alternative has a head
                    bits = ins[4][3]
                    ins = ins[:4] + ([*_switch(kids, bits), bits],) + ins[5:]
            return ins
        if op == REF and ins[2] in self._acyclic:  # run in place
            return self.bodies[FAST][ins[2]]
        if op == CAPTURE:
            match = _regex(ins[2])
            if match is not None:
                return (RE, ins[1], match, True, None)
        if op in (CAPTURE, REP, OPT, PRED, QUIET):
            inner = self._fast(ins[2])
            if inner is not ins[2]:
                ins = ins[:2] + (inner,) + ins[3:]
        return ins

    def compile(self, node) -> tuple:
        """Exact instruction tuple for a node: (opcode, node, operands...,
        regex source), the source None when the node has none.

        Rule references stay symbolic; the executor looks them up by name.
        """
        return self._compile(node)[0]

    def _compile(self, node) -> tuple[tuple, bool]:
        """Exact instruction for a node, and whether matching it may change
        the value stack, from its children's: a node whose children touch
        nothing touches nothing unless it pushes or pops itself."""
        ins, touches = self._instruction(node)
        source = self._source(ins)
        if source is not None and len(source) > _MAX_SOURCE:
            source = None
        return ins + (source,), touches

    def _source(self, ins: tuple) -> str | None:
        """Regex source of a node, from its compiled children's."""
        op = ins[0]
        if op <= ISTR:
            return _terminal_source(ins)
        if op == SEQ or op == ALT:
            parts = [k[-1] for k in ins[2][:-1]]
            if None in parts:
                return None
            return "".join(parts) if op == SEQ else "(?>" + "|".join(parts) + ")"
        if op == CHARS:
            inner = None if ins[5] else ins[2][-1]
            return None if inner is None else inner + ("++" if ins[3] else "*+")
        if op == REP or op == OPT or op == PRED:
            inner = ins[2][-1]
            if inner is None:
                return None
            if op == REP:
                return f"(?:{inner})" + ("++" if ins[3] else "*+")
            if op == OPT:
                return f"(?:{inner})?+"
            return ("(?!" if ins[3] else "(?=") + inner + ")"
        if op == REF and ins[2] in self._acyclic:
            return self.bodies[EXACT][ins[2]][-1]  # inlined
        return None  # captures, actions and quiet are no regex

    def _instruction(self, node) -> tuple[tuple, bool]:
        """Exact instruction for a node, without its regex source, and
        whether it touches the stack. The only place that tells terminal
        node types apart: the other facts of a terminal come from its
        operands, and a CLASS mask holds ASCII members only."""
        t = type(node)
        if t is r.Ch:
            return (CH, node, node.char), False
        if t is r.CharPred:
            return (CLASS, node, node.pred.mask & _ASCII, node.pred.extra), False
        if t is r.Str:
            return (STR, node, node.text, len(node.text)), False
        if t is r.EndOfInput:
            return (EOI, node), False
        if t is r.IgnoreCaseStr:
            return (ISTR, node, node.text.lower(), len(node.text)), False
        if t is r.NoneOf:
            extra = node.pred.extra
            return (CLASS, node, ~node.pred.mask & _ASCII,
                    _always if extra is None else lambda c: not extra(c)), False
        if t is r.AnyChar:
            return (CLASS, node, _ASCII, _always), False
        if t is r.Sequence or t is r.FirstOf:
            # the children, then None to mark the end; a SEQ's last operand
            # tells a terminal head that is tested before the frame opens
            kids, touched = zip(*(self._compile(k) for k in
                                  (node.children if t is r.Sequence else node.alternatives)))
            touches = any(touched)
            kids += (None,)
            if t is r.FirstOf:  # the dispatch operand is filled once the heads are known
                return (ALT, node, kids, touches, []), touches
            return (SEQ, node, kids, touches, kids[0][0] <= ISTR), touches
        if t is r.ZeroOrMore or t is r.OneOrMore:
            inner, touches = self._compile(node.inner)
            if inner[0] == CH or inner[0] == CLASS:
                # one character per iteration: (CHARS, node, the terminal,
                # plus, regex scan, capture), the scan None when the class
                # decides non-ASCII characters in Python
                source = inner[-1]
                scan = None if source is None else re.compile(source + "*", re.DOTALL).match
                return (CHARS, node, inner, t is r.OneOrMore, scan, False), False
            return (REP, node, inner, t is r.OneOrMore, self._collect_tag(node), touches,
                    []), touches
        if t is r.Optional:
            inner, touches = self._compile(node.inner)
            return (OPT, node, inner, self._collect_tag(node), []), touches
        if t is r.AndPredicate or t is r.NotPredicate:
            inner, touches = self._compile(node.inner)
            return (PRED, node, inner, t is r.NotPredicate, touches, inner[0] <= ISTR), False
        if t is r.Capture:
            inner = self._compile(node.inner)[0]
            if inner[0] == CHARS:  # the scan pushes what it matched
                return inner[:5] + (True,), True
            return (CAPTURE, node, inner), True
        if t is r.Quiet:
            inner, touches = self._compile(node.inner)
            return (QUIET, node, inner), touches
        if t is r.Action:
            if type(node.fn) is ConsFn:  # made by effects.cons: the executor builds the node
                return (CONS, node, node.fn.label, node.arity), True
            return (ACTION, node, node.fn, node.arity), True
        if t is r.Push:  # an action that pushes its value; a unit-like value pushes nothing
            value = None if node.value.tag == "Unit" else node.value
            return (ACTION, node, lambda: value, 0), True
        if t is r.Drop:
            return (ACTION, node, _nothing, node.count), True
        if t is r.RuleRef:
            return (REF, node, node.name), self._rule_touches.get(node.name, True)
        raise TypeError(f"unknown rule expression: {node!r}")

    def _collect_tag(self, node) -> str | None:
        """Element tag when the repetition body is collecting, else None."""
        try:
            shape, info = repetition_shape(infer_effect(node.inner, self.grammar,
                                                        _memo=self._effects))
        except (EffectError, KeyError, TypeError):
            return None
        return info if shape == "collecting" else None
