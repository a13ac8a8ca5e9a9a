"""Rule trees compiled into the instruction table the engine executes.

A node becomes a tuple (opcode, node, operands...) that carries its static
facts: whether it touches the value stack, the element tag of a collecting
repetition, literal lengths. Rule references stay symbolic; the executor
looks each one up in the table. Every rule body is compiled when the
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

The table serves every run whose step and mismatch counters must be exact
(``match``, ``match_rule``, ``run_phase``), every observed run and every
unobserved run before its Parser generates, with their error passes;
``pegstack.generate`` expands it into the Python code of the unobserved
runs after that and of their error passes. A repetition of one
single-character terminal is one fused scan; an observed run logs the
steps it stands for. Each
instruction ends with the node's regex source, None when it has none: a
maximal subtree that touches no stack, runs no action and reaches no
reference cycle is one ``re`` match in the generated parse code (``_regex``),
and a Capture of one pushes the matched slice. Atomic groups and
possessive quantifiers (Python 3.11) give the regex PEG semantics: ``e1
e2`` is concatenation, ``/`` is ``(?>a|b)``, ``*`` ``+`` ``?`` are ``*+``
``++`` ``?+``, ``&e`` is ``(?=e)``, ``!e`` is ``(?!e)``, ``.`` is ``.``
under DOTALL, EOI is ``\\Z``, and a reference to a rule off every cycle is
inlined. Ignore-case terminals (``str.lower`` and ``re.IGNORECASE``
disagree, e.g. on "ſ"), predicates decided by an ``extra`` function, a
source longer than ``_MAX_SOURCE`` and a fragment that ``re`` rejects
have no regex; a lone terminal and a fused scan gain nothing from one. A
choice, repetition or option carries a dispatch operand, filled once
every head is known: the bit sets of which of its alternatives, or
whether its body, can start at each next character. The generated code
dispatches through every filled operand, its error pass below its running
maximum; the executor reads an operand only to learn that a repetition's
body has a head. In ``calc.peg`` nothing lowers, but every loop and every
choice dispatches.

Each instruction that cannot match without taking a character may have a
head, the characters it can start with. Compiling a node gives its head
from its children's, so each node's head is taken once, and a node that
lowers to one regex keeps the head its children give, decided without
compiling the regex, which only the generator does. A sequence's head runs
through its nullable prefix (Redziejowski's FIRST through nullable
prefixes): it joins its children's heads up to the first child that does
not pass, and what passes matches everywhere, taking nothing and counting
mismatches only at the next character where that is not in its head
(``?``, ``*``, a ``!`` whose body touches no stack). An ``&`` stops a
head, since its body counts mismatches past the next character, which the
error pass must see, and so does an action, push or drop, whose effect a
skipped alternative would lose. A reference to a rule on a cycle has a
head that names the rule; the heads of those rules are one least
fixpoint, joined in when the dispatch operands are filled, so json's
``Value`` offers its recursive ``Object`` only at ``{``, and each of its
five rules at its own characters.
"""

from __future__ import annotations

import re

from . import rules as r
from .effects import ConsFn, EffectError, infer_effect, repetition_shape

# opcodes: terminals first, so "op <= ISTR" tells a terminal (a CLASS also
# stands for "." and a none-of set); an ACTION also stands for push and
# drop; a frame is tagged with the opcode of the node that opened it, or
# with RULE
OPS = (CH, CLASS, STR, EOI, ISTR, SEQ, ALT, REF, CHARS, ACTION, CONS, CAPTURE, REP, OPT,
       PRED, QUIET) = range(16)
RULE = 16
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
    """Match function of an instruction's regex source, or None where ``re``
    rejects the source."""
    try:
        return re.compile(ins[-1], re.DOTALL).match
    except (re.error, RecursionError, OverflowError):
        return None


def _terminal_head(ins: tuple) -> tuple | None:
    """Head of a terminal instruction: (ASCII mask, other characters, wide,
    rules), where wide means that it may also take characters at or above
    128 that are not listed, and rules names the rules on cycles whose heads
    are still to be joined in (none for a terminal); None when it can match
    without taking a character, or when ignore case makes its first
    character unknown."""
    op = ins[0]
    if op == CH or op == STR and ins[2]:
        c = ins[2][0]
        o = ord(c)
        return (1 << o, (), False, ()) if o < 128 else (0, (c,), False, ())
    if op == CLASS:
        return ins[2], (), ins[3] is not None, ()
    return None


def _union(heads) -> tuple | None:
    """Union of heads; None when one of them is None. Sorted: equal heads
    are equal."""
    mask, chars, wide, rules = 0, (), False, ()
    for head in heads:
        if head is None:
            return None
        mask, wide = mask | head[0], wide or head[2]
        chars, rules = chars + head[1], rules + head[3]
    return mask, tuple(sorted(set(chars))), wide, tuple(sorted(set(rules)))


def _resolve(head: tuple | None, cyclic: dict) -> tuple | None:
    """A head with the heads of the rules it names, from cyclic, joined in."""
    if head is None or not head[3]:
        return head
    return _union([head[:3] + ((),), *(cyclic.get(name) for name in head[3])])


def _by_char(heads: list) -> tuple[dict[str, int], int, int]:
    """Bit sets of the heads each character can start, where bit i stands
    for heads[i] and a None head starts anywhere, end of input included: by
    listed character, for any other character, and at end of input. A
    character is listed where its set differs from that of the others: a
    wide head starts at every character but the ASCII ones it leaves out."""
    flips: dict[str, int] = {}  # the heads where a character differs from the others
    always = wide = 0
    for i, head in enumerate(heads):
        bit = 1 << i
        if head is None:
            always |= bit
            continue
        mask, chars, w, _ = head
        if w:
            wide |= bit
            mask ^= _ASCII
            chars = ()
        for c in chars:
            flips[c] = flips.get(c, 0) | bit
        while mask:
            low = mask & -mask
            c = chr(low.bit_length() - 1)
            flips[c] = flips.get(c, 0) | bit
            mask ^= low
    other = always | wide
    return {c: other ^ bits for c, bits in flips.items()}, other, always


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
    """The compiled rule bodies of one grammar, by rule name, and the facts
    about the grammar they rest on; reusable across runs and threads.
    ``_acyclic`` holds the head of each rule off every cycle, ``_cyclic``
    that of each rule on one."""

    def __init__(self, grammar: r.Grammar):
        self.grammar = grammar
        self._effects: dict | None = {}  # infer_effect's memo while the rules compile
        exprs = {name: rd.expr for name, rd in grammar.rules.items()}
        facts = {name: _facts(expr) for name, expr in exprs.items()}
        # no action but cons, push and drop: values decide no match, so the
        # generated error pass leaves them out (see generate)
        self.value_free = not any(f[3] for f in facts.values())
        # the rules each rule references, inside predicates too; every rule
        # after the rules it references, but for the back edges that close
        # cycles
        self.references = {name: sorted(n for n in f[0] if n in facts)
                           for name, f in facts.items()}
        order = r.depth_first(self.references)[0]
        # least fixpoint over the rules: a rule touches the stack when one of
        # its nodes pushes or pops, or when it calls a rule that does; in
        # that order, a round settles every rule off a cycle
        touches = self._rule_touches = {name: f[2] for name, f in facts.items()}
        changed = True
        while changed:
            changed = False
            for name in order:
                if not touches[name] and any(touches.get(n, True) for n in facts[name][1]):
                    touches[name] = changed = True
        # the rules that reach no reference cycle, each after the rules it
        # references: compiled in this order, a reference to one of them
        # finds its body's regex source and its head ready, the head as its
        # value here. The target of a back edge comes later, so a rule on a
        # cycle, and one that reaches a cycle, never has all its references
        # here.
        acyclic = self._acyclic = {}
        for name in order:
            if facts[name][0] <= acyclic.keys():
                acyclic[name] = None
        cyclic = [name for name in exprs if name not in acyclic]
        exact = self.bodies = {}
        self._operands = []  # each dispatch operand, with what fills it
        named = {}  # the heads of the rules on cycles, naming those rules
        for name in [*acyclic, *cyclic]:
            exact[name], _, head, passes = self._compile(exprs[name])
            (acyclic if name in acyclic else named)[name] = None if passes else head
        operands = self._operands
        # compile() of a node outside the rules infers afresh and fills nothing
        self._effects = self._operands = None
        # the heads of the rules on cycles are one least fixpoint: each
        # starts from the empty head and only grows, so the rounds end;
        # validation rejected left recursion, so no head is made of its own
        # rule's
        heads = self._cyclic = dict.fromkeys(cyclic, (0, (), False, ()))
        users: dict[str, list] = {}  # by rule, the rules whose heads name it
        for name, head in named.items():
            for used in head[3] if head is not None else ():
                users.setdefault(used, []).append(name)
        # the heads to resolve: every one in the first round, then those that
        # name a rule whose head changed in the round before
        stale = named.keys()
        while stale:
            changed = []
            for name, head in named.items():
                if name in stale:
                    head = _resolve(head, heads)
                    if head != heads[name]:
                        heads[name] = head
                        changed.append(name)
            stale = {user for name in changed for user in users.get(name, ())}
        # each dispatch operand, left empty where no alternative, or no
        # body, has a head: the _by_char bit sets (by character, any other,
        # end of input) of a choice's alternatives; for a repetition or
        # option, (by character, any other), nonzero where the body can start.
        # Operands share heads, so each distinct one is resolved once.
        resolved = dict.fromkeys(head for _, _, kid_heads in operands for head in kid_heads)
        for head in resolved:
            resolved[head] = _resolve(head, heads)
        for operand, choice, kid_heads in operands:
            kid_heads = [resolved[head] for head in kid_heads]
            if kid_heads.count(None) < len(kid_heads):
                bits = _by_char(kid_heads)
                operand[:] = bits if choice else bits[:2]

    def compile(self, node) -> tuple:
        """Exact instruction tuple for a node: (opcode, node, operands...,
        regex source), the source None when the node has none.

        Rule references stay symbolic; the executor looks them up by name.
        """
        return self._compile(node)[0]

    def _compile(self, node) -> tuple[tuple, bool, tuple | None, bool]:
        """Exact instruction for a node, whether matching it may change the
        value stack, the head of its generated code, and whether a
        sequence's head passes through it, each from its children's: a node
        whose children touch nothing touches nothing unless it pushes or
        pops itself. A node that passes matches everywhere; its head is that
        of what it may take. A head may name rules on cycles, joined in
        later."""
        ins, touches, head, passes = self._instruction(node)
        source = self._source(ins)
        if source is not None and len(source) > _MAX_SOURCE:
            source = None
        if ins[0] <= ISTR and not passes:
            head = _terminal_head(ins)
        return ins + (source,), touches, head, passes

    def _operand(self, choice: bool, heads: tuple) -> list:
        """An empty dispatch operand; while the rules compile, it is recorded
        with whether it is a choice's and the heads of the alternatives, or
        of the body, that fill it."""
        operand = []
        if self._operands is not None:
            self._operands.append((operand, choice, heads))
        return operand

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
            return self.bodies[ins[2]][-1]  # inlined
        return None  # captures, actions and quiet are no regex

    def _instruction(self, node) -> tuple[tuple, bool, tuple | None, bool]:
        """Exact instruction for a node, without its regex source, whether
        it touches the stack, its head from its children's (None for a
        terminal that takes a character, whose head ``_compile`` reads from
        its operands) and whether it passes. The only place that tells
        terminal node types apart: the other facts of a terminal come from
        its operands, and a CLASS mask holds ASCII members only.

        A sequence's head joins its children's up to and including the first
        that does not pass, and is None when all of them pass. What passes
        is ``?``, ``*``, a ``!`` over a body that touches no stack, the
        empty string, and a capture or quiet of one of them; not ``&``, an
        action, push or drop (see the module docstring). Elsewhere a node
        that may match without taking a character has no head."""
        t = type(node)
        if t is r.Ch:
            return (CH, node, node.char), False, None, False
        if t is r.CharPred:
            return (CLASS, node, node.pred.mask & _ASCII, node.pred.extra), False, None, False
        if t is r.Str:
            empty = not node.text  # it takes nothing: its head is the empty one
            return ((STR, node, node.text, len(node.text)), False,
                    (0, (), False, ()) if empty else None, empty)
        if t is r.EndOfInput:
            return (EOI, node), False, None, False
        if t is r.IgnoreCaseStr:
            return (ISTR, node, node.text.lower(), len(node.text)), False, None, False
        if t is r.NoneOf:
            extra = node.pred.extra
            return (CLASS, node, ~node.pred.mask & _ASCII,
                    _always if extra is None else lambda c: not extra(c)), False, None, False
        if t is r.AnyChar:
            return (CLASS, node, _ASCII, _always), False, None, False
        if t is r.Sequence or t is r.FirstOf:
            # the children, then None to mark the end
            kids, touched, heads, passing = zip(*(self._compile(k) for k in (
                node.children if t is r.Sequence else node.alternatives)))
            touches = any(touched)
            if t is r.FirstOf:
                if True in passing:  # an alternative that passes starts anywhere
                    heads = tuple(None if passes else head for head, passes in zip(heads, passing))
                return ((ALT, node, kids + (None,), touches, self._operand(True, heads)), touches,
                        _union(heads), False)
            if False not in passing:  # every child passes: it may take nothing
                return (SEQ, node, kids + (None,), touches), touches, None, False
            stop = passing.index(False)  # the children up to it give the head
            return ((SEQ, node, kids + (None,), touches), touches,
                    _union(heads[:stop + 1]) if stop else heads[0], False)
        if t is r.ZeroOrMore or t is r.OneOrMore:
            inner, touches, head, passes = self._compile(node.inner)
            head = None if passes else head
            plus = t is r.OneOrMore
            if inner[0] == CH or inner[0] == CLASS:
                # one character per iteration: (CHARS, node, the terminal,
                # plus, regex scan, capture), the scan None when the class
                # decides non-ASCII characters in Python
                source = inner[-1]
                scan = None if source is None else re.compile(source + "*", re.DOTALL).match
                return (CHARS, node, inner, plus, scan, False), False, head, not plus
            return ((REP, node, inner, plus, self._collect_tag(node), touches,
                     self._operand(False, (head,))), touches, head, not plus)
        if t is r.Optional:
            inner, touches, head, passes = self._compile(node.inner)
            head = None if passes else head
            return ((OPT, node, inner, self._collect_tag(node), self._operand(False, (head,))),
                    touches, head, True)
        if t is r.AndPredicate or t is r.NotPredicate:
            inner, touches = self._compile(node.inner)[:2]
            passes = t is r.NotPredicate and not touches
            return ((PRED, node, inner, t is r.NotPredicate, touches), False,
                    (0, (), False, ()) if passes else None, passes)
        if t is r.Capture:
            inner, _, head, passes = self._compile(node.inner)
            if inner[0] == CHARS:  # the scan pushes what it matched
                return inner[:5] + (True,), True, head, passes
            return (CAPTURE, node, inner), True, head, passes
        if t is r.Quiet:
            inner, touches, head, passes = self._compile(node.inner)
            return (QUIET, node, inner), touches, head, passes
        if t is r.Action:
            if type(node.fn) is ConsFn:  # made by effects.cons: the executor builds the node
                return (CONS, node, node.fn.label, node.arity), True, None, False
            return (ACTION, node, node.fn, node.arity), True, None, False
        if t is r.Push:  # an action that pushes its value; a unit-like value pushes nothing
            value = None if node.value.tag == "Unit" else node.value
            return (ACTION, node, lambda: value, 0), True, None, False
        if t is r.Drop:
            return (ACTION, node, _nothing, node.count), True, None, False
        if t is r.RuleRef:
            name = node.name  # a rule on a cycle: a head that names it
            return ((REF, node, name), self._rule_touches.get(name, True),
                    self._acyclic.get(name, (0, (), False, (name,))), False)
        raise TypeError(f"unknown rule expression: {node!r}")

    def _collect_tag(self, node) -> str | None:
        """Element tag when the repetition body is collecting, else None."""
        try:
            shape, info = repetition_shape(infer_effect(node.inner, self.grammar,
                                                        _memo=self._effects))
        except (EffectError, KeyError, TypeError):
            return None
        return info if shape == "collecting" else None
