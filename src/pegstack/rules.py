"""Immutable rule-expression trees, character predicates and grammars.

A grammar is a mapping from rule names to expression trees plus a start
rule. Trees are frozen records (see ``record``), safely shareable across
concurrent parse runs once validated. ``validate_grammar`` normalizes the
tree (collapsing one-child sequences/choices), resolves references and
rejects left recursion, which a plain recursive-descent interpreter cannot
execute.

Each behaviour has one node type. The seven terminals (``TERMINALS``)
test a character, a string, a string ignoring case, a character class, a
none-of set, any character and end of input. The builders keep the
notation's vocabulary: ``ignore_case`` builds an ``IgnoreCaseStr`` also for
one character, and ``any_of`` a ``CharPred`` named after its characters.
``Push`` and ``Drop`` stay nodes, for the effect checker and the trace
text, but the compiler runs them as actions.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from .record import record
from .values import Value


# ---------------------------------------------------------------------------
# character predicates


def _mask_of(chars: Iterable[str]) -> int:
    mask = 0
    for c in chars:
        o = ord(c)
        if o < 128:
            mask |= 1 << o
    return mask


def _range_mask(lo: str, hi: str) -> int:
    return _mask_of(chr(o) for o in range(ord(lo), ord(hi) + 1))


@record
class CharPredicate:
    """Character-set membership test.

    Code points below 128 are decided by the bitmask alone; ``extra`` is an
    optional escape hatch for non-ASCII membership. ``name`` is used in
    diagnostics (e.g. the expected-list of a parse error).
    """

    mask: int
    extra: Callable[[str], bool] | None = None
    name: str | None = None

    def contains(self, ch: str) -> bool:
        o = ord(ch)
        if o < 128:
            return bool((self.mask >> o) & 1)
        return bool(self.extra(ch)) if self.extra is not None else False

    def union(self, other: "CharPredicate") -> "CharPredicate":
        """Members of either; named ``a|b`` when both operands are named."""
        ea, eb = self.extra, other.extra
        extra = None
        if ea is not None or eb is not None:
            extra = lambda c: bool(ea and ea(c)) or bool(eb and eb(c))  # noqa: E731
        name = None
        if self.name is not None and other.name is not None:
            name = f"{self.name}|{other.name}"
        return CharPredicate(self.mask | other.mask, extra, name)

    @staticmethod
    def from_chars(chars: str, name: str | None = None) -> "CharPredicate":
        above = frozenset(c for c in chars if ord(c) >= 128)
        extra = above.__contains__ if above else None
        return CharPredicate(_mask_of(chars), extra, name)


DIGIT = CharPredicate(_range_mask("0", "9"), name="Digit")
ALPHA = CharPredicate(_range_mask("a", "z") | _range_mask("A", "Z"), name="Alpha")
LOWER_HEX_LETTER = CharPredicate(_range_mask("a", "f"), name="LowerHexLetter")


# ---------------------------------------------------------------------------
# rule expressions


class RuleExpr:
    """Base class for all rule-expression variants."""

    __slots__ = ()


@record
class Ch(RuleExpr):
    char: str

    def __post_init__(self):
        if len(self.char) != 1:
            raise ValueError("Ch takes exactly one character")


@record
class Str(RuleExpr):
    # empty text is rejected by validate_grammar, not at construction,
    # so the textual notation can report it as a positioned diagnostic
    text: str


@record
class IgnoreCaseStr(RuleExpr):
    text: str


@record
class CharPred(RuleExpr):
    pred: CharPredicate


@record
class AnyChar(RuleExpr):
    pass


@record
class NoneOf(RuleExpr):
    pred: CharPredicate


@record
class EndOfInput(RuleExpr):
    pass


ANY = AnyChar()
EOI = EndOfInput()


@record
class Sequence(RuleExpr):
    children: tuple[RuleExpr, ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("empty sequence")


@record
class FirstOf(RuleExpr):
    alternatives: tuple[RuleExpr, ...]

    def __post_init__(self):
        if not self.alternatives:
            raise ValueError("empty choice")


@record
class Optional(RuleExpr):
    inner: RuleExpr


@record
class ZeroOrMore(RuleExpr):
    inner: RuleExpr


@record
class OneOrMore(RuleExpr):
    inner: RuleExpr


@record
class AndPredicate(RuleExpr):
    inner: RuleExpr


@record
class NotPredicate(RuleExpr):
    inner: RuleExpr


@record
class Capture(RuleExpr):
    inner: RuleExpr


@record
class Push(RuleExpr):
    value: Value


@record
class Drop(RuleExpr):
    count: int = 1

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("Drop count must be >= 1")


@record
class Action(RuleExpr):
    """N-ary semantic action.

    ``fn`` receives the popped values deepest-first (the last value popped
    is the first argument) and returns the values to push: a Value, a
    sequence of Values, None for nothing, or ACTION_FAIL to fail the match.
    ``effect`` declares the stack behavior; arity must equal len(effect.pops).
    """

    arity: int
    fn: Callable[..., Any]
    effect: Any  # effects.StackEffect; duck-typed to avoid an import cycle
    name: str | None = None

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("Action arity must be >= 0")
        if len(self.effect.pops) != self.arity:
            raise ValueError("Action arity must equal the length of its effect's pop list")


@record
class RuleRef(RuleExpr):
    name: str


@record
class Quiet(RuleExpr):
    """Matches like its inner expression but is excluded from error traces."""

    inner: RuleExpr


_WRAPPERS = (Optional, ZeroOrMore, OneOrMore, AndPredicate, NotPredicate, Capture, Quiet)
TERMINALS = (Ch, Str, IgnoreCaseStr, CharPred, AnyChar, NoneOf, EndOfInput)


# ---------------------------------------------------------------------------
# builders (collapse singleton sequences/choices on construction)


def seq(*parts: RuleExpr) -> RuleExpr:
    if not parts:
        raise ValueError("seq() needs at least one part")
    return parts[0] if len(parts) == 1 else Sequence(tuple(parts))


def first_of(*alternatives: RuleExpr) -> RuleExpr:
    if not alternatives:
        raise ValueError("first_of() needs at least one alternative")
    return alternatives[0] if len(alternatives) == 1 else FirstOf(tuple(alternatives))


def ch(c: str) -> Ch:
    return Ch(c)


def lit(text: str) -> Str:
    return Str(text)


def ignore_case(text: str) -> IgnoreCaseStr:
    return IgnoreCaseStr(text)


def any_of(chars: str) -> CharPred:
    return CharPred(CharPredicate.from_chars(chars, name=f"[{chars}]"))


def none_of(chars: str) -> NoneOf:
    return NoneOf(CharPredicate.from_chars(chars, name=f"[{chars}]"))


def char_pred(pred: CharPredicate) -> CharPred:
    return CharPred(pred)


def opt(inner: RuleExpr) -> Optional:
    return Optional(inner)


def zero_or_more(inner: RuleExpr) -> ZeroOrMore:
    return ZeroOrMore(inner)


def one_or_more(inner: RuleExpr) -> OneOrMore:
    return OneOrMore(inner)


def and_pred(inner: RuleExpr) -> AndPredicate:
    return AndPredicate(inner)


def not_pred(inner: RuleExpr) -> NotPredicate:
    return NotPredicate(inner)


def capture(inner: RuleExpr) -> Capture:
    return Capture(inner)


def push(value: Value) -> Push:
    return Push(value)


def drop(count: int = 1) -> Drop:
    return Drop(count)


def ref(name: str) -> RuleRef:
    return RuleRef(name)


def quiet(inner: RuleExpr) -> Quiet:
    return Quiet(inner)


# ---------------------------------------------------------------------------
# grammars


@record
class RuleDef:
    expr: RuleExpr
    effect: Any | None = None  # optional declared effects.StackEffect


@record
class Grammar:
    rules: dict[str, RuleDef]
    start: str
    validated: bool = False

    def expr(self, name: str) -> RuleExpr:
        return self.rules[name].expr


def grammar(rules: dict[str, Any], start: str | None = None) -> Grammar:
    """Build a Grammar from a name -> expr (or (expr, effect), or RuleDef) map."""
    defs: dict[str, RuleDef] = {}
    for name, spec in rules.items():
        if isinstance(spec, RuleDef):
            defs[name] = spec
        elif isinstance(spec, tuple):
            defs[name] = RuleDef(*spec)
        else:
            defs[name] = RuleDef(spec)
    if start is None:
        start = next(iter(defs))
    return Grammar(defs, start)


# ---------------------------------------------------------------------------
# validation


@record
class GrammarIssue:
    kind: str  # "unresolved-ref" | "left-recursion" | "empty-literal" | "missing-start"
    rule: str
    detail: str
    cycle: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.kind} in rule {self.rule}: {self.detail}"


class GrammarError(Exception):
    """Raised by validate_grammar with the full list of diagnostics."""

    def __init__(self, issues: list[GrammarIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


class GrammarTooDeep(Exception):
    """A grammar nested deeper than the recursive passes over rule trees can
    follow at the interpreter's recursion limit."""

    def __init__(self):
        super().__init__("grammar nested too deeply to compile")


def _normalize(expr: RuleExpr) -> RuleExpr:
    """Collapse one-child sequences/choices, bottom-up."""
    t = type(expr)
    if t is Sequence:
        children = tuple(_normalize(c) for c in expr.children)
        if len(children) == 1:
            return children[0]
        return expr if children == expr.children else Sequence(children)
    if t is FirstOf:
        alts = tuple(_normalize(a) for a in expr.alternatives)
        if len(alts) == 1:
            return alts[0]
        return expr if alts == expr.alternatives else FirstOf(alts)
    if t in _WRAPPERS:
        inner = _normalize(expr.inner)
        return expr if inner is expr.inner else t(inner)
    return expr


def walk(expr: RuleExpr):
    """Yield expr and all of its descendants, depth-first."""
    yield expr
    t = type(expr)
    if t is Sequence:
        for c in expr.children:
            yield from walk(c)
    elif t is FirstOf:
        for a in expr.alternatives:
            yield from walk(a)
    elif t in _WRAPPERS:
        yield from walk(expr.inner)


def nullable_rules(g: Grammar) -> dict[str, bool]:
    """Least fixpoint of can-succeed-without-consuming-input, per rule."""
    nullmap = {name: False for name in g.rules}
    changed = True
    while changed:
        changed = False
        for name, rd in g.rules.items():
            if not nullmap[name] and is_nullable(rd.expr, nullmap):
                nullmap[name] = True
                changed = True
    return nullmap


def is_nullable(expr: RuleExpr, nullmap: dict[str, bool]) -> bool:
    t = type(expr)
    if t in (Push, Drop, Action, AndPredicate, NotPredicate, Optional, ZeroOrMore,
             EndOfInput):
        return True
    if t in (OneOrMore, Capture, Quiet):
        return is_nullable(expr.inner, nullmap)
    if t is Sequence:
        return all(is_nullable(c, nullmap) for c in expr.children)
    if t is FirstOf:
        return any(is_nullable(a, nullmap) for a in expr.alternatives)
    if t is RuleRef:
        return nullmap.get(expr.name, False)
    if t in (Str, IgnoreCaseStr):
        return expr.text == ""
    return False  # Ch, CharPred, NoneOf, AnyChar


def _head_refs(expr: RuleExpr, nullmap: dict[str, bool], acc: set[str]) -> None:
    """Rules reachable from expr before any guaranteed cursor advance."""
    t = type(expr)
    if t is RuleRef:
        acc.add(expr.name)
    elif t is Sequence:
        for c in expr.children:
            _head_refs(c, nullmap, acc)
            if not is_nullable(c, nullmap):
                break
    elif t is FirstOf:
        for a in expr.alternatives:
            _head_refs(a, nullmap, acc)
    elif t in _WRAPPERS:
        _head_refs(expr.inner, nullmap, acc)


def validate_grammar(g: Grammar) -> Grammar:
    """Normalize and check a grammar; raise GrammarError on any diagnostic.

    Checks: the start rule and every reference resolve, no empty literals,
    and no rule can re-enter itself at the same input position through a
    nullable prefix (direct or indirect left recursion). Raises
    GrammarTooDeep when the grammar is nested too deeply to walk.
    """
    try:
        return _validate(g)
    except RecursionError:
        raise GrammarTooDeep() from None


def _validate(g: Grammar) -> Grammar:
    issues: list[GrammarIssue] = []
    defs = {name: RuleDef(_normalize(rd.expr), rd.effect) for name, rd in g.rules.items()}

    if g.start not in defs:
        issues.append(GrammarIssue("missing-start", g.start, f"start rule {g.start!r} is not defined"))

    for name, rd in defs.items():
        for node in walk(rd.expr):
            t = type(node)
            if t is RuleRef and node.name not in defs:
                issues.append(GrammarIssue("unresolved-ref", name, f"reference to undefined rule {node.name!r}"))
            elif t in (Str, IgnoreCaseStr) and node.text == "":
                issues.append(GrammarIssue("empty-literal", name, "empty string literal is forbidden"))

    if not issues:
        normalized = Grammar(defs, g.start)
        nullmap = nullable_rules(normalized)
        graph: dict[str, list[str]] = {}
        for name, rd in defs.items():
            heads: set[str] = set()
            _head_refs(rd.expr, nullmap, heads)
            graph[name] = sorted(h for h in heads if h in defs)
        for cycle in depth_first(graph)[1]:
            issues.append(GrammarIssue(
                "left-recursion", cycle[0],
                "left-recursive cycle: " + " -> ".join(cycle + (cycle[0],)),
                cycle=cycle,
            ))

    if issues:
        raise GrammarError(issues)
    return Grammar(defs, g.start, validated=True)


def depth_first(graph: dict[str, list[str]]) -> tuple[list[str], list[tuple[str, ...]]]:
    """Walk a graph depth first, from each node in order and to successors in
    the order listed, without recursion, so a long chain cannot overflow.
    Returns the nodes in post-order and the cycles that back edges close,
    one per set of nodes."""
    order: list[str] = []
    cycles: list[tuple[str, ...]] = []
    seen: set[frozenset] = set()
    color = dict.fromkeys(graph, 0)  # 0 white, 1 on path, 2 done
    path: list[str] = []
    for root in graph:
        if color[root]:
            continue
        color[root] = 1
        path.append(root)
        todo = [iter(graph[root])]  # the successors still to visit, along path
        while todo:
            for v in todo[-1]:
                if color[v] == 1:
                    cycle = tuple(path[path.index(v):])
                    if frozenset(cycle) not in seen:
                        seen.add(frozenset(cycle))
                        cycles.append(cycle)
                elif color[v] == 0:
                    color[v] = 1
                    path.append(v)
                    todo.append(iter(graph[v]))
                    break
            else:
                todo.pop()
                order.append(path.pop())
                color[order[-1]] = 2
    return order, cycles


# ---------------------------------------------------------------------------
# textual rendering of expressions (shared by traces and the grammar notation)

_CLASS_TEXT = {"Digit": "[0-9]", "Alpha": "[A-Za-z]", "LowerHexLetter": "[a-f]"}

_PREC_CHOICE, _PREC_SEQ, _PREC_PREFIX, _PREC_SUFFIX = 0, 1, 2, 3


_SUFFIX_MARK = {Optional: "?", ZeroOrMore: "*", OneOrMore: "+"}


def expr_text(expr: RuleExpr, prec: int = _PREC_CHOICE) -> str:
    """Render an expression in the textual grammar notation.

    Constructs the notation cannot express (none-of sets, arbitrary host
    actions) fall back to a readable debug form. Iterative, so the depth of
    an expression is not bounded by the recursion limit.
    """
    out: list[str] = []
    todo: list = [(expr, prec)]  # (expression, precedence) to render and literal text, next last
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        expr, prec = item
        t = type(expr)
        if t is FirstOf or t is Sequence:
            kids, inner, sep, at = ((expr.alternatives, _PREC_SEQ, " / ", _PREC_CHOICE)
                                    if t is FirstOf else
                                    (expr.children, _PREC_PREFIX, " ", _PREC_SEQ))
            parts = [x for kid in kids for x in (sep, (kid, inner))][1:]
            _wrapped(todo, parts, prec > at)
        elif t is AndPredicate or t is NotPredicate:
            mark = "&" if t is AndPredicate else "!"
            _wrapped(todo, [mark, (expr.inner, _PREC_SUFFIX)], prec > _PREC_PREFIX)
        elif t in _SUFFIX_MARK:
            _wrapped(todo, [(expr.inner, _PREC_SUFFIX + 1), _SUFFIX_MARK[t]], prec > _PREC_SUFFIX)
        elif t is Quiet or t is Capture:
            _wrapped(todo, ["quiet(" if t is Quiet else "capture(",
                            (expr.inner, _PREC_CHOICE), ")"], False)
        else:
            out.append(_leaf_text(expr))
    return "".join(out)


def _wrapped(todo: list, parts: list, parens: bool) -> None:
    """Schedule parts in order, in parentheses when parens."""
    if parens:
        parts = ["(", *parts, ")"]
    todo.extend(reversed(parts))


def _leaf_text(expr: RuleExpr) -> str:
    """The text of an expression that holds no other."""
    t = type(expr)
    if t is Ch:
        return f"'{expr.char}'"
    if t is Str:
        return f'"{expr.text}"'
    if t is IgnoreCaseStr:
        return f'^"{expr.text}"'
    if t is CharPred:
        name = expr.pred.name
        return _CLASS_TEXT.get(name, name or "[<pred>]")
    if t is NoneOf:
        return "!" + (expr.pred.name or "[<set>]") + " ."
    if t is AnyChar:
        return "."
    if t is EndOfInput:
        return "EOI"
    if t is Push:
        payload = expr.value.payload
        return f'push("{payload}")' if isinstance(payload, str) else f"push({payload!r})"
    if t is Drop:
        return "drop" if expr.count == 1 else f"drop[{expr.count}]"
    if t is Action:
        return f"~> {expr.name}" if expr.name else f"~> <action/{expr.arity}>"
    if t is RuleRef:
        return expr.name
    raise TypeError(f"unknown rule expression: {expr!r}")
