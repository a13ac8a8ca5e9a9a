"""Static stack-effect inference and checking.

A stack effect is a pair of tag lists (pops, pushes) describing how a rule
changes the value stack. Both lists are deepest-first: the rightmost pop is
the top of the stack (popped first) and the rightmost push is pushed last.
Composition across sequencing, prioritized choice and repetition lets the
checker prove, before any parse, that no rule pops an empty stack and that
popped values carry the tags the popping site expects.
"""

from __future__ import annotations

from . import rules as r
from .record import record
from .values import Node, Value

WILDCARD = "*"


@record
class StackEffect:
    pops: tuple[str, ...] = ()
    pushes: tuple[str, ...] = ()

    # one per composition step while a grammar is checked: set the slots
    # directly, not through the record's generic constructor
    def __init__(self, pops: tuple[str, ...] = (), pushes: tuple[str, ...] = ()):
        _set_pops(self, pops)
        _set_pushes(self, pushes)

    def __str__(self) -> str:
        return f"([{','.join(self.pops)}],[{','.join(self.pushes)}])"


_set_pops, _set_pushes = StackEffect.pops.__set__, StackEffect.pushes.__set__


NEUTRAL = StackEffect()


class EffectError(Exception):
    pass


class EffectMismatch(EffectError):
    """Top-aligned overlap of two composed effects failed to unify."""

    def __init__(self, position: int, expected: str, found: str):
        self.position = position  # 0 = top of stack
        self.expected = expected
        self.found = found
        super().__init__(f"effect mismatch {position} below top: expected {expected}, found {found}")


class BranchEffectMismatch(EffectError):
    def __init__(self, index: int, detail: str = ""):
        self.index = index
        super().__init__(f"alternative {index} does not unify with the preceding alternatives"
                         + (f": {detail}" if detail else ""))


class UnsupportedRepetitionEffect(EffectError):
    def __init__(self, effect: StackEffect, kind: str):
        self.effect = effect
        self.kind = kind
        super().__init__(f"{kind} body with effect {effect} is neither a reduction, "
                         f"a single-value collector, nor neutral")


class UndeclaredRecursiveRule(EffectError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"rule {name!r} is used recursively and needs a declared effect")


class StartRulePops(EffectError):
    def __init__(self, rule: str, pops: tuple[str, ...]):
        self.rule = rule
        self.pops = pops
        super().__init__(f"start rule {rule!r} pops from an initially empty stack: [{','.join(pops)}]")


class EffectCheckError(Exception):
    """Aggregated per-rule effect errors from check_grammar."""

    def __init__(self, issues: list[tuple[str, EffectError]]):
        self.issues = issues
        super().__init__("; ".join(f"{name}: {err}" for name, err in issues))


def unify_tag(a: str, b: str) -> str | None:
    """Purely syntactic: wildcard matches anything, concrete tags must be equal."""
    if a == WILDCARD:
        return b
    if b == WILDCARD or a == b:
        return a
    return None


def seq_compose(lhs: StackEffect, rhs: StackEffect) -> StackEffect:
    """Compose two effects executed in sequence.

    The rightmost min(|lhs.pushes|, |rhs.pops|) tags must unify pairwise;
    the survivors concatenate. If the right side pops more than the left
    pushed, the deficit is demanded from deeper in the stack.
    """
    if not rhs.pops and not rhs.pushes:  # neutral: nothing to unify or build
        return lhs
    if not lhs.pops and not lhs.pushes:
        return rhs
    k = min(len(lhs.pushes), len(rhs.pops))
    for i in range(1, k + 1):
        if unify_tag(lhs.pushes[-i], rhs.pops[-i]) is None:
            raise EffectMismatch(i - 1, rhs.pops[-i], lhs.pushes[-i])
    if len(lhs.pushes) >= len(rhs.pops):
        surplus = lhs.pushes[:len(lhs.pushes) - k]
        return StackEffect(lhs.pops, surplus + rhs.pushes)
    deficit = rhs.pops[:len(rhs.pops) - k]
    return StackEffect(deficit + lhs.pops, rhs.pushes)


def _unify_lists(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...] | None:
    if len(a) != len(b):
        return None
    out = []
    for x, y in zip(a, b):
        u = unify_tag(x, y)
        if u is None:
            return None
        out.append(u)
    return tuple(out)


def choice_compose(effects: list[StackEffect]) -> StackEffect:
    """All alternatives of a prioritized choice must share one effect."""
    if len(effects) < 2:
        raise ValueError("choice_compose needs at least two effects")
    pops, pushes = effects[0].pops, effects[0].pushes
    for i, eff in enumerate(effects[1:], start=1):
        p = _unify_lists(pops, eff.pops)
        q = _unify_lists(pushes, eff.pushes)
        if p is None or q is None:
            raise BranchEffectMismatch(i, f"{StackEffect(pops, pushes)} vs {eff}")
        pops, pushes = p, q
    return StackEffect(pops, pushes)


def repetition_shape(inner: StackEffect) -> tuple[str, tuple[str, ...] | str | None]:
    """Classify a repetition body effect.

    Returns ("neutral", None), ("reduction", resolved pushes) when the
    pushes re-supply the topmost pops, or ("collecting", element tag) for a
    body that pushes exactly one value and pops nothing.
    """
    if not inner.pops and not inner.pushes:
        return "neutral", None
    k = len(inner.pushes)
    if k and len(inner.pops) >= k:
        resolved = _unify_lists(inner.pushes, inner.pops[len(inner.pops) - k:])
        if resolved is not None:
            return "reduction", resolved
    if not inner.pops and k == 1:
        return "collecting", inner.pushes[0]
    raise UnsupportedRepetitionEffect(inner, "repetition")


def repetition_effect(inner: StackEffect, kind: str) -> StackEffect:
    """Effect of optional / zeroOrMore / oneOrMore over a body effect."""
    if kind not in ("zeroOrMore", "oneOrMore", "optional"):
        raise ValueError(f"unknown repetition kind {kind!r}")
    try:
        shape, info = repetition_shape(inner)
    except UnsupportedRepetitionEffect:
        raise UnsupportedRepetitionEffect(inner, kind) from None
    if shape == "neutral":
        return NEUTRAL
    if shape == "collecting":
        return StackEffect((), (f"ListOf({info})",))
    if kind == "oneOrMore":
        return inner
    return StackEffect(info, info)


# ---------------------------------------------------------------------------
# inference over expression trees

_REP_KIND = {r.Optional: "optional", r.ZeroOrMore: "zeroOrMore", r.OneOrMore: "oneOrMore"}


def infer_effect(expr: r.RuleExpr, g: r.Grammar, _active: frozenset[str] = frozenset(),
                 _memo: dict | None = None) -> StackEffect:
    """Infer the stack effect of an expression within a grammar.

    Basic matchers are neutral. References use the declared effect when one
    exists; otherwise inference recurses through the target, which must not
    be cyclic (cyclic rules require declarations).

    ``_memo`` keeps results, by rule name for references and by node id
    otherwise, so each is inferred once; share one only while the grammar
    and its nodes live. A success does not depend on ``_active``: one that
    reached an active rule would reach it again through its own cycle. Nor
    does a failure other than UndeclaredRecursiveRule, which passes through
    every enclosing node unchanged: the memo keeps the error and raises it
    again, but not that one, so a rule chain that ends in a failing rule
    fails without recursing through the chain.
    """
    t = type(expr)
    if t in r.TERMINALS:
        return NEUTRAL
    if _memo is None:
        _memo = {}
    key = expr.name if t is r.RuleRef else id(expr)
    eff = _memo.get(key)
    if eff is not None:
        if isinstance(eff, EffectError):
            raise eff.with_traceback(None)
        return eff
    try:
        if t is r.Capture:
            inner = infer_effect(expr.inner, g, _active, _memo)
            eff = StackEffect(inner.pops, inner.pushes + ("Str",))
        elif t is r.Push:
            eff = NEUTRAL if expr.value.tag == "Unit" else StackEffect((), (expr.value.tag,))
        elif t is r.Drop:
            eff = StackEffect((WILDCARD,) * expr.count, ())
        elif t is r.Action:
            eff = expr.effect
        elif t is r.Quiet:
            eff = infer_effect(expr.inner, g, _active, _memo)
        elif t in (r.AndPredicate, r.NotPredicate):
            infer_effect(expr.inner, g, _active, _memo)  # the body must still check
            eff = NEUTRAL
        elif t is r.Sequence:
            eff = NEUTRAL
            for child in expr.children:
                if type(child) not in r.TERMINALS:  # a terminal is neutral
                    eff = seq_compose(eff, infer_effect(child, g, _active, _memo))
        elif t is r.FirstOf:
            branches = [infer_effect(a, g, _active, _memo) for a in expr.alternatives]
            eff = branches[0] if len(branches) == 1 else choice_compose(branches)
        elif t in _REP_KIND:
            eff = repetition_effect(infer_effect(expr.inner, g, _active, _memo), _REP_KIND[t])
        elif t is r.RuleRef:
            rd = g.rules[expr.name]
            eff = rd.effect
            if eff is None:
                if expr.name in _active:
                    raise UndeclaredRecursiveRule(expr.name)
                eff = infer_effect(rd.expr, g, _active | {expr.name}, _memo)
        else:
            raise TypeError(f"unknown rule expression: {expr!r}")
    except EffectError as err:
        if type(err) is not UndeclaredRecursiveRule:
            _memo[key] = err
        raise
    _memo[key] = eff
    return eff


def rule_effect(name: str, g: r.Grammar, memo: dict) -> StackEffect:
    """The effect of a rule's body, unified with the rule's declared effect
    where it has one; raises the EffectError that stops either. memo is
    ``infer_effect``'s."""
    rd = g.rules[name]
    inferred = infer_effect(rd.expr, g, frozenset({name}), memo)
    if rd.effect is not None:
        pops = _unify_lists(inferred.pops, rd.effect.pops)
        pushes = _unify_lists(inferred.pushes, rd.effect.pushes)
        if pops is None or pushes is None:
            raise EffectMismatch(0, str(rd.effect), str(inferred))
        inferred = StackEffect(pops, pushes)
    return inferred


def check_grammar(g: r.Grammar) -> dict[str, StackEffect]:
    """Check every rule's effect and return the per-rule report.

    Each inferred effect must unify with the rule's declaration (if any),
    and the start rule must pop nothing, since a run begins with an empty
    stack. Raises EffectCheckError with all per-rule failures, and
    GrammarTooDeep when a rule is nested too deeply to infer. Rules are
    inferred callee first and reported in grammar order.
    """
    # every rule after the undeclared rules it references: a reference then
    # finds its rule's effect in the memo, so no inference recurses through
    # a chain of references
    undeclared = {name for name, rd in g.rules.items() if rd.effect is None}
    outcome: dict[str, StackEffect | EffectError] = {}
    memo: dict = {}
    try:
        calls = {name: [n.name for n in r.walk(rd.expr)
                        if type(n) is r.RuleRef and n.name in undeclared]
                 for name, rd in g.rules.items()}
        for name in r.depth_first(calls)[0]:
            try:
                outcome[name] = rule_effect(name, g, memo)
            except EffectError as err:
                outcome[name] = err
    except RecursionError:
        raise r.GrammarTooDeep() from None
    report = {name: outcome[name] for name in g.rules
              if not isinstance(outcome[name], EffectError)}
    issues = [(name, outcome[name]) for name in g.rules if name not in report]
    if g.start in report and report[g.start].pops:
        issues.append((g.start, StartRulePops(g.start, report[g.start].pops)))
    if issues:
        raise EffectCheckError(issues)
    return report


# ---------------------------------------------------------------------------
# node-building actions


@record
class ConsFn:
    """The function of a ``cons`` action: builds the node Label(v1..vn).

    The engine recognizes it by its type and builds the node itself.
    """

    label: str

    def __call__(self, *args: Value) -> Value:
        return Node(self.label, args)


def cons(label: str, arity: int, pops: tuple[str, ...] | None = None) -> r.Action:
    """Action that pops ``arity`` values and pushes the node Label(v1..vn).

    Arguments are assigned deepest-first: the first popped value becomes the
    last child. Pop tags default to wildcards; the pushed value is tagged
    ``Node``, and so is the effect.
    """
    effect = StackEffect(pops if pops is not None else (WILDCARD,) * arity, ("Node",))
    return r.Action(arity, ConsFn(label), effect, name=f"cons({label},{arity})")
