"""Run-time tag check: the test oracle for the static effect checker.

``tag_checked(g)`` returns a copy of a grammar whose every ``Action`` calls
the original function through a wrapper, and the list the wrappers fill.
Before the call, a wrapper compares each popped value's tag with the tag
the action declares for that pop, in popping order, and records each one
that does not unify as ``(name, declared, found)``. The copy runs like the
original: a ``cons`` takes the general action path, which builds the same
node in the same number of steps.
"""

from __future__ import annotations

from pegstack import rules as r
from pegstack.effects import unify_tag


def tag_checked(g: r.Grammar) -> tuple[r.Grammar, list[tuple[str, str, str]]]:
    """The grammar with tag-checking actions, and the list of their findings."""
    findings: list[tuple[str, str, str]] = []

    def checked(action: r.Action):
        fn, pops, name = action.fn, action.effect.pops, action.name or "<action>"

        def check(*args):
            for j in range(len(args) - 1, -1, -1):  # in popping order
                if unify_tag(pops[j], args[j].tag) is None:
                    findings.append((name, pops[j], args[j].tag))
            return fn(*args)

        return r.Action(action.arity, check, action.effect, action.name)

    def rebuild(expr: r.RuleExpr) -> r.RuleExpr:
        t = type(expr)
        if t is r.Action:
            return checked(expr)
        if t is r.Sequence:
            return r.Sequence(tuple(map(rebuild, expr.children)))
        if t is r.FirstOf:
            return r.FirstOf(tuple(map(rebuild, expr.alternatives)))
        if t in r._WRAPPERS:
            return t(rebuild(expr.inner))
        return expr

    rules = {name: r.RuleDef(rebuild(rd.expr), rd.effect) for name, rd in g.rules.items()}
    return r.Grammar(rules, g.start, g.validated), findings
