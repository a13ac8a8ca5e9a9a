"""Independent reference interpreter used as the equivalence oracle.

Direct transcription of the formal step relation over (expression, input,
stack) triples: standard expressions leave the stack unchanged; push appends
a value; a successful capture pushes the matched input slice; an action of
arity n pops v1..vn (the first value popped is vn, assigned deepest-first)
and pushes the function result; failures return the original position and
stack. Implemented functionally over immutable tuples, so there is no
snapshot/restore machinery to share bugs with the engine under test.
"""

from __future__ import annotations

from pegstack import rules as r
from pegstack.engine import ACTION_FAIL
from pegstack.values import Value


class RefFault(Exception):
    """Underflow or raised action inside the reference interpreter."""


def ref_match(g, expr, text, pos, stack, mismatches=None):
    """Return (ok, position, stack); on failure the inputs come back unchanged.

    ``mismatches`` optionally records the positions of terminal mismatches
    (suppressed inside not-predicates, mirroring the engine's convention).
    """
    t = type(expr)

    def miss(at):
        if mismatches is not None:
            mismatches.append(at)
        return False, pos, stack

    if t is r.Ch:
        if pos < len(text) and text[pos] == expr.char:
            return True, pos + 1, stack
        return miss(pos)
    if t is r.IgnoreCaseCh:
        if pos < len(text) and text[pos].lower() == expr.char.lower():
            return True, pos + 1, stack
        return miss(pos)
    if t is r.Str:
        if text.startswith(expr.text, pos):
            return True, pos + len(expr.text), stack
        return miss(pos)
    if t is r.IgnoreCaseStr:
        end = pos + len(expr.text)
        if text[pos:end].lower() == expr.text.lower():
            return True, end, stack
        return miss(pos)
    if t in (r.CharPred, r.AnyOf):
        if pos < len(text) and expr.pred.contains(text[pos]):
            return True, pos + 1, stack
        return miss(pos)
    if t is r.NoneOf:
        if pos < len(text) and not expr.pred.contains(text[pos]):
            return True, pos + 1, stack
        return miss(pos)
    if t is r.AnyChar:
        if pos < len(text):
            return True, pos + 1, stack
        return miss(pos)
    if t is r.EndOfInput:
        if pos == len(text):
            return True, pos, stack
        return miss(pos)

    if t is r.Sequence:
        p, s = pos, stack
        for child in expr.children:
            ok, p, s = ref_match(g, child, text, p, s, mismatches)
            if not ok:
                return False, pos, stack
        return True, p, s
    if t is r.FirstOf:
        for alt in expr.alternatives:
            ok, p, s = ref_match(g, alt, text, pos, stack, mismatches)
            if ok:
                return True, p, s
        return False, pos, stack
    if t is r.Optional:
        ok, p, s = ref_match(g, expr.inner, text, pos, stack, mismatches)
        return (True, p, s) if ok else (True, pos, stack)
    if t is r.ZeroOrMore:
        p, s = pos, stack
        while True:
            ok, p2, s2 = ref_match(g, expr.inner, text, p, s, mismatches)
            if not ok:
                return True, p, s
            if p2 == p:  # zero-width success terminates the loop, discarded
                return True, p, s
            p, s = p2, s2
    if t is r.OneOrMore:
        ok, p, s = ref_match(g, expr.inner, text, pos, stack, mismatches)
        if not ok:
            return False, pos, stack
        while True:
            ok, p2, s2 = ref_match(g, expr.inner, text, p, s, mismatches)
            if not ok or p2 == p:
                return True, p, s
            p, s = p2, s2
    if t is r.AndPredicate:
        ok, _, _ = ref_match(g, expr.inner, text, pos, stack, mismatches)
        return ok, pos, stack
    if t is r.NotPredicate:
        ok, _, _ = ref_match(g, expr.inner, text, pos, stack, None)
        return (not ok), pos, stack
    if t is r.Capture:
        ok, p, s = ref_match(g, expr.inner, text, pos, stack, mismatches)
        if ok:
            return True, p, s + (Value("Str", text[pos:p]),)
        return False, pos, stack
    if t is r.Push:
        if expr.value.tag == "Unit":
            return True, pos, stack
        return True, pos, stack + (expr.value,)
    if t is r.Drop:
        if len(stack) < expr.count:
            raise RefFault("drop from a stack that is too small")
        return True, pos, stack[:len(stack) - expr.count]
    if t is r.Action:
        n = expr.arity
        if len(stack) < n:
            raise RefFault("action pops more values than the stack holds")
        args = stack[len(stack) - n:] if n else ()  # already deepest-first
        rest = stack[:len(stack) - n]
        try:
            out = expr.fn(*args)
        except Exception as exc:
            raise RefFault(f"action raised: {exc}") from exc
        if out is ACTION_FAIL:
            return False, pos, stack
        if out is None:
            return True, pos, rest
        if isinstance(out, Value):
            return True, pos, rest + (out,)
        return True, pos, rest + tuple(out)
    if t is r.Quiet:
        return ref_match(g, expr.inner, text, pos, stack, mismatches)
    if t is r.RuleRef:
        return ref_match(g, g.rules[expr.name].expr, text, pos, stack, mismatches)
    raise TypeError(f"reference interpreter: unknown expression {expr!r}")


def ref_run(g, text, start=None, mismatches=None):
    """Run a grammar's start rule; returns (ok, final position, final stack)."""
    name = start if start is not None else g.start
    return ref_match(g, g.rules[name].expr, text, 0, (), mismatches)
