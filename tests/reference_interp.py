"""Independent reference interpreter used as the equivalence oracle.

Direct transcription of the formal step relation over (expression, input,
stack) triples: standard expressions leave the stack unchanged; push appends
a value; a successful capture pushes the matched input slice; an action of
arity n pops v1..vn (the first value popped is vn, assigned deepest-first)
and pushes the function result; failures return the original position and
stack. A repetition or option whose body pushes exactly one value and pops
nothing (a collecting body, as the effect checker classifies it) bundles
the values of its iterations into one list value. Implemented functionally
over immutable tuples, so there is no snapshot/restore machinery to share
bugs with the engine under test.
"""

from __future__ import annotations

from pegstack import rules as r
from pegstack.effects import EffectError, infer_effect, repetition_shape
from pegstack.engine import ACTION_FAIL
from pegstack.errors import RuleTrace, descriptor_of
from pegstack.values import Value, list_value


class RefFault(Exception):
    """Underflow or raised action inside the reference interpreter."""


def _bundled(g, expr, stack, result):
    """result of a repetition or option that began on stack; a collecting
    one leaves its iterations' values as one list value."""
    try:
        shape, tag = repetition_shape(infer_effect(expr.inner, g))
    except (EffectError, KeyError, TypeError):
        return result
    ok, pos, s = result
    if not ok or shape != "collecting":
        return result
    return ok, pos, stack + (list_value(s[len(stack):], tag),)


def ref_match(g, expr, text, pos, stack, mismatches=None, trail=None, steps=None):
    """Return (ok, position, stack); on failure the inputs come back unchanged.

    ``mismatches`` optionally records the positions of terminal mismatches
    (suppressed inside not-predicates, mirroring the engine's convention).
    ``trail``, a (sink, rule path, quiet) triple, optionally records each
    such mismatch outside ``quiet`` as (position, rule path, terminal).
    ``steps``, a one-element list, optionally counts one step per
    expression matched, as the engine's exact counter does.
    """
    if steps is not None:
        steps[0] += 1
    t = type(expr)

    def miss(at):
        if mismatches is not None:
            mismatches.append(at)
        if trail is not None and not trail[2]:
            trail[0].append((at, trail[1], expr))
        return False, pos, stack

    if t is r.Ch:
        if pos < len(text) and text[pos] == expr.char:
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
    if t is r.CharPred:
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
            ok, p, s = ref_match(g, child, text, p, s, mismatches, trail, steps)
            if not ok:
                return False, pos, stack
        return True, p, s
    if t is r.FirstOf:
        for alt in expr.alternatives:
            ok, p, s = ref_match(g, alt, text, pos, stack, mismatches, trail, steps)
            if ok:
                return True, p, s
        return False, pos, stack
    if t is r.Optional or t is r.ZeroOrMore or t is r.OneOrMore:
        return _bundled(g, expr, stack, _repeat(g, expr, text, pos, stack, mismatches, trail, steps))
    if t is r.AndPredicate:
        ok, _, _ = ref_match(g, expr.inner, text, pos, stack, mismatches, trail, steps)
        return ok, pos, stack
    if t is r.NotPredicate:
        ok, _, _ = ref_match(g, expr.inner, text, pos, stack, None, None, steps)
        return (not ok), pos, stack
    if t is r.Capture:
        ok, p, s = ref_match(g, expr.inner, text, pos, stack, mismatches, trail, steps)
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
        quiet = None if trail is None else (trail[0], trail[1], True)
        return ref_match(g, expr.inner, text, pos, stack, mismatches, quiet, steps)
    if t is r.RuleRef:
        inner = None if trail is None else (trail[0], trail[1] + (expr.name,), trail[2])
        return ref_match(g, g.rules[expr.name].expr, text, pos, stack, mismatches, inner, steps)
    raise TypeError(f"reference interpreter: unknown expression {expr!r}")


def _repeat(g, expr, text, pos, stack, mismatches, trail, steps):
    """ref_match of a repetition or option, before bundling."""
    t = type(expr)
    ok, p, s = ref_match(g, expr.inner, text, pos, stack, mismatches, trail, steps)
    if not ok:
        return t is not r.OneOrMore, pos, stack
    if t is r.Optional:
        return True, p, s
    if t is r.ZeroOrMore and p == pos:  # zero-width success terminates the loop, discarded
        return True, pos, stack
    while True:
        ok, p2, s2 = ref_match(g, expr.inner, text, p, s, mismatches, trail, steps)
        if not ok or p2 == p:
            return True, p, s
        p, s = p2, s2


def ref_run(g, text, start=None, mismatches=None, steps=None):
    """Run a grammar's start rule; returns (ok, final position, final stack)."""
    name = start if start is not None else g.start
    return ref_match(g, g.rules[name].expr, text, 0, (), mismatches, None, steps)


def ref_traces(g, text, start=None):
    """Principal error index and rule traces, the two-phase way: the highest
    mismatch position, then every mismatch there outside quiet, deduplicated
    in first-occurrence order."""
    name = start if start is not None else g.start
    mismatches, sink = [], []
    ref_match(g, g.rules[name].expr, text, 0, (), mismatches, (sink, (name,), False))
    principal = max(mismatches, default=0)
    traces = {RuleTrace(path, descriptor_of(node)): None
              for at, path, node in sink if at == principal}
    return principal, tuple(traces)
