import random

import pytest
from hypothesis import given, strategies as st

from pegstack import rules as r
from pegstack.engine import Parser, ParserState
from pegstack.rules import (ALPHA, DIGIT, LOWER_HEX_LETTER, CharPredicate, GrammarError,
                            validate_grammar)

from generators import gen_grammar, gen_input, gen_lowerable_grammar, gen_sound_grammar


# -- character predicates ----------------------------------------------------

def test_digit_membership():
    assert DIGIT.contains("7")
    assert not DIGIT.contains("a")


def test_lower_hex_letter():
    assert LOWER_HEX_LETTER.contains("f")
    assert not LOWER_HEX_LETTER.contains("g")
    assert not LOWER_HEX_LETTER.contains("A")


def test_alpha_matches_class_definition():
    for c in "azAZ":
        assert ALPHA.contains(c)
    assert not ALPHA.contains("0")


def test_mask_alone_decides_below_128():
    # the escape hatch must not override the bitmask for ASCII
    pred = CharPredicate(0, extra=lambda c: True)
    assert not pred.contains("a")
    assert pred.contains("é")


def test_non_ascii_without_extra_is_outside():
    assert not DIGIT.contains("١")  # arabic-indic digit needs the escape hatch


@given(st.text(alphabet=st.characters(max_codepoint=200), min_size=1, max_size=8),
       st.text(alphabet=st.characters(max_codepoint=200), min_size=1, max_size=8),
       st.characters(max_codepoint=200))
def test_union_is_pointwise_or(chars_a, chars_b, probe):
    p = CharPredicate.from_chars(chars_a)
    q = CharPredicate.from_chars(chars_b)
    assert p.union(q).contains(probe) == (p.contains(probe) or q.contains(probe))


# -- builders ------------------------------------------------------------------

def test_singleton_sequence_collapses():
    inner = r.ch("a")
    assert r.seq(inner) is inner
    assert r.first_of(inner) is inner


def test_multi_child_constructors():
    s = r.seq(r.ch("a"), r.ch("b"))
    assert isinstance(s, r.Sequence) and len(s.children) == 2
    f = r.first_of(r.ch("a"), r.ch("b"), r.ch("c"))
    assert isinstance(f, r.FirstOf) and len(f.alternatives) == 3


def test_construction_guards():
    with pytest.raises(ValueError):
        r.Ch("ab")
    with pytest.raises(ValueError):
        r.Drop(0)
    with pytest.raises(ValueError):
        r.Sequence(())


# -- validation ----------------------------------------------------------------

def test_calculator_grammar_is_valid(calc_grammar):
    assert calc_grammar.validated
    assert set(calc_grammar.rules) == {"InputLine", "Expression", "Term", "Factor", "Number"}


def test_direct_left_recursion_rejected():
    g = r.grammar({"A": r.seq(r.ref("A"), r.ch("x"))})
    with pytest.raises(GrammarError) as exc:
        validate_grammar(g)
    issues = [i for i in exc.value.issues if i.kind == "left-recursion"]
    assert issues and issues[0].cycle == ("A",)


def _chain(n, last):
    """R_i <- R_i+1 'x' for i < n, then R_n <- last."""
    rules = {f"R{i}": r.seq(r.ref(f"R{i + 1}"), r.ch("x")) for i in range(n)}
    rules[f"R{n}"] = last
    return r.grammar(rules, start="R0")


def test_a_long_chain_of_references_validates_and_its_cycle_is_named_in_order():
    # the walk for left recursion follows references without recursing
    assert validate_grammar(_chain(1500, r.ch("a"))).validated
    with pytest.raises(GrammarError) as exc:
        validate_grammar(_chain(1500, r.seq(r.ref("R0"), r.ch("y"))))
    [issue] = exc.value.issues
    assert issue.cycle == tuple(f"R{i}" for i in range(1501))


def _nullable_prefix_reach(rules_nullable, rules_heads):
    """Tiny fixpoint oracle: transitive same-position reachability pairs."""
    pairs = {(a, b) for a, heads in rules_heads.items() for b in heads}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def test_indirect_left_recursion_through_nullable_prefix():
    # A <- B ; B <- 'x'? A
    g = r.grammar({
        "A": r.ref("B"),
        "B": r.seq(r.opt(r.ch("x")), r.ref("A")),
    })
    # independent fixpoint over the 2-rule graph: 'x'? is nullable, so B can
    # reach A at the same position, and A reaches B directly
    heads = {"A": {"B"}, "B": {"A"}}
    pairs = _nullable_prefix_reach({"A": False, "B": False}, heads)
    assert ("A", "A") in pairs and ("B", "B") in pairs

    with pytest.raises(GrammarError) as exc:
        validate_grammar(g)
    issues = [i for i in exc.value.issues if i.kind == "left-recursion"]
    assert issues
    assert set(issues[0].cycle) == {"A", "B"}


def test_non_nullable_prefix_is_not_left_recursion():
    g = r.grammar({
        "A": r.ref("B"),
        "B": r.seq(r.ch("x"), r.ref("A")),
    })
    validate_grammar(g)  # 'x' consumes, so the cycle always advances


def test_unresolved_reference():
    g = r.grammar({"A": r.ref("B")})
    with pytest.raises(GrammarError) as exc:
        validate_grammar(g)
    assert any(i.kind == "unresolved-ref" and "B" in i.detail for i in exc.value.issues)


def test_empty_literal_rejected():
    with pytest.raises(GrammarError) as exc:
        validate_grammar(r.grammar({"A": r.Str("")}))
    assert any(i.kind == "empty-literal" for i in exc.value.issues)


def test_missing_start():
    with pytest.raises(GrammarError) as exc:
        validate_grammar(r.Grammar({"A": r.RuleDef(r.ch("a"))}, start="Nope"))
    assert any(i.kind == "missing-start" for i in exc.value.issues)


def test_validation_is_idempotent():
    g = r.grammar({
        "A": r.Sequence((r.FirstOf((r.ch("a"),)),)),  # nested singletons
        "B": r.ch("b"),
    })
    once = validate_grammar(g)
    twice = validate_grammar(once)
    assert once == twice
    assert once.rules["A"].expr == r.ch("a")


def test_nullability_facts():
    nullmap = {}
    assert r.is_nullable(r.opt(r.ch("a")), nullmap)
    assert r.is_nullable(r.zero_or_more(r.ch("a")), nullmap)
    assert r.is_nullable(r.not_pred(r.ch("a")), nullmap)
    assert r.is_nullable(r.EOI, nullmap)
    assert not r.is_nullable(r.ch("a"), nullmap)
    assert not r.is_nullable(r.one_or_more(r.ch("a")), nullmap)
    assert r.is_nullable(r.one_or_more(r.opt(r.ch("a"))), nullmap)
    assert r.is_nullable(r.seq(r.opt(r.ch("a")), r.opt(r.ch("b"))), nullmap)
    assert not r.is_nullable(r.seq(r.opt(r.ch("a")), r.ch("b")), nullmap)


class _Reentry:
    """Observer that records each rule entered again at a cursor where it is still open."""

    def __init__(self):
        self.open: list[tuple[str, int]] = []
        self.violations: list[tuple[str, int]] = []

    def enter(self, name, at):
        if (name, at) in self.open:
            self.violations.append((name, at))
        self.open.append((name, at))

    def leave(self, name, at, ok, pos):
        assert self.open.pop() == (name, at)

    def event(self, node, cursor, outcome, moved_from, moved_to):
        pass


def _reentries(parser, text, start):
    state = ParserState(text)
    state.observer = probe = _Reentry()
    parser.match_rule(state, start)
    assert probe.open == []
    return probe.violations


def test_validated_grammars_never_reenter_same_rule_same_cursor(calc_grammar):
    """An observer of the engine sees no same-position rule re-entry."""
    parser = Parser(calc_grammar)
    for text in ("1+2*3", "1+(2-3*4)/5", "((((1))))", "1+", "", "hello"):
        assert _reentries(parser, text, "InputLine") == []

    rng = random.Random(7)
    for _ in range(150):
        g = gen_grammar(rng)
        parser = Parser(g)
        for _ in range(3):
            assert _reentries(parser, gen_input(rng), g.start) == []


# -- rendering expressions -------------------------------------------------------

_PRECEDENCE = (0, 1, 2, 3)  # choice, sequence, prefix, suffix


def _recursive_text(expr, prec=0):
    """The notation of an expression, by recursion: the oracle of expr_text
    on trees shallow enough to recurse through."""
    t = type(expr)
    if t is r.FirstOf:
        out = " / ".join(_recursive_text(a, 1) for a in expr.alternatives)
        return f"({out})" if prec > 0 else out
    if t is r.Sequence:
        out = " ".join(_recursive_text(c, 2) for c in expr.children)
        return f"({out})" if prec > 1 else out
    if t in (r.AndPredicate, r.NotPredicate):
        out = ("&" if t is r.AndPredicate else "!") + _recursive_text(expr.inner, 3)
        return f"({out})" if prec > 2 else out
    if t in (r.Optional, r.ZeroOrMore, r.OneOrMore):
        mark = {r.Optional: "?", r.ZeroOrMore: "*", r.OneOrMore: "+"}[t]
        out = _recursive_text(expr.inner, 4) + mark
        return f"({out})" if prec > 3 else out
    if t is r.Quiet:
        return f"quiet({_recursive_text(expr.inner)})"
    if t is r.Capture:
        return f"capture({_recursive_text(expr.inner)})"
    return r.expr_text(expr)  # a leaf


def test_expr_text_agrees_with_a_recursive_rendering_on_random_grammars():
    rng = random.Random(2026)
    for i in range(300):
        grammar = (gen_grammar, gen_sound_grammar, gen_lowerable_grammar)[i % 3](rng)
        for rd in grammar.rules.values():
            for node in r.walk(rd.expr):
                for prec in _PRECEDENCE:
                    assert r.expr_text(node, prec) == _recursive_text(node, prec), node


def test_expr_text_renders_a_nest_deeper_than_the_recursion_limit():
    # unvalidated: validation recurses and rejects the nest first
    e = r.ch("a")
    for _ in range(600):
        e = r.opt(r.seq(r.ch("b"), e))
    assert r.expr_text(e) == "('b' " * 600 + "'a'" + ")?" * 600
    e = r.ch("a")
    for _ in range(3000):
        e = r.first_of(r.seq(r.ch("b"), e), r.ch("c"))
    assert r.expr_text(e) == "'b' (" * 2999 + "'b' 'a' / 'c'" + ") / 'c'" * 2999
