import random

import pytest
from hypothesis import given, strategies as st

from pegstack import effects, rules as r
from pegstack.effects import (BranchEffectMismatch, EffectCheckError, EffectError,
                              EffectMismatch, NEUTRAL, StackEffect, StartRulePops,
                              UndeclaredRecursiveRule, UnsupportedRepetitionEffect,
                              WILDCARD, check_grammar, choice_compose, cons, infer_effect,
                              repetition_effect, seq_compose, unify_tag)
from pegstack.engine import Parser, ParserState
from pegstack.notation import parse_grammar
from pegstack.rules import DIGIT, validate_grammar
from pegstack.values import Value, node_value

from generators import gen_effect
from reference_interp import RefFault, ref_run
from tag_check import tag_checked


def eff(pops, pushes):
    return StackEffect(tuple(pops), tuple(pushes))


# -- primitive effects ---------------------------------------------------------

def test_basic_matchers_are_neutral():
    g = r.grammar({"A": r.ch("a")})
    for expr in (r.ch("a"), r.Str("ab"), r.ANY, r.EOI, r.any_of("xy"),
                 r.none_of("xy"), r.CharPred(DIGIT), r.IgnoreCaseStr("ab")):
        assert infer_effect(expr, g) == NEUTRAL


def test_capture_appends_str_to_pushes():
    g = r.grammar({"A": r.ch("a")})
    expr = r.capture(r.one_or_more(r.CharPred(DIGIT)))
    assert infer_effect(expr, g) == eff([], ["Str"])


def test_push_node_value():
    g = r.grammar({"A": r.ch("a")})
    assert infer_effect(r.push(node_value("N")), g) == eff([], ["Node"])


def test_push_unit_like_value_is_neutral():
    g = r.grammar({"A": r.ch("a")})
    assert infer_effect(r.push(Value("Unit", None)), g) == NEUTRAL


def test_drop_pops_wildcards():
    g = r.grammar({"A": r.ch("a")})
    assert infer_effect(r.drop(2), g) == eff([WILDCARD, WILDCARD], [])


def test_predicates_are_neutral_but_check_their_body():
    g = r.grammar({"A": r.ch("a")})
    assert infer_effect(r.and_pred(r.capture(r.ch("a"))), g) == NEUTRAL
    bad = r.not_pred(r.first_of(r.capture(r.ch("a")), r.ch("b")))
    with pytest.raises(BranchEffectMismatch):
        infer_effect(bad, g)


def test_undeclared_recursive_rule():
    g = r.grammar({"A": r.first_of(r.seq(r.ch("x"), r.ref("A")), r.ch("y"))})
    with pytest.raises(UndeclaredRecursiveRule):
        infer_effect(g.rules["A"].expr, g, frozenset({"A"}))
    with pytest.raises(EffectCheckError):
        check_grammar(g)


def test_a_long_chain_of_undeclared_rules_checks():
    # R_i <- R_i+1 'x': each rule is inferred after the rules it references,
    # so no inference recurses through the chain
    rules = {f"R{i}": r.seq(r.ref(f"R{i + 1}"), r.ch("x")) for i in range(1500)}
    rules["R1500"] = r.capture(r.ch("a"))
    report = check_grammar(validate_grammar(r.grammar(rules, start="R0")))
    assert list(report) == list(rules)  # grammar order
    assert set(report.values()) == {eff([], ["Str"])}


def test_a_deep_nest_checks_as_too_deep_not_as_a_recursion_error():
    # an unvalidated 600-level ('b' e)? nest: the walk that lists each
    # rule's references recurses too, and must report the same fault
    expr = r.ch("a")
    for _ in range(600):
        expr = r.opt(r.seq(r.ch("b"), expr))
    with pytest.raises(r.GrammarTooDeep):
        check_grammar(r.grammar({"Top": expr}))


def test_effect_errors_are_reported_in_grammar_order():
    # B is inferred before A, which references it; both report B's mismatch
    g = r.grammar({"A": r.seq(r.ch("x"), r.ref("B")), "C": r.ch("z"),
                   "B": r.first_of(r.capture(r.ch("y")), r.ch("z"))})
    with pytest.raises(EffectCheckError) as exc:
        check_grammar(g)
    assert [(name, type(err)) for name, err in exc.value.issues] == [
        ("A", BranchEffectMismatch), ("B", BranchEffectMismatch)]


@pytest.mark.parametrize("length", [3, 600, 1500])
def test_a_chain_ending_in_a_failing_rule_reports_each_rule_without_recursing(length):
    # R_i <- R_i+1 'x' ending in capture('a') / 'b': the memo keeps the
    # failure, so each reference raises it again instead of re-inferring
    # the rest of the chain, and every rule reports the last rule's error
    rules = {f"R{i}": r.seq(r.ref(f"R{i + 1}"), r.ch("x")) for i in range(length)}
    rules[f"R{length}"] = r.first_of(r.capture(r.ch("a")), r.ch("b"))
    with pytest.raises(EffectCheckError) as exc:
        check_grammar(validate_grammar(r.grammar(rules, start="R0")))
    assert [name for name, _ in exc.value.issues] == list(rules)
    assert {str(err) for _, err in exc.value.issues} == {
        "alternative 1 does not unify with the preceding alternatives: ([],[Str]) vs ([],[])"}


def test_a_failure_that_depends_on_the_active_rules_is_not_kept():
    # inferring A's body with A active fails, but A itself checks once
    # inferred from outside, with no rule active
    g = r.grammar({"A": r.first_of(r.seq(r.ch("x"), r.ref("B")), r.ch("y")),
                   "B": r.seq(r.ch("z"), r.ref("A"))})
    memo: dict = {}
    with pytest.raises(UndeclaredRecursiveRule):
        infer_effect(g.rules["A"].expr, g, frozenset({"A"}), memo)
    assert not any(isinstance(v, EffectError) for v in memo.values())
    bad = r.seq(r.ch("x"), r.first_of(r.capture(r.ch("a")), r.ch("b")))
    for _ in range(2):  # the second time from the memo
        with pytest.raises(BranchEffectMismatch):
            infer_effect(bad, g, frozenset(), memo)


def test_a_nest_of_options_over_a_failing_option_builds_in_linear_time():
    # ('b' e)? around drop?: each enclosing option's collect tag raises the
    # kept failure of its body instead of re-inferring the whole nest
    def calls(levels):
        expr = r.opt(r.drop(1))
        for _ in range(levels):
            expr = r.opt(r.seq(r.ch("b"), expr))
        counted = []
        original = effects.infer_effect

        def counting(*args, **kwargs):
            counted.append(1)
            return original(*args, **kwargs)

        effects.infer_effect = counting
        try:
            Parser(r.grammar({"Top": expr}))
        finally:
            effects.infer_effect = original
        return len(counted)

    assert calls(180) < 3.5 * calls(60)


# -- sequence composition --------------------------------------------------------

def test_seq_compose_disjoint_pushes():
    assert seq_compose(eff([], ["A"]), eff([], ["B"])) == eff([], ["A", "B"])


def test_seq_compose_right_pops_from_left_pushes():
    lhs = eff(["A", "B", "C"], ["D", "E", "F"])
    rhs = eff(["F"], ["G", "H"])
    assert seq_compose(lhs, rhs) == eff(["A", "B", "C"], ["D", "E", "G", "H"])


def test_seq_compose_deficit_demanded_from_deeper():
    lhs = eff(["A"], ["B", "C"])
    rhs = eff(["D", "B", "C"], ["E", "F"])
    assert seq_compose(lhs, rhs) == eff(["D", "A"], ["E", "F"])


def test_seq_compose_overlap_must_unify():
    with pytest.raises(EffectMismatch) as exc:
        seq_compose(eff([], ["A"]), eff(["B"], []))
    assert exc.value.expected == "B" and exc.value.found == "A"


def test_seq_compose_wildcard_overlap():
    assert seq_compose(eff([], [WILDCARD]), eff(["B"], [])) == eff([], [])
    assert seq_compose(eff([], ["A"]), eff([WILDCARD], ["Z"])) == eff([], ["Z"])


# -- choice composition -----------------------------------------------------------

def test_choice_of_neutrals():
    assert choice_compose([NEUTRAL, NEUTRAL]) == NEUTRAL


def test_choice_of_matching_node_pushers():
    assert choice_compose([eff([], ["Node"]), eff([], ["Node"])]) == eff([], ["Node"])


def test_choice_mismatch_reports_alternative_index():
    # the two branches demonstrably diverge in stack growth at runtime:
    g = validate_grammar(r.grammar({
        "P": r.capture(r.ch("a")),
        "Q": r.ch("a"),
    }))
    ok_p, _, stack_p = ref_run(g, "a", start="P")
    ok_q, _, stack_q = ref_run(g, "a", start="Q")
    assert ok_p and ok_q and len(stack_p) != len(stack_q)

    with pytest.raises(BranchEffectMismatch) as exc:
        choice_compose([eff([], ["Node"]), eff([], [])])
    assert exc.value.index == 1


def test_choice_resolves_wildcards_consistently():
    assert choice_compose([eff([], [WILDCARD]), eff([], ["Node"])]) == eff([], ["Node"])


# -- repetition -------------------------------------------------------------------

def test_zero_or_more_reduction_typing():
    inner = eff(["Int", "Int"], ["Int"])
    assert repetition_effect(inner, "zeroOrMore") == eff(["Int"], ["Int"])


def test_zero_or_more_neutral():
    assert repetition_effect(NEUTRAL, "zeroOrMore") == NEUTRAL


def test_one_or_more_reduction_matches_sequence_derivation():
    inner = eff(["Int", "Int"], ["Int"])
    star = repetition_effect(inner, "zeroOrMore")
    # e+ = e e*, so the effect must equal composing the body with the star
    assert repetition_effect(inner, "oneOrMore") == seq_compose(inner, star)
    assert repetition_effect(inner, "oneOrMore") == inner


def test_collecting_repetition():
    assert repetition_effect(eff([], ["Str"]), "zeroOrMore") == eff([], ["ListOf(Str)"])
    assert repetition_effect(eff([], ["Node"]), "oneOrMore") == eff([], ["ListOf(Node)"])
    assert repetition_effect(eff([], ["Str"]), "optional") == eff([], ["ListOf(Str)"])


def test_optional_reduction():
    inner = eff(["Int", "Int"], ["Int"])
    assert repetition_effect(inner, "optional") == eff(["Int"], ["Int"])


def test_unsupported_repetition_shapes():
    for inner in (eff(["A"], ["B"]), eff([], ["A", "B"]), eff(["A"], ["B", "A"])):
        with pytest.raises(UnsupportedRepetitionEffect):
            repetition_effect(inner, "zeroOrMore")


# -- grammar checking ----------------------------------------------------------------

def test_calculator_rules_all_check(calc_grammar):
    report = check_grammar(calc_grammar)
    assert set(report) == set(calc_grammar.rules)
    assert report["Expression"] == eff([], ["Node"])
    assert report["Number"] == eff([], ["Node"])
    assert report["InputLine"].pops == ()


def test_bare_drop_at_start_pops_empty_stack():
    g = validate_grammar(r.grammar({"Top": r.seq(r.ch("a"), r.drop(1))}))
    with pytest.raises(EffectCheckError) as exc:
        check_grammar(g)
    assert any(isinstance(e, StartRulePops) for _, e in exc.value.issues)


def test_action_overdraw_is_rejected_and_would_underflow():
    # R pops two values but only the capture supplies one
    text = "R : (0 -> 1) <- capture('a') 'b' ~> cons(N,2)"
    with pytest.raises(EffectCheckError) as exc:
        parse_grammar(text)
    assert any(isinstance(e, EffectMismatch) for _, e in exc.value.issues)

    # the runtime oracle confirms the diagnosis: the unchecked tree underflows
    expr = r.seq(r.capture(r.ch("a")), r.ch("b"), cons("N", 2))
    g = validate_grammar(r.grammar({"R": expr}))
    with pytest.raises(RefFault):
        ref_run(g, "ab")
    assert Parser(g).run("ab").kind == "internal-fault"


def test_undeclared_start_that_pops_is_start_rule_error():
    expr = r.seq(r.capture(r.ch("a")), r.ch("b"), cons("N", 2))
    g = validate_grammar(r.grammar({"R": expr}))
    with pytest.raises(EffectCheckError) as exc:
        check_grammar(g)
    assert any(isinstance(e, StartRulePops) for _, e in exc.value.issues)


def test_cons_declares_the_tag_of_the_node_it_builds():
    # a cons always pushes a Node value, so its effect pushes Node: a popping
    # action that expects Node checks, and a checked run agrees with it
    def wrap(node):
        return node_value("Wrap", node)

    popper = r.Action(1, wrap, StackEffect(("Node",), ("Node",)), name="wrap")
    g = validate_grammar(r.grammar({"Top": r.seq(r.capture(r.ch("a")), cons("Leaf", 1), popper)}))
    assert check_grammar(g)["Top"] == StackEffect((), ("Node",))
    checked, findings = tag_checked(g)
    state = ParserState("a")
    assert Parser(checked).match_rule(state, "Top")
    assert findings == []
    assert state.stack.values() == (node_value("Wrap", node_value("Leaf", Value("Str", "a"))),)

    # no option declares another tag for the node, and a popping action that
    # expects another tag is rejected before a run
    with pytest.raises(TypeError):
        cons("Leaf", 1, push="Leaf")
    leaf = r.Action(1, wrap, StackEffect(("Leaf",), ("Node",)), name="leaf")
    g = validate_grammar(r.grammar({"Top": r.seq(r.capture(r.ch("a")), cons("Leaf", 1), leaf)}))
    with pytest.raises(EffectCheckError):
        check_grammar(g)


def test_declaration_must_unify_with_inferred():
    g = validate_grammar(r.grammar({
        "Top": r.RuleDef(r.capture(r.ch("a")), StackEffect((), ("Node",))),
    }))
    with pytest.raises(EffectCheckError):
        check_grammar(g)


# -- known limits of the effect discipline (documented behavior) ---------------------

CONCAT2 = r.Action(2, lambda a, b: Value("Str", a.payload + b.payload),
                   StackEffect(("Str", "Str"), ("Str",)), name="concat")


def test_reduction_typing_is_shape_only_and_engine_fails_safely():
    # The repetition rule types the body by its effect shape alone. A body
    # that pops two pre-existing values every iteration has the same shape
    # as a well-formed fold (which re-supplies the accumulator), so it
    # passes the check, yet enough iterations drain the stack. The engine
    # must then fail as an internal fault rather than crash or mis-parse.
    g = validate_grammar(r.grammar({
        "Top": r.seq(r.push(Value("Str", "a")), r.push(Value("Str", "b")),
                     r.push(Value("Str", "c")),
                     r.zero_or_more(r.seq(r.ch("x"), CONCAT2)), r.drop(1)),
    }))
    check_grammar(g)  # accepted by design
    assert Parser(g).run("xx").kind == "success"
    assert Parser(g).run("xxx").kind == "internal-fault"


def test_predicate_bodies_type_as_neutral_and_engine_fails_safely():
    # Predicates restore the stack, so they type as ([],[]) no matter what
    # the body pops; a body popping an empty stack still underflows at
    # runtime and must surface as an internal fault.
    g = validate_grammar(r.grammar({"Top": r.and_pred(r.drop(1))}))
    check_grammar(g)
    assert Parser(g).run("").kind == "internal-fault"


# -- algebra properties ----------------------------------------------------------------

def test_unify_tag_rules():
    assert unify_tag(WILDCARD, "A") == "A"
    assert unify_tag("A", WILDCARD) == "A"
    assert unify_tag(WILDCARD, WILDCARD) == WILDCARD
    assert unify_tag("A", "A") == "A"
    assert unify_tag("A", "B") is None


def _try_seq(a, b):
    try:
        return seq_compose(a, b)
    except EffectError:
        return None


@given(st.integers(0, 2 ** 32))
def test_associativity_spot(seed):
    rng = random.Random(seed)
    a, b, c = (gen_effect(rng) for _ in range(3))
    ab = _try_seq(a, b)
    bc = _try_seq(b, c)
    left = _try_seq(ab, c) if ab is not None else None
    right = _try_seq(a, bc) if bc is not None else None
    if left is not None and right is not None:
        assert left == right


def test_neutral_identity():
    rng = random.Random(2024)
    for _ in range(2000):
        e = gen_effect(rng)
        assert seq_compose(NEUTRAL, e) == e
        assert seq_compose(e, NEUTRAL) == e


def test_reduction_fixpoint():
    rng = random.Random(77)
    count = 0
    for _ in range(5000):
        inner = gen_effect(rng)
        try:
            from pegstack.effects import repetition_shape
            shape, _ = repetition_shape(inner)
        except EffectError:
            continue
        if shape == "collecting":
            continue
        result = repetition_effect(inner, "zeroOrMore")
        assert seq_compose(result, result) == result
        count += 1
    assert count > 200
