import random

from pegstack.effects import check_grammar
from pegstack.engine import Parser, ParserState
from pegstack.optimize import optimize

from generators import gen_grammar, gen_input


def _outcome(grammar, text, start=None):
    parser = Parser(grammar)
    state = ParserState(text)
    ok = parser.match_rule(state, start or grammar.start)
    return ok, state.cursor, state.stack.values()


def test_named_predicate_keeps_name_through_compilation(calc_grammar):
    opt = optimize(calc_grammar)
    err = Parser(opt).run("1+2!3").error
    assert "Digit" in err.expected()


# -- pipeline ----------------------------------------------------------------------------

def test_empty_pass_list_is_identity(calc_grammar):
    assert optimize(calc_grammar, ()) == calc_grammar


def test_optimize_is_idempotent_on_calculator(calc_grammar):
    once = optimize(calc_grammar)
    twice = optimize(once)
    assert once == twice


def test_effect_report_is_preserved(calc_grammar):
    before = check_grammar(calc_grammar)
    after = check_grammar(optimize(calc_grammar))
    assert before == after


def test_pipeline_equivalence_randomized():
    rng = random.Random(17)
    for _ in range(250):
        g = gen_grammar(rng)
        out = optimize(g)
        for _ in range(3):
            text = gen_input(rng)
            assert _outcome(out, text) == _outcome(g, text)


def test_optimized_steps_do_not_increase(calc_grammar):
    opt = optimize(calc_grammar)
    total_plain = total_opt = 0
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 12)
        text = "".join(rng.choice("0123456789+-*/()") for _ in range(n))
        total_plain += Parser(calc_grammar).run_phase(text).stats.steps
        total_opt += Parser(opt).run_phase(text).stats.steps
    assert total_opt <= total_plain
