"""Seeded random grammars, inputs and effects for the equivalence suites.

Two grammar corpora:

* the oracle corpus (actions limited to capture/push/cons) keeps repetition
  bodies stack-neutral or in the canonical reduction shape, so the reference
  interpreter needs no list-collecting extension;
* the soundness corpus additionally exercises drop, string-concat actions
  and collecting repetitions, and builds every expression so that values are
  always pushed before anything pops them.
"""

from __future__ import annotations

import random

from pegstack import rules as r
from pegstack.effects import StackEffect, WILDCARD, cons
from pegstack.values import Tree, Value

ALPHABET = "abc"


def _concat_fn(a, b):
    return Value("Str", a.payload + b.payload)


CONCAT = r.Action(2, _concat_fn, StackEffect(("Str", "Str"), ("Str",)), name="concat")


def gen_input(rng: random.Random, max_len: int = 12) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(max_len + 1)))


def _terminal(rng: random.Random) -> r.RuleExpr:
    roll = rng.random()
    if roll < 0.35:
        return r.Ch(rng.choice(ALPHABET))
    if roll < 0.5:
        n = rng.randint(1, 2)
        return r.Str("".join(rng.choice(ALPHABET) for _ in range(n)))
    if roll < 0.65:
        k = rng.randint(1, 2)
        return r.any_of("".join(rng.sample(ALPHABET, k)))
    if roll < 0.75:
        return r.none_of(rng.choice(ALPHABET))
    if roll < 0.85:
        return r.ANY
    if roll < 0.95:
        return r.IgnoreCaseCh(rng.choice(ALPHABET.upper()))
    return r.IgnoreCaseStr(rng.choice(("AB", "bC")))


def gen_consuming(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """Expression guaranteed to advance the cursor when it matches."""
    if depth <= 0:
        return _terminal(rng)
    roll = rng.random()
    if roll < 0.4:
        return _terminal(rng)
    if roll < 0.55:
        return r.seq(gen_consuming(rng, depth - 1, helpers),
                     gen_neutral(rng, depth - 1, helpers))
    if roll < 0.7:
        return r.first_of(gen_consuming(rng, depth - 1, helpers),
                          gen_consuming(rng, depth - 1, helpers))
    if roll < 0.8:
        return r.one_or_more(gen_consuming(rng, depth - 1, helpers))
    if roll < 0.9 and helpers:
        return r.ref(rng.choice(helpers))
    return _terminal(rng)


def gen_neutral(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """Expression with a neutral stack effect ([],[])."""
    if depth <= 0:
        return _terminal(rng)
    roll = rng.random()
    if roll < 0.25:
        return _terminal(rng)
    if roll < 0.4:
        parts = [gen_neutral(rng, depth - 1, helpers) for _ in range(rng.randint(2, 3))]
        return r.seq(*parts)
    if roll < 0.55:
        alts = [gen_neutral(rng, depth - 1, helpers) for _ in range(rng.randint(2, 3))]
        return r.first_of(*alts)
    if roll < 0.63:
        return r.opt(gen_neutral(rng, depth - 1, helpers))
    if roll < 0.71:
        return r.zero_or_more(gen_consuming(rng, depth - 1, helpers))
    if roll < 0.77:
        return r.one_or_more(gen_consuming(rng, depth - 1, helpers))
    if roll < 0.83:
        return r.and_pred(gen_neutral(rng, depth - 1, helpers))
    if roll < 0.89:
        return r.not_pred(gen_neutral(rng, depth - 1, helpers))
    if roll < 0.94:
        return r.quiet(gen_neutral(rng, depth - 1, helpers))
    if helpers:
        return r.ref(rng.choice(helpers))
    return _terminal(rng)


def _label(rng: random.Random) -> str:
    return rng.choice(("N", "P", "Q"))


def gen_pusher(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """Expression with effect ([],[one value]); never pops below its own entry."""
    if depth <= 0:
        if rng.random() < 0.5:
            return r.capture(gen_consuming(rng, 0, helpers))
        return r.push(Value("Str", rng.choice(("x", "y"))))
    roll = rng.random()
    if roll < 0.25:
        return r.capture(gen_consuming(rng, depth - 1, helpers))
    if roll < 0.4:
        return r.push(Value("Str", rng.choice(("x", "y"))))
    if roll < 0.55:
        return r.seq(gen_neutral(rng, depth - 1, helpers),
                     gen_pusher(rng, depth - 1, helpers))
    if roll < 0.7:
        return r.first_of(gen_pusher(rng, depth - 1, helpers),
                          gen_pusher(rng, depth - 1, helpers))
    if roll < 0.85:
        # node construction: two pushed values folded into one
        return r.seq(gen_pusher(rng, depth - 1, helpers),
                     gen_pusher(rng, depth - 1, helpers),
                     cons(_label(rng), 2))
    # canonical reduction: accumulator, then fold while the body matches
    body = r.seq(gen_consuming(rng, depth - 1, helpers),
                 gen_pusher(rng, depth - 1, helpers),
                 cons(_label(rng), 2))
    return r.seq(gen_pusher(rng, depth - 1, helpers), r.zero_or_more(body))


def gen_grammar(rng: random.Random, max_depth: int = 4, stack: bool = True) -> r.Grammar:
    """Random validated grammar over {a,b,c} with a couple of helper rules."""
    helpers = ["Help0", "Help1"]
    defs = {
        "Top": gen_pusher(rng, max_depth, helpers) if stack and rng.random() < 0.7
               else gen_neutral(rng, max_depth, helpers),
        "Help0": gen_consuming(rng, 2, []),
        "Help1": gen_neutral(rng, 2, ["Help0"]),
    }
    return r.validate_grammar(r.grammar(defs, start="Top"))


def gen_pusher_str(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """Pusher restricted to the concrete Str tag (exercises tag checking)."""
    if depth <= 0:
        return r.capture(gen_consuming(rng, 0, helpers))
    roll = rng.random()
    if roll < 0.35:
        return r.capture(gen_consuming(rng, depth - 1, helpers))
    if roll < 0.5:
        return r.push(Value("Str", rng.choice(("x", "y"))))
    if roll < 0.65:
        return r.seq(gen_neutral(rng, depth - 1, helpers),
                     gen_pusher_str(rng, depth - 1, helpers))
    if roll < 0.8:
        return r.first_of(gen_pusher_str(rng, depth - 1, helpers),
                          gen_pusher_str(rng, depth - 1, helpers))
    return r.seq(gen_pusher_str(rng, depth - 1, helpers),
                 gen_pusher_str(rng, depth - 1, helpers), CONCAT)


def _node_leaf(rng: random.Random) -> r.RuleExpr:
    return r.push(Value("Node", Tree(_label(rng), ())))


def gen_pusher_node(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """Pusher restricted to the concrete Node tag."""
    if depth <= 0:
        return _node_leaf(rng)
    roll = rng.random()
    if roll < 0.3:
        return _node_leaf(rng)
    if roll < 0.45:
        return r.seq(gen_neutral(rng, depth - 1, helpers),
                     gen_pusher_node(rng, depth - 1, helpers))
    if roll < 0.6:
        return r.first_of(gen_pusher_node(rng, depth - 1, helpers),
                          gen_pusher_node(rng, depth - 1, helpers))
    if roll < 0.8:
        return r.seq(gen_pusher_node(rng, depth - 1, helpers),
                     gen_pusher_node(rng, depth - 1, helpers),
                     cons(_label(rng), 2, pops=("Node", "Node")))
    body = r.seq(gen_consuming(rng, depth - 1, helpers),
                 gen_pusher_node(rng, depth - 1, helpers),
                 cons(_label(rng), 2, pops=("Node", "Node")))
    return r.seq(gen_pusher_node(rng, depth - 1, helpers), r.zero_or_more(body))


def _sound_pusher(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    flavor = gen_pusher_str if rng.random() < 0.5 else gen_pusher_node
    return flavor(rng, depth, helpers)


def gen_sound_expr(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """Soundness-corpus expression: may drop/fold/collect, never underflows."""
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return gen_neutral(rng, depth, helpers)
    if roll < 0.55:  # push then throw away
        n = rng.randint(1, 2)
        parts = [_sound_pusher(rng, depth - 1, helpers) for _ in range(n)]
        return r.seq(*parts, r.drop(n))
    if roll < 0.65:  # string concat over two pushed values, then drop
        return r.seq(gen_pusher_str(rng, depth - 1, helpers),
                     gen_pusher_str(rng, depth - 1, helpers), CONCAT, r.drop(1))
    if roll < 0.75:  # collecting repetition
        rep = rng.choice((r.zero_or_more, r.one_or_more, r.opt))
        body = r.seq(gen_consuming(rng, depth - 1, helpers),
                     _sound_pusher(rng, depth - 1, helpers))
        return r.seq(rep(body), r.drop(1))
    if roll < 0.9:
        return r.seq(gen_sound_expr(rng, depth - 1, helpers),
                     gen_sound_expr(rng, depth - 1, helpers))
    return r.first_of(gen_sound_expr(rng, depth - 1, helpers),
                      gen_sound_expr(rng, depth - 1, helpers))


def gen_sound_grammar(rng: random.Random, max_depth: int = 4) -> r.Grammar:
    helpers = ["Help0"]
    defs = {
        "Top": gen_sound_expr(rng, max_depth, helpers),
        "Help0": gen_consuming(rng, 2, []),
    }
    return r.validate_grammar(r.grammar(defs, start="Top"))


EFFECT_TAGS = ("A", "B", "C", WILDCARD)


def gen_effect(rng: random.Random, max_len: int = 4) -> StackEffect:
    return StackEffect(
        tuple(rng.choice(EFFECT_TAGS) for _ in range(rng.randrange(max_len + 1))),
        tuple(rng.choice(EFFECT_TAGS) for _ in range(rng.randrange(max_len + 1))),
    )


def big_expression(rng: random.Random, target: int) -> str:
    """Calculator input of at least target characters: one long +-chain."""
    chunks = []
    size = 0

    def number():
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 12)))

    def factor(depth):
        if depth < 6 and rng.random() < 0.08:
            return "(" + chain(depth + 1, rng.randint(1, 3)) + ")"
        return number()

    def chain(depth, terms):
        parts = [factor(depth)]
        for _ in range(terms):
            parts.append(rng.choice("+-*/"))
            parts.append(factor(depth))
        return "".join(parts)

    while size < target:
        chunk = chain(0, rng.randint(2, 6))
        chunks.append(chunk)
        size += len(chunk) + 1
    return "+".join(chunks)
