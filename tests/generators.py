"""Seeded random grammars, inputs and effects for the equivalence suites.

Three grammar corpora:

* the oracle corpus (actions limited to capture/push/cons) keeps repetition
  bodies stack-neutral or in the canonical reduction shape;
* the soundness corpus additionally exercises drop, string-concat actions,
  collecting repetitions and a helper rule on a reference cycle, and builds
  every expression so that values are always pushed before anything pops
  them. Its concat fails the match when its two strings are equal, so
  values decide which alternatives run on;
* the leaf corpus (``gen_leaf_grammar``) builds its values around captured
  texts: a ``cons`` of one child over a capture, and every other use of a
  captured text that the generated code must box first.
"""

from __future__ import annotations

import random

from pegstack import rules as r
from pegstack.effects import NEUTRAL, StackEffect, WILDCARD, cons
from pegstack.engine import ACTION_FAIL
from pegstack.values import Node, Value

ALPHABET = "abc"
# inputs for the lowerable corpus also hold a newline and a non-ASCII letter
LOWERABLE_ALPHABET = "abc\né"


def _concat_fn(a, b):
    if a.payload == b.payload:
        return ACTION_FAIL
    return Value("Str", a.payload + b.payload)


CONCAT = r.Action(2, _concat_fn, StackEffect(("Str", "Str"), ("Str",)), name="concat")


def gen_input(rng: random.Random, max_len: int = 12, alphabet: str = ALPHABET) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))


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
        return r.ignore_case(rng.choice(ALPHABET.upper()))
    return r.IgnoreCaseStr(rng.choice(("AB", "bC")))


def gen_consuming(rng: random.Random, depth: int, helpers: list[str],
                  quiet: bool = True) -> r.RuleExpr:
    """Expression guaranteed to advance the cursor when it matches. Without
    quiet, what would be a ``quiet(e)`` inside it is ``e``, from the same
    draws."""
    if depth <= 0:
        return _terminal(rng)
    roll = rng.random()
    if roll < 0.4:
        return _terminal(rng)
    if roll < 0.55:
        return r.seq(gen_consuming(rng, depth - 1, helpers, quiet),
                     gen_neutral(rng, depth - 1, helpers, quiet))
    if roll < 0.7:
        return r.first_of(gen_consuming(rng, depth - 1, helpers, quiet),
                          gen_consuming(rng, depth - 1, helpers, quiet))
    if roll < 0.8:
        return r.one_or_more(gen_consuming(rng, depth - 1, helpers, quiet))
    if roll < 0.9 and helpers:
        return r.ref(rng.choice(helpers))
    return _terminal(rng)


def gen_neutral(rng: random.Random, depth: int, helpers: list[str],
                quiet: bool = True) -> r.RuleExpr:
    """Expression with a neutral stack effect ([],[]); quiet as for
    ``gen_consuming``."""
    if depth <= 0:
        return _terminal(rng)
    roll = rng.random()
    if roll < 0.25:
        return _terminal(rng)
    if roll < 0.4:
        parts = [gen_neutral(rng, depth - 1, helpers, quiet) for _ in range(rng.randint(2, 3))]
        return r.seq(*parts)
    if roll < 0.55:
        alts = [gen_neutral(rng, depth - 1, helpers, quiet) for _ in range(rng.randint(2, 3))]
        return r.first_of(*alts)
    if roll < 0.63:
        return r.opt(gen_neutral(rng, depth - 1, helpers, quiet))
    if roll < 0.71:
        return r.zero_or_more(gen_consuming(rng, depth - 1, helpers, quiet))
    if roll < 0.77:
        return r.one_or_more(gen_consuming(rng, depth - 1, helpers, quiet))
    if roll < 0.83:
        return r.and_pred(gen_neutral(rng, depth - 1, helpers, quiet))
    if roll < 0.89:
        return r.not_pred(gen_neutral(rng, depth - 1, helpers, quiet))
    if roll < 0.94:
        inner = gen_neutral(rng, depth - 1, helpers, quiet)
        return r.quiet(inner) if quiet else inner
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


def _lowerable_terminal(rng: random.Random) -> r.RuleExpr:
    roll = rng.random()
    if roll < 0.8:
        return _terminal(rng)
    if roll < 0.9:
        return r.EOI
    return r.none_of(rng.choice(ALPHABET) + "é")  # decided in Python, never lowered


def gen_lowerable(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """Stack-free expression rich in what the fast table lowers to one regex:
    greedy parts followed by what they may have taken (where PEG, unlike a
    backtracking regex, never gives input back), nullable repetition
    bodies, predicates inside choices and at the start of their
    alternatives, a non-ASCII head beside a wide one,
    EOI inside a fragment and references to helper rules; no ``quiet``,
    which is no regex."""
    if depth <= 0:
        return _lowerable_terminal(rng)

    def sub():
        return gen_lowerable(rng, depth - 1, helpers)

    def short():
        return _terminal(rng) if rng.random() < 0.6 else sub()

    roll = rng.random()
    if roll < 0.12:
        greedy = rng.choice((
            lambda: r.opt(short()),
            lambda: r.zero_or_more(gen_consuming(rng, depth - 1, [], quiet=False)),
            lambda: (lambda x: r.first_of(x, r.seq(x, short())))(short()),
        ))()
        return r.seq(greedy, short())
    if roll < 0.22:
        return _lowerable_terminal(rng)
    if roll < 0.32:
        return r.seq(*(sub() for _ in range(rng.randint(2, 3))))
    if roll < 0.37:
        # an alternative may start with an & that looks past the next
        # character, which stops its head
        preds = (r.not_pred, lambda e: r.seq(r.and_pred(r.seq(r.ANY, e)), e), lambda e: e)
        return r.first_of(*(rng.choice(preds)(sub()) for _ in range(rng.randint(2, 3))))
    if roll < 0.45:
        # a head that takes any non-ASCII character (any character, a none-of
        # set, a class decided by extra) before a non-ASCII Ch head: a choice
        # dispatched on the next character must try both there
        wide = rng.choice((r.ANY, r.none_of(rng.choice(ALPHABET)), r.any_of("aé")))
        head = r.Ch("é")
        return r.first_of(r.seq(wide, short()), rng.choice((head, r.seq(head, short()))))
    if roll < 0.55:
        body = rng.choice((r.opt, r.zero_or_more, r.and_pred, r.not_pred))(sub())
        return rng.choice((r.zero_or_more, r.one_or_more))(body)
    if roll < 0.62:
        loop = rng.choice((r.zero_or_more, r.one_or_more))
        return loop(gen_consuming(rng, depth - 1, [], quiet=False))
    if roll < 0.7:
        return r.opt(sub())
    if roll < 0.78:
        return r.seq(sub(), r.EOI) if rng.random() < 0.5 else r.first_of(r.EOI, sub())
    if roll < 0.9 and helpers:
        return r.ref(rng.choice(helpers))
    return rng.choice((r.not_pred, r.and_pred))(sub())


def gen_lowerable_pusher(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """Pusher whose captures hold lowerable fragments, choices among them."""
    if depth <= 0:
        return r.capture(gen_lowerable(rng, 1, helpers))
    roll = rng.random()
    if roll < 0.3:
        return r.capture(r.first_of(gen_lowerable(rng, depth - 1, helpers),
                                    gen_lowerable(rng, depth - 1, helpers)))
    if roll < 0.5:
        return r.capture(gen_lowerable(rng, depth, helpers))
    if roll < 0.7:
        return r.seq(gen_lowerable(rng, depth - 1, helpers),
                     gen_lowerable_pusher(rng, depth - 1, helpers))
    if roll < 0.85:
        return r.first_of(gen_lowerable_pusher(rng, depth - 1, helpers),
                          gen_lowerable_pusher(rng, depth - 1, helpers))
    return r.seq(gen_lowerable_pusher(rng, depth - 1, helpers),
                 gen_lowerable_pusher(rng, depth - 1, helpers), cons(_label(rng), 2))


def gen_lowerable_grammar(rng: random.Random, max_depth: int = 4) -> r.Grammar:
    """Random validated grammar for the fast table: helper rules off any
    reference cycle, which fragments inline, and one recursive rule, which
    they must not."""
    helpers = ["Help0", "Help1", "Rec"]
    defs = {
        "Top": gen_lowerable_pusher(rng, max_depth, helpers) if rng.random() < 0.6
               else gen_lowerable(rng, max_depth, helpers),
        "Help0": gen_lowerable(rng, 2, []),
        "Help1": gen_lowerable(rng, 2, ["Help0"]),
        "Rec": r.first_of(r.seq(r.Ch(rng.choice(ALPHABET)), r.ref("Rec")),
                          gen_consuming(rng, 1, [], quiet=False)),
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
    return r.push(Node(_label(rng), ()))


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
    """Random validated soundness-corpus grammar. Its helper ``Rec`` is on a
    reference cycle and starts with a terminal in each alternative, so the
    choices and loops that reference it can dispatch on its head."""
    helpers = ["Help0", "Rec"]
    defs = {
        "Top": gen_sound_expr(rng, max_depth, helpers),
        "Help0": gen_consuming(rng, 2, []),
        "Rec": (r.first_of(r.seq(_terminal(rng), r.ref("Rec")), _terminal(rng)), NEUTRAL),
    }
    return r.validate_grammar(r.grammar(defs, start="Top"))


def _between(rng: random.Random, helpers: list[str]) -> list[r.RuleExpr]:
    """Up to two parts that touch no value below them, for between a capture
    and the ``cons`` of one child that takes it: terminals, one-character
    scans, sequences of terminals and predicates, whose bodies may branch
    or build values of their own."""
    parts: list[r.RuleExpr] = []
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        if roll < 0.35:
            parts.append(_terminal(rng))
        elif roll < 0.55:
            parts.append(r.zero_or_more(r.Ch(rng.choice(ALPHABET))))
        elif roll < 0.7:
            parts.append(r.seq(_terminal(rng), _terminal(rng)))
        else:
            body = rng.choice((
                lambda: gen_neutral(rng, 2, helpers),
                lambda: r.seq(_terminal(rng), r.first_of(_terminal(rng), _terminal(rng))),
                lambda: r.seq(r.capture(_terminal(rng)), cons(_label(rng), 1))))()
            parts.append(rng.choice((r.and_pred, r.not_pred))(body))
    return parts


def _leaf(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """A capture, then neutral parts, then ``cons`` of one child, in one
    sequence or across nested ones."""
    head = r.capture(gen_consuming(rng, depth, helpers) if depth > 0 else _terminal(rng))
    between, node = _between(rng, helpers), cons(_label(rng), 1)
    if rng.random() < 0.6:
        return r.seq(head, *between, node)
    cut = rng.randint(0, len(between))
    return r.seq(r.seq(head, *between[:cut]), r.seq(*between[cut:], _terminal(rng), node))


def _deep_leaf(rng: random.Random) -> r.RuleExpr:
    """A capture and its ``cons`` of one child with sequences nested between
    them past the generated code's split into functions, the capture
    outside the nest or at its bottom. Most levels start with ``!'x'``,
    which can fail but never does on the family's inputs."""
    def step():
        return _terminal(rng) if rng.random() < 0.1 else r.not_pred(r.Ch("x"))

    capture, node = r.capture(_terminal(rng)), cons(_label(rng), 1)
    outside = rng.random() < 0.5
    inner = r.seq(step(), node if outside else capture)
    for _ in range(rng.randint(9, 15)):
        inner = r.seq(step(), inner)
    return r.seq(capture, inner) if outside else r.seq(inner, node)


def _node_pusher(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """One value that is a node and no leaf: a constant, or a node of two."""
    if rng.random() < 0.4:
        return r.push(Node(_label(rng), ()))
    return r.seq(gen_leaf(rng, depth - 1, helpers), r.capture(_terminal(rng)),
                 cons(_label(rng), 2))


def gen_leaf(rng: random.Random, depth: int, helpers: list[str]) -> r.RuleExpr:
    """Expression with effect ([],[one value]) rich in captures that a
    ``cons`` of one child takes, and in the other uses of a captured text:
    choices whose other alternative pushes a node, collecting repetitions,
    ``cons`` of two, folds, drops, a rule's value handed back from its
    function (``Leafy``, ``Text``) and rules that pop, called (``Pop``)
    and run in place (``PopIn``)."""
    if depth <= 0:
        return _leaf(rng, 0, helpers) if rng.random() < 0.7 else r.capture(_terminal(rng))
    roll = rng.random()
    if roll < 0.2:
        return _leaf(rng, depth - 1, helpers)
    if roll < 0.27:
        return _deep_leaf(rng)
    if roll < 0.37:  # nodes, or a captured text beside a pushed one, then a cons may take it
        if rng.random() < 0.5:
            alts = [_leaf(rng, depth - 1, helpers), _node_pusher(rng, depth, helpers)]
        else:
            alts = [r.capture(_terminal(rng)),
                    r.seq(_terminal(rng), r.push(Value("Str", rng.choice(("x", "y")))))]
        rng.shuffle(alts)
        if rng.random() < 0.5:
            return r.first_of(*alts)
        return r.seq(r.first_of(*alts), *_between(rng, helpers), cons(_label(rng), 1))
    if roll < 0.47:
        two = [gen_leaf(rng, depth - 1, helpers) if rng.random() < 0.5
               else r.capture(_terminal(rng)) for _ in range(2)]
        return r.seq(*two, *_between(rng, helpers), cons(_label(rng), 2))
    if roll < 0.57:  # collecting: one list of leaves or texts
        item = _leaf(rng, depth - 1, helpers) if rng.random() < 0.6 else r.capture(_terminal(rng))
        body = r.seq(_terminal(rng), item) if rng.random() < 0.5 else item
        return rng.choice((r.zero_or_more, r.one_or_more, r.opt))(body)
    if roll < 0.65:  # a fold over a leaf, or a text that each step drops and captures anew
        if rng.random() < 0.35:
            first = r.capture(_terminal(rng))
            step = r.seq(_terminal(rng), *_between(rng, helpers), r.drop(),
                         r.capture(_terminal(rng)))
        else:
            first = _leaf(rng, depth - 1, helpers)
            step = (r.seq(gen_consuming(rng, 1, helpers), *_between(rng, helpers),
                          cons(_label(rng), 1)) if rng.random() < 0.5 else
                    r.seq(_terminal(rng), r.capture(_terminal(rng)), cons(_label(rng), 2)))
        folded = r.seq(first, rng.choice((r.zero_or_more, r.opt))(step))
        return r.seq(folded, cons(_label(rng), 1)) if rng.random() < 0.3 else folded
    if roll < 0.74:  # a text or a leaf taken by a rule that pops
        taken = r.capture(_terminal(rng)) if rng.random() < 0.6 else gen_leaf(rng, depth - 1,
                                                                               helpers)
        return r.seq(taken, *_between(rng, helpers), r.ref(rng.choice(("Pop", "PopIn"))))
    if roll < 0.82:
        handed = r.ref(rng.choice(("Leafy", "Text")))
        return r.seq(handed, cons(_label(rng), 1)) if rng.random() < 0.3 else handed
    if roll < 0.9:
        return r.seq(r.capture(_terminal(rng)), *_between(rng, helpers), r.drop(),
                     gen_leaf(rng, depth - 1, helpers))
    return r.seq(gen_neutral(rng, depth - 1, helpers), gen_leaf(rng, depth - 1, helpers))


def gen_leaf_grammar(rng: random.Random, max_depth: int = 4) -> r.Grammar:
    """Random validated grammar whose values are built around captured
    texts (see ``gen_leaf``). ``Leafy`` and ``Text`` are on cycles of their
    own and declare (0 -> 1), so their functions hand back a node or a text;
    ``Pop``, on a cycle too, takes one value and gives a node back, and
    ``PopIn`` does the same in place."""
    helpers = ["Help0"]
    defs = {
        "Top": gen_leaf(rng, max_depth, helpers),
        "Help0": gen_consuming(rng, 2, []),
        "Leafy": (r.first_of(r.seq(r.Ch("a"), r.ref("Leafy"), cons(_label(rng), 1)),
                             _leaf(rng, 1, helpers)), StackEffect((), ("Node",))),
        "Text": (r.first_of(r.seq(r.Ch("b"), r.ref("Text")), r.capture(gen_consuming(rng, 1, []))),
                 StackEffect((), ("Str",))),
        "Pop": (r.first_of(r.seq(r.Ch("c"), r.ref("Pop")),
                           r.seq(*_between(rng, helpers), cons(_label(rng), 1))),
                StackEffect((WILDCARD,), ("Node",))),
        "PopIn": r.seq(*_between(rng, helpers), cons(_label(rng), 1)),
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
