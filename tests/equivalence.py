"""Digest of everything a run shows, per random grammar family, to compare two trees.

    python3 tests/equivalence.py --seed 1 --pairs 6000

Run it once under each source tree (a copy of this file in the other tree's
``tests/``); identical digests mean that the two engines agree on every
pair. It imports pegstack from the ``src/`` next to this file. For each
family it prints one SHA-256 over ``check_grammar``'s outcome for each
grammar (the report, or the error's text) and, for each (grammar, input)
pair:

* ``Parser.run``: kind, rendered values, error position, expected list and fault;
* ``run_phase`` on the exact table: steps, mismatches, max cursor and cursor;
* ``run_phase`` under MODE_COLLECT: the same counters and the collected traces;
* the traced event stream of ``match_rule`` and of ``Parser.run`` with a Trace.

Next to each digest it prints how many SWITCH, LOOP and MAYBE instructions
the family's fast tables hold, each counted once: a family whose count is 0
never reaches the code that dispatches on the next character. The count
is not part of the digest.

The families are ``gen_grammar`` at depths 4 and 6, ``gen_sound_grammar``
and ``gen_lowerable_grammar`` with its alphabet; each grammar gets three
inputs. Not collected by pytest: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from generators import (ALPHABET, LOWERABLE_ALPHABET, gen_grammar, gen_input,  # noqa: E402
                        gen_lowerable_grammar, gen_sound_grammar)
from pegstack.effects import check_grammar  # noqa: E402
from pegstack.engine import Parser, ParserState, Trace, format_trace_event  # noqa: E402
from pegstack.errors import MODE_COLLECT  # noqa: E402
from pegstack.instructions import (ALT, CAPTURE, FAST, LOOP, MAYBE, OPT, PRED, QUIET,  # noqa: E402
                                   REP, SEQ, SWITCH)
from pegstack.values import render_value  # noqa: E402

INPUTS_PER_GRAMMAR = 3
FAMILIES = {
    "gen_grammar/4": (lambda rng: gen_grammar(rng, 4), ALPHABET),
    "gen_grammar/6": (lambda rng: gen_grammar(rng, 6), ALPHABET),
    "gen_sound_grammar": (gen_sound_grammar, ALPHABET),
    "gen_lowerable_grammar": (gen_lowerable_grammar, LOWERABLE_ALPHABET),
}


def _guarded(fn) -> str:
    """fn's text, or the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # a fault is part of what is compared
        return f"raised {type(exc).__name__}: {exc}"


def _check(grammar) -> str:
    return "\n".join(f"{name} {effect}" for name, effect in check_grammar(grammar).items())


def _run(parser: Parser, text: str) -> str:
    result = parser.run(text)
    if result.values is not None:
        return "success " + " ".join(render_value(v) for v in result.values)
    if result.error is not None:
        err = result.error
        return f"failure {err.position.index} {err.expected()!r}"
    return f"fault {result.fault.description}"


def _phase(parser: Parser, text: str, mode: str) -> str:
    state = parser.run_phase(text, error_mode=mode)
    stats = state.stats
    traces = [str(t) for t in state.collected]
    return f"{stats.steps} {stats.terminal_mismatches} {stats.max_cursor} {state.cursor} {traces!r}"


def _traced_match(parser: Parser, text: str) -> str:
    events: list = []
    state = ParserState(text, events=events)
    ok = parser.match_rule(state, parser.grammar.start)
    return f"{ok} {state.cursor}\n" + "\n".join(map(format_trace_event, events))


def _traced_run(parser: Parser, text: str) -> str:
    events: list = []
    result = parser.run(text, observer=Trace(events))
    return f"{result.kind}\n" + "\n".join(map(format_trace_event, events))


def dispatch_count(parser: Parser) -> int:
    """SWITCH, LOOP and MAYBE instructions in a parser's fast table, each
    counted once: an acyclic rule's fast body is shared by its references."""
    count, seen = 0, set()
    todo = list(parser._tables.bodies[FAST].values())
    while todo:
        ins = todo.pop()
        if ins is None or id(ins) in seen:
            continue
        seen.add(id(ins))
        op = ins[0]
        count += op in (SWITCH, LOOP, MAYBE)
        if op == SEQ or op == ALT:
            todo.extend(ins[2])
        elif op == SWITCH:
            for candidates in (*ins[2].values(), ins[3], ins[4]):
                todo.extend(candidates)
        elif op in (REP, OPT, PRED, CAPTURE, QUIET, LOOP, MAYBE):
            todo.append(ins[2])
    return count


def family_digest(name: str, seed: int, pairs: int) -> tuple[str, int]:
    """The family's digest over pairs (grammar, input) pairs, and the
    dispatch instructions in its grammars' fast tables."""
    make, alphabet = FAMILIES[name]
    rng = random.Random(f"{name}:{seed}")
    digest = hashlib.sha256()
    dispatches = 0
    for _ in range(-(-pairs // INPUTS_PER_GRAMMAR)):
        grammar = make(rng)
        digest.update(_guarded(lambda: _check(grammar)).encode("utf-8", "surrogatepass") + b"\x02")
        parser = Parser(grammar)
        dispatches += dispatch_count(parser)
        for _ in range(INPUTS_PER_GRAMMAR):
            text = gen_input(rng, alphabet=alphabet)
            parts = [text, _guarded(lambda: _run(parser, text)),
                     _guarded(lambda: _phase(parser, text, "off")),
                     _guarded(lambda: _phase(parser, text, MODE_COLLECT)),
                     _guarded(lambda: _traced_match(parser, text)),
                     _guarded(lambda: _traced_run(parser, text))]
            digest.update("\x00".join(parts).encode("utf-8", "surrogatepass") + b"\x01")
    return digest.hexdigest(), dispatches


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=6000, help="(grammar, input) pairs per family")
    args = ap.parse_args()
    for name in FAMILIES:
        digest, dispatches = family_digest(name, args.seed, args.pairs)
        print(f"{name:24} {args.pairs:7} {digest} {dispatches:7}", flush=True)


if __name__ == "__main__":
    main()
