"""Digests of what a run shows, per random grammar family, to compare two trees.

    python3 tests/equivalence.py --seed 1 --pairs 6000
    python3 tests/equivalence.py --seed 1 --pairs 6000 --against ../other-tree

It imports pegstack from the ``src/`` next to this file, or from the
directory ``--src`` names. ``--against TREE`` also runs this script, with
these generators, on TREE's ``src/``, prints both sets of digests, says
whether the behaviour digests and the counter digests are equal, and
exits 1 when a behaviour digest differs. For each family it prints two
SHA-256 digests. The behaviour digest must match between two trees that
claim the same behaviour; it covers
``check_grammar``'s outcome for each grammar (the report, or the error's
text) and, for each (grammar, input) pair:

* ``Parser.run``: kind, rendered values, error position, expected list,
  rule traces and fault; and, for a parse failure, whether its error has
  the principal index and the ordered rule traces of the exact collect
  pass (``run_phase`` watched by an ``errors.Collector``, or, in a tree
  without one, under its collect error mode), which tries every
  alternative. A run whose error differs from that pass's is marked, so
  its family's digest differs from that of a tree where the two agree;
* ``run_phase`` on the exact table, plain and as the exact collect pass:
  its final cursor, and the collected traces;
* the traced event stream of ``match_rule`` and of ``Parser.run`` with a Trace.

Each Parser writes its parse module before its first run, where the tree
has ``Parser._generate``, so that ``Parser.run`` takes the generated code
on these short inputs, as in a tree that generates when a Parser is built.

The counter digest covers the steps, mismatches and max cursor of each
``run_phase``, and of each engine state that an unobserved ``Parser.run``
creates, read as the benchmark reads them (``run_states``): the run's own
and, when it fails without a fault, its error pass's, which runs the
grammar's generated collect code from the run's max cursor. For a run that
faults it covers the fault instead. A change to how much work a pass does
may move it. Generated code counts no steps, so the steps of a generated
run and of its generated error pass are 0; against a tree whose generated
code counts steps, the counter digests differ on those. ``--against``
exits 1 when a behaviour digest differs, 2 when only a counter digest
does, and 0 when both are equal.

Next to the digests it prints how many choices, repetitions and options
with a filled dispatch operand the family's exact tables hold, each
counted once: a family whose count is 0 never reaches the code that
dispatches on the next character. The count is part of neither digest,
and follows this script's reading of the tables also for the other tree
of ``--against``. Then it prints how many pairs end in a parse failure,
and of those how many report an error that differs from the exact pass's.

The families are ``gen_grammar`` at depths 4 and 6, ``gen_sound_grammar``
and ``gen_lowerable_grammar`` with its alphabet; each grammar gets three
inputs. The sound family's ``concat`` action fails on two equal strings,
so there values decide which alternatives run on, and a failing run's
error pass runs the collect code that builds values: about 1 % of its
pairs reach a failing ``concat``. Not collected by pytest: its name does
not start with ``test_``.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# --src is read before the imports below, since the generators import pegstack too
_early = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
_early.add_argument("--src", default=str(ROOT / "src"))
SRC = _early.parse_known_args()[0].src
sys.path[:0] = [SRC, str(ROOT / "tests")]

from generators import (ALPHABET, LOWERABLE_ALPHABET, gen_grammar, gen_input,  # noqa: E402
                        gen_lowerable_grammar, gen_sound_grammar)
from pegstack.effects import check_grammar  # noqa: E402
from pegstack.engine import Parser, ParserState, Trace, format_trace_event  # noqa: E402
from pegstack.errors import principal_index  # noqa: E402
try:
    from pegstack.errors import Collector  # noqa: E402
except ImportError:  # a tree that collects under an error mode
    from pegstack.errors import MODE_COLLECT  # noqa: E402
    Collector = None
from pegstack.instructions import ALT, CAPTURE, OPT, PRED, QUIET, REP, SEQ  # noqa: E402
from pegstack.values import render_value  # noqa: E402
from run_states import recorded_states  # noqa: E402

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


def _exact_pass(parser: Parser, text: str) -> tuple:
    """The final state and the rule traces of the exact collect pass,
    through whichever API the imported tree has."""
    if Collector is None:
        state = parser.run_phase(text, error_mode=MODE_COLLECT)
        return state, state.collected
    state = parser.run_phase(text, observer=Collector())
    return state, state.observer.traces()


def _run(parser: Parser, text: str, exact, tally: list) -> str:
    """What Parser.run reports. exact is the (state, traces) of the exact
    collect pass, None when that raised. tally counts a parse failure and,
    when its error differs from exact's, counts and marks the difference."""
    result = parser.run(text)
    if result.values is not None:
        return "success " + " ".join(render_value(v) for v in result.values)
    if result.error is not None:
        err = result.error
        report = f"failure {err.position.index} {err.expected()!r} {[str(t) for t in err.traces]!r}"
        tally[0] += 1
        if exact is None or (err.position.index, list(err.traces)) != (principal_index(exact[0]),
                                                                        list(exact[1])):
            tally[1] += 1
            report += " differs from the exact pass"
        return report
    return f"fault {result.fault.description}"


def _phase(parser: Parser, text: str, collect: bool) -> tuple[str, str, object]:
    """(behaviour, counters, (final state, traces)) of one run_phase, plain
    or the exact collect pass; a fault is both, and no state."""
    try:
        passed = _exact_pass(parser, text) if collect else (parser.run_phase(text), [])
    except Exception as exc:
        raised = f"raised {type(exc).__name__}: {exc}"
        return raised, raised, None
    state, traces = passed
    stats = state.stats
    return (f"{state.cursor} {[str(t) for t in traces]!r}",
            f"{stats.steps} {stats.terminal_mismatches} {stats.max_cursor}", passed)


def _run_counters(parser: Parser, text: str) -> str:
    """Counters of each state an unobserved Parser.run creates, or its fault."""
    with recorded_states() as states:
        result = parser.run(text)
    if result.fault is not None:
        return f"fault {result.fault.description}"
    return " ".join(f"{s.stats.steps} {s.stats.terminal_mismatches} {s.stats.max_cursor}"
                    for s in states)


def _traced_match(parser: Parser, text: str) -> str:
    events: list = []
    state = ParserState(text)
    state.observer = Trace(events)
    ok = parser.match_rule(state, parser.grammar.start)
    return f"{ok} {state.cursor}\n" + "\n".join(map(format_trace_event, events))


def _traced_run(parser: Parser, text: str) -> str:
    events: list = []
    result = parser.run(text, observer=Trace(events))
    return f"{result.kind}\n" + "\n".join(map(format_trace_event, events))


# where each dispatching opcode keeps its operand
DISPATCH_AT = {ALT: 4, REP: 6, OPT: 4}


def dispatch_count(parser: Parser) -> int:
    """Choices, repetitions and options with a filled dispatch operand in a
    parser's exact table, each counted once."""
    bodies = parser._tables.bodies
    if isinstance(bodies, tuple):  # a tree that also keeps a fast table, first
        bodies = bodies[0]
    count, seen = 0, set()
    todo = list(bodies.values())
    while todo:
        ins = todo.pop()
        if ins is None or id(ins) in seen:
            continue
        seen.add(id(ins))
        op = ins[0]
        count += op in DISPATCH_AT and bool(ins[DISPATCH_AT[op]])
        if op == SEQ or op == ALT:
            todo.extend(ins[2])
        elif op in (REP, OPT, PRED, CAPTURE, QUIET):
            todo.append(ins[2])
    return count


def _encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def family_digest(name: str, seed: int, pairs: int) -> tuple[str, str, int, list]:
    """The family's behaviour and counter digests over pairs (grammar,
    input) pairs, the dispatch instructions in its grammars' exact tables,
    and [parse failures, errors that differ from the exact pass's]."""
    make, alphabet = FAMILIES[name]
    rng = random.Random(f"{name}:{seed}")
    behaviour, counters = hashlib.sha256(), hashlib.sha256()
    dispatches, tally = 0, [0, 0]
    for _ in range(-(-pairs // INPUTS_PER_GRAMMAR)):
        grammar = make(rng)
        behaviour.update(_encode(_guarded(lambda: _check(grammar))) + b"\x02")
        parser = Parser(grammar)
        if parser.fault is None and hasattr(parser, "_generate"):
            parser._generate()
        dispatches += dispatch_count(parser)
        for _ in range(INPUTS_PER_GRAMMAR):
            text = gen_input(rng, alphabet=alphabet)
            off, off_counts, _ = _phase(parser, text, False)
            collect, collect_counts, exact = _phase(parser, text, True)
            parts = [text, _guarded(lambda: _run(parser, text, exact, tally)), off, collect,
                     _guarded(lambda: _traced_match(parser, text)),
                     _guarded(lambda: _traced_run(parser, text))]
            behaviour.update(_encode("\x00".join(parts)) + b"\x01")
            run_counts = _guarded(lambda: _run_counters(parser, text))
            counters.update(_encode("\x00".join((text, off_counts, collect_counts, run_counts)))
                            + b"\x01")
    return behaviour.hexdigest(), counters.hexdigest(), dispatches, tally


HEADER = (f"{'family':24} {'pairs':>7} {'behaviour':64} {'counters':64} dispatches"
          " failing differing")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=6000, help="(grammar, input) pairs per family")
    ap.add_argument("--src", default=SRC, help="the directory to import pegstack from")
    ap.add_argument("--against", type=Path, metavar="TREE",
                    help="also run on TREE's src/; exit 1 when a behaviour digest differs, "
                         "2 when only a counter digest does")
    args = ap.parse_args()
    other = None
    if args.against is not None:  # runs beside this process's own families
        other = subprocess.Popen(
            [sys.executable, __file__, "--seed", str(args.seed), "--pairs", str(args.pairs),
             "--src", str(args.against.resolve() / "src")], stdout=subprocess.PIPE, text=True)
    print(f"{SRC}\n{HEADER}", flush=True)
    ours = {}
    for name in FAMILIES:
        behaviour, counters, dispatches, (failing, differing) = family_digest(name, args.seed,
                                                                             args.pairs)
        ours[name] = behaviour, counters
        print(f"{name:24} {args.pairs:7} {behaviour} {counters} {dispatches:10} {failing:7}"
              f" {differing:9}", flush=True)
    if other is None:
        return 0
    out, _ = other.communicate()
    print(out, end="")
    if other.returncode:
        return other.returncode
    theirs = {fields[0]: tuple(fields[2:4]) for fields in map(str.split, out.splitlines()[2:])}
    differ = [[name for name in FAMILIES if theirs.get(name, ("", ""))[i] != ours[name][i]]
              for i in (0, 1)]
    for digest, names in zip(("behaviour", "counter"), differ):
        print(f"{digest} digests " + ("differ: " + ", ".join(names) if names else "equal"))
    return 1 if differ[0] else 2 if differ[1] else 0


if __name__ == "__main__":
    sys.exit(main())
