"""Code lines of each ``src/pegstack`` module, without docstrings, comments or
blank lines.

    python3 tests/code_lines.py
    python3 tests/code_lines.py --src ../other-tree/src
    python3 tests/code_lines.py --generated [--src ../other-tree/src]

A line counts when it holds a token other than a comment or a docstring:
the string that opens a module, class or function body. A line that only
continues a bracketed expression counts too. Prints one line per module,
then the total.

With ``--generated`` it prints instead the lines and the functions of the
parse and collect modules that the src's ``pegstack.generate`` writes for
``grammars/calc.peg``, ``bench/json.peg`` (both read from this tree), the
meta-grammar and two chains of 2,000 rules ``R_i <- R_i+1 'x'``, one
ending in ``'a'`` (every rule lowers to a regex) and one in
``capture('x')`` (every rule touches the stack, so nothing lowers); the
meta-grammar, whose actions may fail, has no collect module. For each
module it prints how many choices dispatch through the bit tests of their
character's set (``shared``: a table lookup; in a collect module, which
runs the alternatives of every such choice in order, a test of the next
character, held in a local, for each) rather than an ``if`` chain,
its call sites (``R[...](`` in the source), how many of its functions keep
their values in locals (``registers``: the register form, parse modules
only), how many statements build the node of a captured text in one
object (``leaves``: the leaf marker ``TEXT`` that ``values.built`` writes) and the milliseconds that writing and
compiling it take (``generate()``, best of ``WRITES``, each with ``re``'s
cache emptied). Not collected by pytest: its name does not start with
``test_``.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import re
import sys
import tokenize
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WRITES = 5  # timed writes of each generated module
CHAIN = 2000  # rules of each chain grammar
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the docstrings of a module and of its classes and functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of a module's source that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def generated(src: pathlib.Path) -> None:
    """Print the lines and functions of each module the generator writes."""
    sys.path.insert(0, str(src))
    from pegstack import generate
    from pegstack import rules as r
    from pegstack.engine import _RUNTIME, Parser
    from pegstack.notation import load_grammar, meta_grammar

    def chain(end):
        rules = {f"R{i}": r.seq(r.ref(f"R{i + 1}"), r.ch("x")) for i in range(CHAIN)}
        rules[f"R{CHAIN}"] = end
        return r.validate_grammar(r.grammar(rules, start="R0"))

    print(f"{'module':24} {'lines':>6} {'functions':>9} {'shared':>6} {'calls':>6}"
          f" {'registers':>9} {'leaves':>6} {'write ms':>8}")
    for name, grammar in (("calc", load_grammar(ROOT / "grammars/calc.peg")),
                          ("json", load_grammar(ROOT / "bench/json.peg")),
                          ("meta-grammar", meta_grammar()),
                          ("lowered chain", chain(r.ch("a"))),
                          ("capture chain", chain(r.capture(r.ch("x"))))):
        tables = Parser(grammar)._tables
        for kind, collect in (("parse", False), ("collect", True))[:1 + tables.value_free]:
            best = float("inf")
            for _ in range(WRITES):
                re.purge()
                started = perf_counter()
                generate.generate(tables, _RUNTIME, collect)
                best = min(best, perf_counter() - started)
            module = generate._Module(tables, _RUNTIME, collect)  # a Parser keeps no source
            source = module.source()
            calls = len(re.findall(r"\bR\[[^\]]*\]\(", source))
            leaves = len(re.findall(r"\bTEXT\b", source))
            shared = source.count(".get(text[pos], ") + source.count(" if pos < mc else None")
            print(f"{name + ' ' + kind:24} {len(source.splitlines()):6,}"
                  f" {source.count('    def f(pos, d):'):9} {shared:6}"
                  f" {calls:6} {getattr(module, 'registers', 0):9} {leaves:6}"
                  f" {best * 1000:8.1f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=pathlib.Path, default=SRC,
                    help="the src directory that holds pegstack (default: this tree's)")
    ap.add_argument("--generated", action="store_true",
                    help="print the lines and functions of the generated modules instead")
    args = ap.parse_args()
    if args.generated:
        generated(args.src)
        return
    total = 0
    for path in sorted((args.src / "pegstack").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")


if __name__ == "__main__":
    main()
