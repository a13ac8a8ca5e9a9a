"""Command-line front end: check grammars and run them against inputs.

Exit codes: 0 success, 1 parse failure, 2 grammar or usage error,
3 internal fault.
"""

from __future__ import annotations

import argparse
import json
import sys

from .effects import EffectCheckError, check_grammar
from .engine import Parser, format_trace_event
from .errors import format_error
from .notation import NotationError, load_grammar
from .rules import GrammarError
from .values import Tree, Value, render_value

EXIT_SUCCESS = 0
EXIT_PARSE_FAILURE = 1
EXIT_GRAMMAR_ERROR = 2
EXIT_INTERNAL_FAULT = 3


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pegstack",
                                     description="PEG grammar interpreter")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="parse an input with a grammar")
    run_cmd.add_argument("--grammar", required=True, help="path to a .peg grammar file")
    run_cmd.add_argument("--start", help="start rule (default: first rule in the file)")
    source = run_cmd.add_mutually_exclusive_group()
    source.add_argument("--input", help="input text")
    source.add_argument("--input-file", help="read the input from a file")
    run_cmd.add_argument("--trace", action="store_true",
                         help="print one line per engine step")
    run_cmd.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable output")
    run_cmd.add_argument("--no-caret", action="store_true",
                         help="omit the caret line under error messages")

    check_cmd = sub.add_parser("check", help="validate a grammar and report rule effects")
    check_cmd.add_argument("--grammar", required=True)
    return parser


def _value_json(value: Value):
    """JSON form of a value; iterative, like ``render_value``."""
    root: list = []
    todo = [(value, root)]  # each value with the array its JSON form joins
    while todo:
        value, into = todo.pop()
        payload = value.payload
        if isinstance(payload, (Tree, tuple)):
            items: list = []
            tree = isinstance(payload, Tree)
            into.append({"label": payload.label, "children": items} if tree else items)
            todo.extend((c, items) for c in reversed(payload.children if tree else payload))
        elif isinstance(payload, str):
            into.append(payload)
        elif payload is None and value.tag == "Unit":
            into.append(None)
        else:
            into.append(repr(payload))
    return root[0]


def _json_text(obj) -> str:
    """``json.dumps(obj)`` for nested dicts and lists, without recursion."""
    out: list[str] = []
    todo = [obj]  # objects to write and (text,) for literal text, next one last
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
            out.append(item[0])
        elif isinstance(item, dict):
            out.append("{")
            members = [x for k, v in item.items() for x in ((", ",), (json.dumps(k) + ": ",), v)]
            todo.extend(reversed(members[1:] + [("}",)]))
        elif isinstance(item, list):
            out.append("[")
            members = [x for v in item for x in ((", ",), v)]
            todo.extend(reversed(members[1:] + [("]",)]))
        else:
            out.append(json.dumps(item))
    return "".join(out)


def _read_input(args) -> str:
    if args.input is not None:
        return args.input
    if args.input_file is not None:
        with open(args.input_file, "r", encoding="utf-8") as handle:
            return handle.read()
    text = sys.stdin.read()
    # one trailing newline from the shell would defeat EOI-terminated grammars
    return text[:-1] if text.endswith("\n") else text


def _cmd_run(args) -> int:
    grammar = load_grammar(args.grammar)
    text = _read_input(args)
    events = [] if args.trace else None
    result = Parser(grammar).run(text, start=args.start, trace=events)
    if events is not None:
        for event in events:
            print(format_trace_event(event))
    if result.values is not None:
        if args.as_json:
            print(_json_text({"result": "success",
                              "values": [_value_json(v) for v in result.values]}))
        else:
            for value in result.values:
                print(render_value(value))
        return EXIT_SUCCESS
    if result.error is not None:
        err = result.error
        message = format_error(err, text, caret=not args.no_caret)
        if args.as_json:
            print(json.dumps({
                "result": "error",
                "position": {"index": err.position.index, "line": err.position.line,
                             "column": err.position.column},
                "expected": err.expected(),
                "message": message,
            }))
        else:
            print(message, file=sys.stderr)
        return EXIT_PARSE_FAILURE
    print(f"internal fault: {result.fault.description}", file=sys.stderr)
    return EXIT_INTERNAL_FAULT


def _cmd_check(args) -> int:
    grammar = load_grammar(args.grammar)
    for name, effect in check_grammar(grammar).items():
        print(f"{name} : ({len(effect.pops)} -> {len(effect.pushes)})")
    return EXIT_SUCCESS


def main(argv: list[str] | None = None) -> int:
    # deep enough for realistically nested inputs, low enough that CPython
    # raises RecursionError (reported as an internal fault) before the C
    # stack runs out
    sys.setrecursionlimit(8_000)
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_GRAMMAR_ERROR if exc.code else EXIT_SUCCESS
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_check(args)
    except (NotationError, GrammarError, EffectCheckError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_GRAMMAR_ERROR
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_GRAMMAR_ERROR


if __name__ == "__main__":
    sys.exit(main())
