"""Command-line front end: check grammars and run them against inputs.

Exit codes: 0 success, 1 parse failure, 2 grammar or usage error,
3 internal fault.
"""

from __future__ import annotations

import argparse
import sys

from .effects import EffectCheckError, check_grammar
from .engine import Parser, Trace, format_trace_event
from .errors import format_error
from .notation import NotationError, load_grammar
from .rules import GrammarError, GrammarTooDeep
from .values import _TEXT, Node, Value, _children, json_string, render_value

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
                         help="print one line per engine event as it happens")
    run_cmd.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable output")
    run_cmd.add_argument("--no-caret", action="store_true",
                         help="omit the caret line under error messages")

    check_cmd = sub.add_parser("check", help="validate a grammar and report rule effects")
    check_cmd.add_argument("--grammar", required=True)
    return parser


def _value_json(value: Value):
    """JSON form of a value as nested dicts and lists; iterative. The CLI
    writes the same form directly (``_json_values``); the benchmark checks
    against this one."""
    root: list = []
    todo = [(value, root)]  # each value with the array its JSON form joins
    while todo:
        value, into = todo.pop()
        cls = value.__class__
        node = cls is Node
        payload = value._payload if cls is Value else value.payload  # a subclass's own field
        if node or isinstance(payload, tuple):
            items: list = []
            into.append({"label": value._tag, "children": items} if node else items)
            todo.extend((c, items) for c in reversed(_children(value) if node else payload))
        elif isinstance(payload, str):
            into.append(payload)
        elif payload is None and value.tag == "Unit":
            into.append(None)
        else:
            into.append(repr(payload))
    return root[0]


def _json_values(values) -> str:
    """``json.dumps`` of the list of the values' ``_value_json`` forms,
    written in one walk over the values, without recursion."""
    out: list[str] = []
    todo: list = [values]  # values and tuples of them to write, literal text; next one last
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        cls = item.__class__
        if cls is tuple:
            label, children = None, item
        elif cls is Node:
            if item._b is _TEXT:  # a leaf: its child's text, from the slot
                out.append('{"label": ' + json_string(item._tag) + ', "children": ['
                           + json_string(item._payload) + "]}")
                continue
            label, children = item._tag, _children(item)
        else:
            payload = item._payload if cls is Value else item.payload  # a subclass's own field
            if isinstance(payload, tuple):
                label, children = None, payload
            else:
                if isinstance(payload, str):
                    out.append(json_string(payload))
                elif payload is None and item.tag == "Unit":
                    out.append("null")
                else:
                    out.append(json_string(repr(payload)))
                continue
        if label is None:
            out.append("[")
            todo.append("]")
        else:
            out.append('{"label": ' + json_string(label) + ', "children": [')
            todo.append("]}")
        todo.extend(reversed([x for c in children for x in (", ", c)][1:]))
    return "".join(out)


def _error_json(err, message: str) -> str:
    """The JSON error object of a parse error, as ``json.dumps`` writes it."""
    at = err.position
    expected = ", ".join(map(json_string, err.expected()))
    return (f'{{"result": "error", "position": {{"index": {at.index}, "line": {at.line}, '
            f'"column": {at.column}}}, "expected": [{expected}], '
            f'"message": {json_string(message)}}}')


class _Printer:
    """Trace sink that prints each event as one line when it arrives."""

    def __init__(self, render):
        self.render = render

    def append(self, event) -> None:
        print(self.render(event))


def _event_json(event) -> str:
    """One JSON Lines record of a trace event, as ``json.dumps`` writes it;
    unset fields are null."""
    moved_from = "null" if event.moved_from is None else event.moved_from
    moved_to = "null" if event.moved_to is None else event.moved_to
    return (f'{{"step": {event.step}, "summary": {json_string(event.summary)}, '
            f'"cursor": {event.cursor}, "outcome": {json_string(event.outcome)}, '
            f'"moved_from": {moved_from}, "moved_to": {moved_to}}}')


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
    if args.start is not None and args.start not in grammar.rules:
        print(f"unknown rule {args.start!r}", file=sys.stderr)
        return EXIT_GRAMMAR_ERROR
    text = _read_input(args)
    observer = None
    if args.trace:
        observer = Trace(_Printer(_event_json if args.as_json else format_trace_event))
    result = Parser(grammar).run(text, start=args.start, observer=observer)
    if result.values is not None:
        if args.as_json:
            print(f'{{"result": "success", "values": {_json_values(result.values)}}}')
        else:
            for value in result.values:
                print(render_value(value))
        return EXIT_SUCCESS
    if result.error is not None:
        err = result.error
        message = format_error(err, text, caret=not args.no_caret)
        if args.as_json:
            print(_error_json(err, message))
        else:
            print(message, file=sys.stderr)
        return EXIT_PARSE_FAILURE
    print(f"internal fault: {result.fault.description}", file=sys.stderr)
    return EXIT_INTERNAL_FAULT


def _cmd_check(args) -> int:
    grammar = load_grammar(args.grammar)
    effects = check_grammar(grammar)
    fault = Parser(grammar).fault  # a grammar that no run can compile fails here too
    if fault is not None:
        print(f"internal fault: {fault.description}", file=sys.stderr)
        return EXIT_INTERNAL_FAULT
    for name, effect in effects.items():
        print(f"{name} : ({len(effect.pops)} -> {len(effect.pushes)})")
    return EXIT_SUCCESS


def main(argv: list[str] | None = None) -> int:
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
    except UnicodeDecodeError as exc:
        print(f"not valid UTF-8: {exc}", file=sys.stderr)
        return EXIT_GRAMMAR_ERROR
    except GrammarTooDeep as exc:  # a depth limit, reported like the compiler's
        print(f"internal fault: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_FAULT
    except Exception as exc:  # a bug in pegstack, reported without a traceback
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_FAULT


if __name__ == "__main__":
    sys.exit(main())
