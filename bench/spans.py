"""Spans and counters taken around pegstack's public functions, from outside.

``install`` replaces each function at the attribute its caller looks up:
``pegstack.engine.build_parse_error`` (engine imported the name),
``pegstack.errors.principal_error_index`` (errors calls it by its own global),
``Parser.run`` on the class, and so on. No file of the program changes, and
``uninstall`` puts every original back. Spans stay in memory and are written
out when the run ends. Only ``time.perf_counter`` is used for timing; nothing
traces the system.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass

perf = time.perf_counter

# (module, attribute, span name): the attribute a caller looks up
FUNCTIONS = (
    ("pegstack.notation", "load_grammar", "notation.load_grammar"),
    ("pegstack.cli", "load_grammar", "notation.load_grammar"),
    ("pegstack.notation", "validate_grammar", "rules.validate_grammar"),
    ("pegstack.optimize", "validate_grammar", "rules.validate_grammar"),
    ("pegstack.notation", "check_grammar", "effects.check_grammar"),
    ("pegstack.cli", "check_grammar", "effects.check_grammar"),
    ("pegstack.optimize", "optimize", "optimize.optimize"),
    ("pegstack.cli", "optimize", "optimize.optimize"),
    ("pegstack.engine", "build_parse_error", "errors.build_parse_error"),
    ("pegstack.errors", "principal_error_index", "errors.principal_error_index"),
    ("pegstack.errors", "trace_collection", "errors.trace_collection"),
    ("pegstack.errors", "format_error", "errors.format_error"),
    ("pegstack.cli", "format_error", "errors.format_error"),
    # values.render_value recurses through its own module's global, which
    # stays unwrapped, so only the CLI's outermost call gets a span
    ("pegstack.cli", "render_value", "values.render"),
)
# functions that recurse through the very attribute that gets wrapped
RECURSIVE = (("pegstack.cli", "_value_json", "values.render"),)
# extra attrs recorded from a wrapped function's result
NOTES = {"errors.build_parse_error": lambda err: {"traces": len(err.traces)}}
METHODS = (
    ("__init__", "engine.construct"),
    ("run", "engine.run"),
    ("run_phase", "engine.run_phase"),
)


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    """Spans of one process, plus value-stack counters per root span.

    A span's attrs carry, for the engine states created inside it, their
    number ("passes"), steps and terminal mismatches. A root span's attrs
    also carry the value-stack counters accumulated while it was open.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._open: list[int] = []
        self.states: list = []  # engine states created under the open root
        self.snapshots = 0
        self.snapshot_elems = 0
        self.restores = 0
        self.snapshot_s = 0.0
        self.max_stack = 0

    def _stack_counts(self) -> tuple:
        return (self.snapshots, self.snapshot_elems, self.restores, self.snapshot_s)

    def call(self, name: str, fn, *args, note=None, **kwargs):
        """Run fn inside a span; note(result) may add attrs."""
        sid = next(self._ids)
        root = not self._open
        parent = None if root else self._open[-1]
        if root:
            base = self._stack_counts()
            self.max_stack = 0
        first_state = len(self.states)
        self._open.append(sid)
        attrs: dict = {}
        start = perf()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        else:
            if note is not None:
                attrs.update(note(result))
            return result
        finally:
            end = perf()
            self._open.pop()
            states = self.states[first_state:]
            if states:
                attrs["passes"] = len(states)
                attrs["steps"] = sum(s.stats.steps for s in states)
                attrs["mismatches"] = sum(s.stats.terminal_mismatches for s in states)
            if root:
                for key, now, then in zip(("snapshots", "snapshot_elems", "restores", "snapshot_s"),
                                          self._stack_counts(), base):
                    attrs[key] = now - then
                attrs["max_stack"] = self.max_stack
                self.states.clear()
            self.spans.append(Span(sid, parent, name, start, end, attrs))

    def adopt(self, records: list[dict]) -> None:
        """Take over spans another process wrote, with fresh ids."""
        offset = next(self._ids)
        top = offset
        keys = ("id", "parent", "name", "start", "end")
        for rec in records:
            sid = rec["id"] + offset
            parent = None if rec["parent"] is None else rec["parent"] + offset
            attrs = {k: v for k, v in rec.items() if k not in keys}
            self.spans.append(Span(sid, parent, rec["name"], rec["start"], rec["end"], attrs))
            top = max(top, sid)
        self._ids = itertools.count(top + 1)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record()) + "\n")


def install(tracer: Tracer):
    """Wrap pegstack's layer boundaries; return a function that undoes it."""
    import importlib

    # import_module, because the package re-exports a function as "optimize"
    engine, optimize, values = (importlib.import_module(f"pegstack.{m}")
                                for m in ("engine", "optimize", "values"))
    undo: list = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)
    def spanned(name, fn):
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, note=note, **kwargs)
        return wrapper

    def outermost(owner, attr, name):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            setattr(owner, attr, fn)  # inner recursive calls skip the span
            try:
                return tracer.call(name, fn, *args, **kwargs)
            finally:
                setattr(owner, attr, wrapper)
        return wrapper

    # a boundary the program no longer has gives no spans rather than a crash
    for module, attr, name in FUNCTIONS:
        owner = importlib.import_module(module)
        if hasattr(owner, attr):
            patch(owner, attr, spanned(name, getattr(owner, attr)))
    for module, attr, name in RECURSIVE:
        owner = importlib.import_module(module)
        if hasattr(owner, attr):
            patch(owner, attr, outermost(owner, attr, name))
    for attr, name in METHODS:
        patch(engine.Parser, attr, spanned(name, getattr(engine.Parser, attr)))

    passes = optimize.PASSES
    saved_passes = dict(passes)
    for key, rewrite in saved_passes.items():
        passes[key] = optimize.RewritePass(rewrite.name, spanned(f"optimize.{key}", rewrite.transform))

    base_state = engine.ParserState

    class CountedState(base_state):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            base_state.__init__(self, *args, **kwargs)
            tracer.states.append(self)

    patch(engine, "ParserState", CountedState)

    stack_cls = values.ValueStack
    take, put_back = stack_cls.snapshot, stack_cls.restore

    def snapshot(stack):
        t0 = perf()
        token = take(stack)
        tracer.snapshot_s += perf() - t0
        tracer.snapshots += 1
        # a tuple or list token is a copy; an opaque token copied nothing
        if isinstance(token, (tuple, list)):
            tracer.snapshot_elems += len(token)
        size = stack.size()
        if size > tracer.max_stack:
            tracer.max_stack = size
        return token

    def restore(stack, token):
        t0 = perf()
        put_back(stack, token)
        tracer.snapshot_s += perf() - t0
        tracer.restores += 1

    patch(stack_cls, "snapshot", snapshot)
    patch(stack_cls, "restore", restore)

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
        undo.clear()
        passes.clear()
        passes.update(saved_passes)

    return uninstall
