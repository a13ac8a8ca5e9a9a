"""The traced run: per-layer numbers from spans taken around pegstack's calls.

One traced run of a workload does, in order:

1. set-up repeated under ``bench.setup`` root spans;
2. pairs of passes over the whole pool, one traced and one untraced, until
   the run's seconds are used; the untraced passes give the tracing
   overhead and the time-against-size exponent;
3. probes for layers the workload itself leaves idle or cannot show: the
   optimizer variants, the deepest nesting that parses, an error probe when
   no operation of the workload fails, a render probe for library
   workloads, and fresh ``pegstack check`` processes for cold start.

Counts are per operation of a full pass, so they repeat exactly for a seed.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

import harness as h
import workloads as w
from spans import Tracer, install, perf

SETUP_REPS = 7
PROBE_ROUNDS = 5
COLD_PROCESSES = 3
# passes judged by optimize.without_<pass>.time_ratio; a pass that leaves
# the default pipeline reads 1.0 rather than disappearing from the report
KNOWN_PASSES = ("flatten_chains", "compile_charsets", "specialize_literals")
NESTING_CAP = 1 << 14
NESTING = {"grammars/calc.peg": ("(", "1", ")"), "bench/json.peg": ("[", "1", "]")}

# name, unit, better; the document next to this file says what each should move
PER_LAYER = [
    ("values.snapshots", "count", "lower"),
    ("values.snapshot_elems", "count", "lower"),
    ("values.restores", "count", "lower"),
    ("values.snapshot_ms", "ms", "lower"),
    ("values.max_stack", "count", "lower"),
    ("errors.passes_per_failure", "count", "lower"),
    ("errors.principal_ms", "ms", "lower"),
    ("errors.collect_ms", "ms", "lower"),
    ("errors.format_ms", "ms", "lower"),
    ("errors.traces", "count", "lower"),
    ("engine.run_ms", "ms", "lower"),
    ("engine.steps_per_kb", "count/KB", "lower"),
    ("engine.terminal_mismatches_per_kb", "count/KB", "lower"),
    ("engine.ns_per_step", "ns", "lower"),
    ("engine.time_exponent", "ratio", "lower"),
    ("engine.max_nesting", "count", "higher"),
    ("optimize.optimize_ms", "ms", "lower"),
    ("optimize.nodes", "count", "lower"),
    ("optimize.step_ratio", "ratio", "higher"),
    ("optimize.time_ratio", "ratio", "higher"),
    *((f"optimize.without_{p}.time_ratio", "ratio", "higher") for p in KNOWN_PASSES),
    ("notation.load_ms", "ms", "lower"),
    ("notation.meta_steps", "count", "lower"),
    ("rules.validate_ms", "ms", "lower"),
    ("rules.nodes", "count", "lower"),
    ("effects.check_ms", "ms", "lower"),
    ("engine.construct_ms", "ms", "lower"),
    ("engine.first_run_ms", "ms", "lower"),
    ("notation.load_cold_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("values.render_ms", "ms", "lower"),
    ("values.render_failures", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}
# exact repeats for one seed; the self-test checks them
DETERMINISTIC = ("engine.steps_per_kb", "values.snapshot_elems", "errors.passes_per_failure",
                 "notation.meta_steps", "engine.max_nesting")


class SpanIndex:
    def __init__(self, spans):
        self.by_id = {s.sid: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                self.children[s.parent].append(s)
        self.spans = spans

    def roots(self, name: str) -> list:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def below(self, span, name: str) -> list:
        """Descendants of span called name, in no particular order."""
        found, pending = [], list(self.children[span.sid])
        while pending:
            s = pending.pop()
            if s.name == name:
                found.append(s)
            pending.extend(self.children[s.sid])
        return found

    def under(self, span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            p = self.by_id[parent]
            if p.name == name:
                return True
            parent = p.parent
        return False

    def self_time(self, span) -> float:
        return span.duration - sum(c.duration for c in self.children[span.sid])


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def count_nodes(grammar) -> int:
    walk = h.pegstack("rules").walk
    return sum(1 for rd in grammar.rules.values() for _ in walk(rd.expr))


def time_exponent(runner: h.Runner, tally: h.Tally) -> float:
    """Least-squares slope of log(time) against log(size) over the pool."""
    per_doc = defaultdict(list)
    for k, t in tally.samples:
        per_doc[k].append(t)
    xs = [math.log(len(runner.docs[k].text)) for k in per_doc]
    ys = [math.log(statistics.median(ts)) for ts in per_doc.values()]
    mx, my = _mean(xs), _mean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


# ---------------------------------------------------------------------------
# probes


def optimize_probe(root: Path, wl: h.Workload, docs: list) -> dict:
    """Unoptimized, default and leave-one-pass-out pipelines on the same texts."""
    engine, optimize = h.pegstack("engine"), h.pegstack("optimize")
    grammar = h.pegstack("notation").load_grammar(root / wl.grammar)
    default = tuple(optimize.DEFAULT_PASSES)
    optimized = optimize.optimize(grammar, default)
    variants = {"none": engine.Parser(grammar), "default": engine.Parser(optimized)}
    for p in KNOWN_PASSES:
        variants[p] = engine.Parser(optimize.optimize(grammar, [q for q in default if q != p]))
    texts = [d.text for d in docs]
    for parser in variants.values():  # fill lazy per-parser caches first
        for text in texts:
            parser.run(text)
    # variants take turns on every text, so a change of machine speed falls
    # on all of them alike; the garbage collector is off while timing, as in
    # timeit, so that a collection cannot land on one variant every round
    ratios = defaultdict(list)
    for _ in range(PROBE_ROUNDS):
        spent = dict.fromkeys(variants, 0.0)
        gc.collect()
        gc.disable()
        try:
            for text in texts:
                for name, parser in variants.items():
                    t0 = perf()
                    parser.run(text)
                    spent[name] += perf() - t0
        finally:
            gc.enable()
        for name in variants:
            ratios[name].append(spent[name] / spent["default"])
    ratio = {name: statistics.median(r) for name, r in ratios.items()}
    steps = {name: sum(variants[name].run_phase(t).stats.steps for t in texts)
             for name in ("none", "default")}
    out = {"optimize.step_ratio": steps["none"] / steps["default"],
           "optimize.time_ratio": ratio["none"],
           "rules.nodes": count_nodes(grammar),
           "optimize.nodes": count_nodes(optimized)}
    for p in KNOWN_PASSES:
        out[f"optimize.without_{p}.time_ratio"] = ratio[p]
    return out


def deepest(parses) -> int:
    """Largest n <= NESTING_CAP with parses(n), given parses(0) and monotonicity."""
    lo, hi = 0, 1
    while hi <= NESTING_CAP and parses(hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if parses(mid):
            lo = mid
        else:
            hi = mid
    return lo


def nesting_probe(runner: h.Runner) -> int:
    """Deepest nesting that parses: in this process at the default recursion
    limit for library workloads, through ``pegstack run`` for cli."""
    wl, root = runner.wl, runner.root
    opener, atom, closer = NESTING[wl.grammar]
    if wl.cli:
        def parses(n):
            proc = h.cli_process(root, h.cli_command(), ["run", "--grammar", str(root / wl.grammar)],
                                 opener * n + atom + closer * n)
            return proc.returncode == 0 and "Traceback" not in proc.stderr
    else:
        parser = h.setup(root, wl)

        def parses(n):
            return parser.run(opener * n + atom + closer * n).ok
    return deepest(parses)


def cold_probe(runner: h.Runner, tracer: Tracer, out_dir: Path) -> None:
    """Fresh ``pegstack check`` processes: import and first grammar load."""
    out = out_dir / "cold-spans.jsonl"
    for _ in range(COLD_PROCESSES):
        proc = h.cli_process(runner.root, h.cli_command(out),
                             ["check", "--grammar", str(runner.root / runner.wl.grammar)], "")
        if proc.returncode != 0:
            raise RuntimeError(f"pegstack check failed: {proc.stderr}")
        adopt_file(tracer, out)


def adopt_file(tracer: Tracer, path: Path, **root_attrs) -> None:
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    for rec in records:
        if rec["parent"] is None and rec["name"] == "cli.main":
            rec.update(root_attrs)
    tracer.adopt(records)


# ---------------------------------------------------------------------------
# the run


def traced_run(runner: h.Runner, seconds: float, out_dir: Path) -> tuple[dict, h.Tally]:
    """Per-layer metrics (name -> (value, unit)) and the tally of all operations."""
    wl = runner.wl
    tracer = Tracer()
    uninstall = install(tracer)
    for _ in range(SETUP_REPS):
        tracer.call("bench.setup", runner.set_up, 1)

    child_out = out_dir / "child-spans.jsonl"

    def traced_op(doc):
        if wl.cli:
            child_out.unlink(missing_ok=True)
            proc = h.cli_op(runner.root, wl, doc, child_out)
            if child_out.exists():  # absent only if the child died before its first span
                adopt_file(tracer, child_out, bytes=len(doc.text))
            return proc
        return tracer.call("bench.op", h.library_op, runner.parser, doc,
                           note=lambda _: {"bytes": len(doc.text)})

    traced, untraced = h.Tally([]), h.Tally([])
    passes = 0
    start = perf()
    while True:
        runner.one_pass(traced, traced_op)
        passes += 1
        uninstall()
        runner.one_pass(untraced)
        if perf() - start >= seconds:
            break
        uninstall = install(tracer)

    probe_docs = wl.probe_pool(h.rng_for(wl.name, runner.seed, "probe"))
    metrics = optimize_probe(runner.root, wl, probe_docs)
    metrics["engine.max_nesting"] = nesting_probe(runner)
    op_root = "cli.main" if wl.cli else "bench.op"
    index = SpanIndex(tracer.spans)
    if not wl.cli:
        fails = any(index.below(r, "errors.build_parse_error") for r in index.roots(op_root))
        uninstall = install(tracer)
        if not fails:
            for doc in probe_docs:
                text = doc.text[:len(doc.text) // 2] + "!"
                tracer.call("bench.error_probe", h.library_op, runner.parser, w.Doc(text, []))
        uninstall()
        render = h.pegstack("values").render_value
        for doc in probe_docs:
            value = runner.parser.run(doc.text).values[0]
            try:
                tracer.call("values.render", render, value)
            except RecursionError:
                pass  # counted from the span's error attr
        cold_probe(runner, tracer, out_dir)

    index = SpanIndex(tracer.spans)
    metrics.update(span_metrics(index, op_root, passes=1 if not wl.cli else passes))
    metrics["engine.time_exponent"] = time_exponent(runner, untraced)
    metrics["trace.overhead_ratio"] = sum(traced.times()) / sum(untraced.times())
    tracer.write(out_dir / f"spans-{wl.name}-{runner.seed}.jsonl")

    every = h.Tally(traced.samples + untraced.samples, traced.kb + untraced.kb,
                    traced.failed + untraced.failed, traced.wrong + untraced.wrong)
    return {name: (value, UNITS[name]) for name, value in metrics.items()}, every


def span_metrics(index: SpanIndex, op_root: str, passes: int) -> dict:
    """Everything the spans give. render_failures is per pass of render calls."""
    ops = index.roots(op_root)
    kb = sum(r.attrs["bytes"] for r in ops) / w.KB
    runs = [s for r in ops for s in index.below(r, "engine.run")
            if not index.under(s, "notation.load_grammar")]
    steps = sum(s.attrs.get("steps", 0) for s in runs)
    m = {
        "engine.run_ms": sum(index.self_time(s) for s in runs) / len(ops) * 1e3,
        "engine.steps_per_kb": steps / kb,
        "engine.terminal_mismatches_per_kb": sum(s.attrs.get("mismatches", 0) for s in runs) / kb,
        "engine.ns_per_step": sum(s.duration for s in runs) / max(steps, 1) * 1e9,
        "values.snapshots": _mean(r.attrs["snapshots"] for r in ops),
        "values.snapshot_elems": _mean(r.attrs["snapshot_elems"] for r in ops),
        "values.restores": _mean(r.attrs["restores"] for r in ops),
        "values.snapshot_ms": _mean(r.attrs["snapshot_s"] * 1e3 for r in ops),
        "values.max_stack": max(r.attrs["max_stack"] for r in ops),
    }

    failing = [r for r in ops + index.roots("bench.error_probe")
               if index.below(r, "errors.build_parse_error")]

    def per_failure(name):
        return _mean(sum(s.duration for s in index.below(r, name)) * 1e3 for r in failing)

    m["errors.passes_per_failure"] = _mean(
        s.attrs["passes"] for r in failing for s in index.below(r, "engine.run")
        if not index.under(s, "notation.load_grammar"))
    m["errors.principal_ms"] = per_failure("errors.principal_error_index")
    m["errors.collect_ms"] = per_failure("errors.trace_collection")
    m["errors.format_ms"] = per_failure("errors.format_error")
    m["errors.traces"] = _mean(s.attrs["traces"] for r in failing
                               for s in index.below(r, "errors.build_parse_error"))

    renders = [s for s in index.spans if s.name == "values.render"]
    m["values.render_ms"] = _mean(s.duration * 1e3 for s in renders)
    m["values.render_failures"] = sum("error" in s.attrs for s in renders) / passes

    setups = index.roots("bench.setup")

    def per_setup(name, pick=lambda root, s: True):
        return _median(sum(s.duration for s in index.below(r, name) if pick(r, s)) * 1e3
                       for r in setups)

    m["notation.load_ms"] = per_setup("notation.load_grammar")
    m["rules.validate_ms"] = per_setup("rules.validate_grammar")
    m["effects.check_ms"] = per_setup("effects.check_grammar")
    m["optimize.optimize_ms"] = per_setup("optimize.optimize")
    m["engine.construct_ms"] = per_setup("engine.construct",
                                         lambda r, s: not index.under(s, "notation.load_grammar"))
    m["engine.first_run_ms"] = per_setup("engine.run", lambda r, s: s.parent == r.sid)
    m["notation.meta_steps"] = _median(s.attrs["steps"] for r in setups
                                       for s in index.below(r, "notation.load_grammar"))

    m["cli.import_ms"] = _median(s.duration * 1e3 for s in index.roots("cli.import"))
    m["notation.load_cold_ms"] = _median(
        s.duration * 1e3 for r in index.roots("cli.main")
        for s in index.below(r, "notation.load_grammar"))
    return m
