"""Workloads, their operations and checks, and the untraced timed loop.

Each workload is a closed loop with one operation in flight: the next
document goes in only after the previous operation returned and was
checked. Only the operation itself is timed: in-process work (operations
and set-ups) by the CPU time of this process, ``time.process_time``, and a
``pegstack run`` process by its wall time, ``time.perf_counter``. Every
time is then scaled to the nominal machine speed (reference.py). A run is
made of whole passes over the pool, so every run of a seed times the same
multiset of documents.

pegstack is reached through module attributes at call time
(``notation.load_grammar``, ``engine.Parser``), so the traced run sees the
same calls through its wrappers.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time as cpu
from typing import Callable

import workloads as w
from reference import scaled, slowness
from spans import perf

BENCH_DIR = Path(__file__).resolve().parent
# Library pools are dense in size (each document 10 % to 12 % larger than the
# one before), so the operations around a percentile come from several
# documents of nearly the same size, and one document that runs slow in one
# process moves the percentile little. MIN_OPS makes three passes of them.
LIBRARY_DOCS = 41
MIN_OPS = 100  # a 90th percentile with ten samples beyond it
SETUP_REPS = 5  # per pass
CLI_TIMEOUT_S = 120

CALC_WARMUP = "(12+3)*4-56/7+8"
JSON_WARMUP = '{"a":[1,-2.5e3,"x\\"y\\\\z",true,false,null,[]],"b":{}}'


@dataclass(frozen=True)
class Workload:
    name: str
    grammar: str  # path relative to the checkout root
    warmup: str
    pool: Callable[[random.Random], list]
    probe_pool: Callable[[random.Random], list]  # valid documents for probes
    decode: Callable[[list], list] = lambda tokens: tokens
    cli: bool = False


WORKLOADS = {
    "calc-parse": Workload(
        "calc-parse", "grammars/calc.peg", CALC_WARMUP,
        lambda rng: w.calc_pool(rng, w.log_sizes(LIBRARY_DOCS, 1_000, 100_000)),
        lambda rng: w.calc_pool(rng, w.log_sizes(8, 200, 10_000))),
    "calc-error": Workload(
        "calc-error", "grammars/calc.peg", CALC_WARMUP,
        lambda rng: w.calc_error_pool(rng, w.log_sizes(LIBRARY_DOCS, 1_000, 100_000)),
        lambda rng: w.calc_pool(rng, w.log_sizes(8, 200, 10_000))),
    "json-doc": Workload(
        "json-doc", "bench/json.peg", JSON_WARMUP,
        lambda rng: w.json_pool(rng, w.log_sizes(LIBRARY_DOCS, 500, 24_000)),
        lambda rng: w.json_pool(rng, w.log_sizes(8, 200, 8_000)),
        decode=w.decode_json_leaves),
    "cli": Workload(
        "cli", "grammars/calc.peg", CALC_WARMUP,
        lambda rng: w.cli_pool(rng, w.log_sizes(25, 4, 100_000)),
        lambda rng: w.calc_pool(rng, w.log_sizes(8, 200, 10_000)),
        cli=True),
}


def pegstack(module: str):
    return importlib.import_module(f"pegstack.{module}")


def rng_for(workload: str, seed: int, purpose: str = "pool") -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


# ---------------------------------------------------------------------------
# library operations


def setup(root: Path, wl: Workload):
    """load_grammar -> optimize -> Parser -> one warm-up parse; returns the parser."""
    grammar = pegstack("notation").load_grammar(root / wl.grammar)
    parser = pegstack("engine").Parser(pegstack("optimize").optimize(grammar))
    result = parser.run(wl.warmup)
    if not result.ok:
        raise RuntimeError(f"warm-up parse failed: {result.kind}")
    return parser


def library_op(parser, doc: w.Doc):
    result = parser.run(doc.text)
    message = None
    if result.error is not None:
        message = pegstack("errors").format_error(result.error, doc.text)
    return result, message


def check_library(wl: Workload, doc: w.Doc, outcome) -> str:
    """'ok', 'failed' (the program reported trouble) or 'wrong' (a silent wrong answer)."""
    result, message = outcome
    if result.fault is not None:
        return "failed"
    if doc.error_at is None:
        if result.values is None or len(result.values) != 1:
            return "wrong"
        return "ok" if wl.decode(w.value_tokens(result.values[0])) == doc.tokens else "wrong"
    if result.error is None:
        return "wrong"
    at = doc.error_at
    lines = message.split("\n")
    caret_ok = lines[0].endswith(f"(line 1, column {at + 1}):") and lines[-1] == " " * at + "^"
    return "ok" if result.error.position.index == at and caret_ok else "wrong"


# ---------------------------------------------------------------------------
# CLI operations


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def cli_command(traced_out: Path | None = None) -> list[str]:
    """``pegstack`` as a fresh process; with traced_out, inside the span wrapper."""
    if traced_out is None:
        return [sys.executable, "-m", "pegstack.cli"]
    return [sys.executable, str(BENCH_DIR / "cli_child.py"), str(traced_out)]


def cli_process(root: Path, command: list[str], args: list[str], text: str):
    return subprocess.run(command + args, input=text, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S, cwd=root, env=child_env(root))


def cli_op(root: Path, wl: Workload, doc: w.Doc, traced_out: Path | None = None):
    args = ["run", "--grammar", str(root / wl.grammar)] + (["--json"] if doc.as_json else [])
    return cli_process(root, cli_command(traced_out), args, doc.text)


def check_cli(doc: w.Doc, proc) -> str:
    if "Traceback" in proc.stderr or proc.returncode not in (0, 1):
        return "failed"
    if doc.error_at is None:
        expected = w.json_output(doc.tokens) if doc.as_json else w.render_tokens(doc.tokens)
        return "ok" if proc.returncode == 0 and proc.stdout == expected + "\n" else "wrong"
    at = doc.error_at
    where = f"(line 1, column {at + 1}):"
    if proc.returncode != 1:
        return "wrong"
    if doc.as_json:
        try:
            out = json.loads(proc.stdout)
        except ValueError:
            return "wrong"
        ok = (out.get("result") == "error"
              and out.get("position") == {"index": at, "line": 1, "column": at + 1}
              and bool(out.get("expected"))
              and out.get("message", "").split("\n")[0].endswith(where))
    else:
        lines = proc.stderr.rstrip("\n").split("\n")
        ok = proc.stdout == "" and lines[0].endswith(where) and lines[-1] == " " * at + "^"
    return "ok" if ok else "wrong"


# ---------------------------------------------------------------------------
# the timed loop


@dataclass
class Tally:
    """Outcomes and per-operation times of one timed loop."""

    samples: list  # (pool index, seconds)
    kb: float = 0.0
    failed: int = 0  # includes wrong
    wrong: int = 0
    slow: list = field(default_factory=list)  # reference.slowness() before each sample

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def times(self) -> list[float]:
        return [t for _, t in self.samples]


class Runner:
    """One workload's pool, set-up and checked operations."""

    def __init__(self, root: Path, wl: Workload, seed: int):
        self.root = root
        self.wl = wl
        self.seed = seed
        self.docs = wl.pool(rng_for(wl.name, seed))
        self.order = w.spread_order(len(self.docs))
        self.parser = None

    def set_up(self, reps: int, slow: list | None = None) -> list[float]:
        """CPU times of reps set-ups; the first parser built serves the operations.

        With slow, the machine's slowness is appended before each set-up.
        """
        times = []
        for _ in range(reps):
            if slow is not None:
                slow.append(slowness())
            t0 = cpu()
            parser = setup(self.root, self.wl)
            times.append(cpu() - t0)
            self.parser = self.parser or parser
        return times

    def operate(self, doc: w.Doc):
        if self.wl.cli:
            return cli_op(self.root, self.wl, doc)
        return library_op(self.parser, doc)

    def check(self, doc: w.Doc, outcome) -> str:
        if self.wl.cli:
            return check_cli(doc, outcome)
        return check_library(self.wl, doc, outcome)

    def step(self, k: int, tally: Tally, operate=None) -> None:
        """One checked operation on pool document k."""
        doc = self.docs[k]
        # every operation starts with empty young generations, so a collection
        # inside it is one its own allocations cause, whatever ran before
        gc.collect()
        tally.slow.append(slowness())
        clock = perf if self.wl.cli else cpu
        t0 = clock()
        try:
            outcome = (operate or self.operate)(doc)
        except Exception:  # noqa: BLE001 - the loop must go on and count it
            elapsed = clock() - t0
            traceback.print_exc(limit=3, file=sys.stderr)
            verdict = "failed"
        else:
            elapsed = clock() - t0
            verdict = self.check(doc, outcome)
        tally.samples.append((k, elapsed))
        tally.kb += len(doc.text) / w.KB
        if verdict != "ok":
            tally.failed += 1
            tally.wrong += verdict == "wrong"

    def timed(self, seconds: float) -> tuple[Tally, tuple[list[float], list[float]]]:
        """Whole passes until seconds have passed and MIN_OPS are done.

        SETUP_REPS set-ups go before each pass, so set-up samples spread
        over the run like the operations do. Also returns the set-up times,
        scaled to the nominal speed and as measured.
        """
        tally, setups, setup_slow = Tally([]), [], []
        start = perf()
        while tally.attempted < MIN_OPS or perf() - start < seconds:
            setups += self.set_up(SETUP_REPS, setup_slow)
            self.one_pass(tally)
        return tally, (scaled(setups, setup_slow), setups)

    def one_pass(self, tally: Tally, operate=None) -> None:
        for k in self.order:
            self.step(k, tally, operate)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def time_metrics(samples: list, kb: float, setup_times: list[float]) -> dict:
    """setup_s, throughput and latencies from (pool index, seconds) samples."""
    latencies = [t for _, t in samples]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_kb_s": (kb / sum(t for _, t in samples), "KB/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (deciles[8] * 1e3, "ms"),
    }


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, Tally, dict]:
    """Metrics (name -> (value, unit)), their sample counts, the tally, and
    the time metrics as measured, before scaling to the nominal speed."""
    tally, (setup_scaled, setup_raw) = runner.timed(seconds)
    samples = [(k, t) for (k, _), t in zip(tally.samples, scaled(tally.times(), tally.slow))]
    metrics = {
        **time_metrics(samples, tally.kb, setup_scaled),
        "ok_ratio": (1 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(children=runner.wl.cli), "MB"),
    }
    counts = {"setup_s": len(setup_scaled), "peak_rss_mb": 1}
    counts.update({name: tally.attempted for name in metrics if name not in counts})
    unscaled = {name: value for name, (value, _) in
                time_metrics(tally.samples, tally.kb, setup_raw).items()}
    unscaled["slowness"] = statistics.median(tally.slow)
    return metrics, counts, tally, unscaled
