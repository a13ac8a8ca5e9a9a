"""Self-test of the benchmark: checkers, and counters that must repeat exactly.

    python3 -m pytest -q bench/test_bench.py

The traced runs here use the six smallest documents of each pool, so the
test takes seconds; the counters it compares are the ones listed in
layers.DETERMINISTIC.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads as w  # noqa: E402
from pegstack.cli import _value_json  # noqa: E402
from pegstack.values import render_value  # noqa: E402

LIBRARY = ("calc-parse", "calc-error", "json-doc")


def small(name: str) -> harness.Workload:
    wl = harness.WORKLOADS[name]
    return dataclasses.replace(wl, pool=lambda rng, f=wl.pool: f(rng)[:6],
                               probe_pool=lambda rng, f=wl.probe_pool: f(rng)[:3])


def counters(name: str, seed: int, tmp_path: Path) -> dict:
    runner = harness.Runner(ROOT, small(name), seed)
    metrics, tally = layers.traced_run(runner, 0, tmp_path)
    assert tally.failed == 0
    return {k: metrics[k][0] for k in layers.DETERMINISTIC}


def test_counters_repeat_for_a_seed_and_follow_the_input(tmp_path):
    for name in LIBRARY:
        first = counters(name, 11, tmp_path)
        assert counters(name, 11, tmp_path) == first, name
        other = counters(name, 12, tmp_path)
        # the inputs change with the seed; the grammar and the probes do not
        for key in ("engine.steps_per_kb", "values.snapshot_elems"):
            assert other[key] != first[key], (name, key)
        for key in ("errors.passes_per_failure", "notation.meta_steps", "engine.max_nesting"):
            assert other[key] == first[key], (name, key)


def test_every_per_layer_metric_is_reported(tmp_path):
    runner = harness.Runner(ROOT, small("calc-error"), 3)
    metrics, _ = layers.traced_run(runner, 0, tmp_path)
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}


def test_expected_cli_output_matches_the_renderers():
    parser = harness.setup(ROOT, harness.WORKLOADS["calc-parse"])
    for doc in w.calc_pool(random.Random(5), [3, 40, 300]):
        value = parser.run(doc.text).values[0]
        assert w.value_tokens(value) == doc.tokens
        assert w.render_tokens(doc.tokens) == render_value(value)
        assert w.json_output(doc.tokens) == json.dumps(
            {"result": "success", "values": [_value_json(value)]})


def test_checkers_reject_wrong_answers():
    wl = harness.WORKLOADS["json-doc"]
    parser = harness.setup(ROOT, wl)
    doc = w.json_pool(random.Random(7), [400])[0]
    outcome = harness.library_op(parser, doc)
    assert harness.check_library(wl, doc, outcome) == "ok"
    changed = dataclasses.replace(doc, tokens=doc.tokens[:-1] + [("num", -1)])
    assert harness.check_library(wl, changed, outcome) == "wrong"

    calc = harness.WORKLOADS["calc-error"]
    doc = w.calc_error_pool(random.Random(7), [500])[0]
    parser = harness.setup(ROOT, calc)
    outcome = harness.library_op(parser, doc)
    assert harness.check_library(calc, doc, outcome) == "ok"
    moved = dataclasses.replace(doc, error_at=doc.error_at - 1)
    assert harness.check_library(calc, moved, outcome) == "wrong"
