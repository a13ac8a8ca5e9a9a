"""What the cyclic garbage collector costs a warmed Parser on a workload's
largest documents.

    python3 tests/gc_cost.py --workload calc-parse --seed 1 --docs 10
    python3 tests/gc_cost.py --workload json-doc --seed 1 --src ../other-tree/src

It builds the workload's pool for the seed as ``bench/run.py`` does
(``bench/harness.py``, read from this tree), sets a Parser up with the
harness's ``setup`` and parses the N largest documents once untimed, so
that the Parser has written its generated modules. Then it parses each of
them ``ROUNDS`` times, each after a ``gc.collect()`` as the benchmark's
timed loop does, so that every collection inside a parse is one its own
allocations cause. It prints:

* ``gc_ms``: the time inside collections, from ``gc.callbacks``, and the
  parse time, both by ``time.perf_counter``; their ratio is the GC share
  of the run;
* the collections of each generation during the parses, counted by the
  callback and checked against the difference of ``gc.get_stats()``;
* for a workload whose runs fail (``calc-error``), the same three, time,
  GC time and collections, for each of a failing run's passes: the parse
  pass, and the error pass (``Parser.error_pass``), which it times apart;
* ``tracked/KB`` beside the collections, and ``tracked/node``: the objects
  that the values of one parse of each document hold and the collector
  tracks (nodes, other values, tuples; no class), per KB of the documents
  and per node. They are found by walking ``gc.get_referents`` from the
  values, which builds nothing: ``children`` would build the tuple of a
  node on each read, and a leaf's ``Value('Str', text)`` too, which the
  leaf does not hold. Runs that hold no values, as failing runs do, say
  so instead.

Like the benchmark, it leaves the collector on, sets no threshold and
freezes nothing, so a collection of the oldest generation also walks the
pool's expected tokens. Only the in-process workloads (``calc-parse``,
``calc-error``, ``json-doc``) run. Not collected by pytest: its name does
not start with ``test_``.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
IN_PROCESS = ("calc-parse", "calc-error", "json-doc")
ROUNDS = 3  # timed parses of each document


def tracked_objects(values, node_class) -> tuple[int, int]:
    """The objects that the values hold and the collector tracks, each
    counted once, and the nodes among them (see the module docstring)."""
    seen, todo, nodes = set(), list(values), 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or not gc.is_tracked(obj) or isinstance(obj, type):
            continue
        seen.add(id(obj))
        nodes += isinstance(obj, node_class)
        todo.extend(gc.get_referents(obj))
    return len(seen), nodes


def measure(workload: str, seed: int, docs: int) -> dict:
    import harness
    from pegstack.values import Node

    wl = harness.WORKLOADS[workload]
    pool = wl.pool(harness.rng_for(workload, seed))
    largest = sorted(pool, key=lambda doc: len(doc.text))[-docs:]
    parser = harness.setup(ROOT, wl)
    results = [parser.run(doc.text) for doc in largest]  # writes the generated modules
    values = [v for res in results if res.values for v in res.values]
    tracked, nodes = tracked_objects(values, Node)
    del results

    # by pass: the time, the GC time and the collections inside the parses
    # only, not the explicit ones between them; phase names the pass that
    # runs, or None between the parses
    passes = {name: {"ms": 0.0, "gc_ms": 0.0, "counts": [0, 0, 0]} for name in ("parse", "error")}
    phase, started = [None], [0.0]

    def clock(stage: str, info: dict) -> None:
        if phase[0] is None:
            return
        if stage == "start":
            started[0] = perf_counter()
            passes[phase[0]]["counts"][info["generation"]] += 1
        else:
            passes[phase[0]]["gc_ms"] += (perf_counter() - started[0]) * 1e3

    error_pass = parser.error_pass

    def timed_error_pass(*args):
        phase[0] = "error"
        t0 = perf_counter()
        try:
            return error_pass(*args)
        finally:
            passes["error"]["ms"] += (perf_counter() - t0) * 1e3
            phase[0] = "parse"

    parser.error_pass = timed_error_pass
    run_time = 0.0
    gc.callbacks.append(clock)
    try:
        before = [stats["collections"] for stats in gc.get_stats()]
        for _ in range(ROUNDS):
            for doc in largest:
                gc.collect()
                phase[0] = "parse"
                t0 = perf_counter()
                result = parser.run(doc.text)
                run_time += perf_counter() - t0
                phase[0] = None
                del result
        after = [stats["collections"] for stats in gc.get_stats()]
    finally:
        gc.callbacks.remove(clock)
        del parser.error_pass
    counts = [a + b for a, b in zip(passes["parse"]["counts"], passes["error"]["counts"])]
    # gc.get_stats() agrees, once the explicit collections are taken out
    stats = [b - a for a, b in zip(before, after)]
    stats[-1] -= ROUNDS * len(largest)
    if stats != counts:
        raise RuntimeError(f"collections by gc.get_stats() {stats}, by the callback {counts}")
    passes["parse"]["ms"] = run_time * 1e3 - passes["error"]["ms"]
    kb = sum(len(doc.text) for doc in largest) / 1000
    return {"kb": kb * ROUNDS, "run_ms": run_time * 1e3,
            "gc_ms": passes["parse"]["gc_ms"] + passes["error"]["gc_ms"], "counts": counts,
            "passes": passes, "values": len(values), "per_kb": tracked / kb,
            "per_node": tracked / max(nodes, 1), "nodes": nodes}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=IN_PROCESS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--docs", type=int, default=10, help="how many of the largest documents")
    ap.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                    help="the src directory that holds pegstack (default: this tree's)")
    args = ap.parse_args()
    sys.path[:0] = [str(args.src), str(ROOT / "bench")]
    m = measure(args.workload, args.seed, args.docs)
    share = m["gc_ms"] / m["run_ms"] if m["run_ms"] else 0.0
    print(f"{args.workload} seed {args.seed}: {args.docs} documents, {m['kb']:,.0f} KB parsed")
    print(f"run_ms {m['run_ms']:.1f}  gc_ms {m['gc_ms']:.1f}  gc_share {share:.3f}")
    print("collections " + " ".join(f"gen{g}={n}" for g, n in enumerate(m["counts"]))
          + (f"  tracked/KB {m['per_kb']:,.1f}" if m["values"] else ""))
    if m["passes"]["error"]["ms"]:
        for name, p in m["passes"].items():
            print(f"{name + ' pass':11} run_ms {p['ms']:.1f}  gc_ms {p['gc_ms']:.1f}  collections "
                  + " ".join(f"gen{g}={n}" for g, n in enumerate(p["counts"])))
    if m["values"]:
        print(f"tracked/node {m['per_node']:.3f} over {m['nodes']:,} nodes")
    else:
        print("the runs hold no values: nothing is tracked after a run")


if __name__ == "__main__":
    main()
