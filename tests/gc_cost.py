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
* ``tracked/node``: per node of the values built, the node and the objects
  it refers to that are tracked by the collector and are neither values nor
  classes (a children tuple), read with ``gc.get_referents``.

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


def _nodes(values, node_class) -> list:
    """The nodes of the values, found through payloads, children and list items."""
    nodes, todo = [], list(values)
    while todo:
        payload = todo.pop().payload
        if isinstance(payload, node_class):
            nodes.append(payload)
            todo.extend(payload.children)
        elif type(payload) is tuple:
            todo.extend(payload)
    return nodes


def tracked_per_node(values, value_class, node_class) -> tuple[float, int]:
    """Tracked objects per node (see the module docstring) and the node count."""
    nodes = _nodes(values, node_class)
    tracked = sum(1 + sum(1 for ref in gc.get_referents(node) if gc.is_tracked(ref)
                          and not isinstance(ref, (value_class, type)))
                  for node in nodes)
    return tracked / max(len(nodes), 1), len(nodes)


def measure(workload: str, seed: int, docs: int) -> dict:
    import harness
    from pegstack.values import Node, Value

    wl = harness.WORKLOADS[workload]
    pool = wl.pool(harness.rng_for(workload, seed))
    largest = sorted(pool, key=lambda doc: len(doc.text))[-docs:]
    parser = harness.setup(ROOT, wl)
    results = [parser.run(doc.text) for doc in largest]  # writes the generated modules
    per_node, nodes = tracked_per_node([v for res in results if res.values for v in res.values],
                                       Value, Node)
    del results

    # collections inside the parses only: not the explicit ones between them
    gc_time, started, counts, timing = [0.0], [0.0], [0, 0, 0], [False]

    def clock(phase: str, info: dict) -> None:
        if not timing[0]:
            return
        if phase == "start":
            started[0] = perf_counter()
            counts[info["generation"]] += 1
        else:
            gc_time[0] += perf_counter() - started[0]

    run_time = 0.0
    gc.callbacks.append(clock)
    try:
        before = [stats["collections"] for stats in gc.get_stats()]
        for _ in range(ROUNDS):
            for doc in largest:
                gc.collect()
                timing[0] = True
                t0 = perf_counter()
                result = parser.run(doc.text)
                run_time += perf_counter() - t0
                timing[0] = False
                del result
        after = [stats["collections"] for stats in gc.get_stats()]
    finally:
        gc.callbacks.remove(clock)
    # gc.get_stats() agrees, once the explicit collections are taken out
    stats = [b - a for a, b in zip(before, after)]
    stats[-1] -= ROUNDS * len(largest)
    if stats != counts:
        raise RuntimeError(f"collections by gc.get_stats() {stats}, by the callback {counts}")
    return {"kb": sum(len(doc.text) for doc in largest) * ROUNDS / 1000, "run_ms": run_time * 1e3,
            "gc_ms": gc_time[0] * 1e3, "counts": counts, "per_node": per_node, "nodes": nodes}


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
    print("collections " + " ".join(f"gen{g}={n}" for g, n in enumerate(m["counts"])))
    print(f"tracked/node {m['per_node']:.3f} over {m['nodes']:,} nodes")


if __name__ == "__main__":
    main()
