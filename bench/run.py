"""pegstack benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload calc-parse --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
wrapper installed; with ``--trace 1`` it reports the per-layer metrics from
spans (see METRICS.md next to this file). The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it is a report with the sample count of each metric, the
environment and, with ``--trace 0``, the time metrics as measured, before
they are scaled to the nominal machine speed (see reference.py).
``--workload all`` runs every workload in its own process, one after
another, and prints a table.

``failed`` counts every operation that did not deliver its expected
outcome; ``correct`` is false only if an operation returned a wrong answer
without reporting trouble (a traceback, an internal fault or an unexpected
exit code).

The program is taken from ``src/`` and ``grammars/`` of the checkout this
file sits in; without them the run exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("calc-parse", "calc-error", "json-doc", "cli")
MEASUREMENT = ("time.process_time for in-process operations, set-ups and the reference, "
               "time.perf_counter for pegstack run processes and spans, resource.getrusage "
               "for peak memory, in-process wrappers for spans and counters; "
               "no system-wide tracing")


def use_program() -> None:
    """Put the checkout's src/ first on sys.path, or exit 2 if it is missing."""
    needed = [ROOT / "src" / "pegstack" / "__init__.py", ROOT / "grammars" / "calc.peg"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"run.py: program not found in {ROOT}: missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import pegstack

    if Path(pegstack.__file__).resolve().parent != ROOT / "src" / "pegstack":
        print(f"run.py: imported pegstack from {pegstack.__file__}, not from src/", file=sys.stderr)
        sys.exit(2)


def pin_to_one_cpu() -> tuple[int, int]:
    """Keep this process and its children on one CPU; returns (nproc, that CPU).

    The CPUs of a shared machine change speed independently, so the speed
    reference (reference.py) must run where the work it scales runs.
    """
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def environment(seed: int, nproc: int, cpu: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "loadavg": os.getloadavg(),
        "recursion_limit": sys.getrecursionlimit(),
        "seed": seed,
        "measurement": MEASUREMENT,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    use_program()
    nproc, cpu = pin_to_one_cpu()
    import gc

    import harness
    import layers

    OUT_DIR.mkdir(exist_ok=True)
    runner = harness.Runner(ROOT, harness.WORKLOADS[name], seed)
    gc.collect()
    gc.freeze()  # the pool is benchmark data; keep it out of the program's GC passes
    if trace:
        metrics, tally = layers.traced_run(runner, seconds, OUT_DIR)
        counts = {k: tally.attempted for k in metrics}
        unscaled = None
    else:
        metrics, counts, tally, unscaled = harness.end_to_end(runner, seconds)
    report = {"workload": name, "trace": int(trace), "samples": counts,
              "silent_wrong": tally.wrong,
              "env": environment(seed, nproc, cpu)}
    if unscaled is not None:
        report["unscaled"] = unscaled
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT_DIR / f"result-{name}-{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as f:
        json.dump({"report": report, "result": result, "samples": tally.samples,
                   "slowness": tally.slow}, f)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        report, result = (json.loads(line) for line in proc.stdout.strip().split("\n")[-2:])
        rows.append((name, report, result))
    for name, report, result in rows:
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:44s} {entry['value']:14.6g} {entry['unit']:9s} "
                  f"n={report['samples'][metric]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
