"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wide-quick --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes an untraced pass and a traced pass and prints the
per-layer metrics.  Every run also runs the hard checks.  Human-readable
lines come first; the last line of standard output is one JSON object::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

The benchmark builds nothing: it imports the ``repro`` package from the
checkout's ``src`` directory and writes only under ``.perfbench/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("wide-quick", "service-warm", "service-cold")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _compare_state(state_file: Path, state: dict, problems: list) -> None:
    """Runs with the same workload, seed and length repeat their results.

    The first such run records the digest of its results and its
    deterministic counts; every later run compares against that record.
    """
    if not state:
        return
    record = {"digest": state["digest"],
              "counts": {name: value for name, (value, _unit)
                         in state["counts"].items()}}
    if state_file.exists():
        previous = json.loads(state_file.read_text())
        if previous != record:
            changed = sorted(name for name in record["counts"]
                             if record["counts"][name]
                             != previous["counts"].get(name))
            problems.append(f"results differ from an earlier run with the "
                            f"same seed (counts changed: "
                            f"{', '.join(changed) or 'none'}; digest "
                            f"{previous['digest'][:12]} -> "
                            f"{record['digest'][:12]})")
    else:
        state_file.parent.mkdir(parents=True, exist_ok=True)
        state_file.write_text(json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cannot find the repro package under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = json.loads((HERE / "known_deviations.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    import service
    import wide

    work = ROOT / ".perfbench"
    scratch = work / f"run-{os.getpid()}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    pairs = known["wrong_output_pairs"]
    try:
        if args.workload == "wide-quick":
            outcome, state = wide.run(args.seed, args.seconds,
                                      bool(args.trace), str(SRC), pairs)
        else:
            outcome, state = service.run(args.workload, args.seed,
                                         args.seconds, bool(args.trace),
                                         str(SRC), pairs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        # Settle this run's disk writes and deletions, so that the next
        # run does not start under them.
        os.sync()
    _compare_state(work / "state" / f"{args.workload}-{args.seed}-{args.seconds}.json",
                   state, outcome.problems)

    measured = outcome.per_layer if args.trace else outcome.end_to_end
    metrics = {}
    idle = []
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            value, unit = measured[name]
        elif args.trace:
            # A layer this workload does not exercise did no work.
            value, unit = 0.0, entry["unit"]
            idle.append(name)
        else:
            outcome.problems.append(f"end-to-end metric {name} was not "
                                    f"measured")
            continue
        metrics[name] = {"value": value, "unit": unit}

    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {outcome.attempted} operations, "
          f"{outcome.failed} failed")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if idle:
        print(f"  not exercised (reported as 0): {', '.join(idle)}")
    for note in outcome.notes:
        print(f"  {note}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": not outcome.problems,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
