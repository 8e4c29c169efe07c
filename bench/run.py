"""pebblekit benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload sweep|strategy_replay|solve_queries \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports pebblekit from its
``src/``. Prints run facts and one ``metric <name> <value> <unit>`` line per
metric, then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps each layer's entry points and
reports the per-layer metrics instead. Exits 1 when any answer fails its
check and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# single-threaded: no thread pools in numpy's linear-algebra back ends
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measured time; passes over the case list repeat until it is used")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def find_program() -> bool:
    """Put the checkout's src/ first on the path; True if pebblekit is there."""
    if not os.path.isfile(os.path.join(SRC, "pebblekit", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def main(argv=None) -> int:
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    args = parse_args(argv)
    if not find_program():
        print(f"run.py: no pebblekit sources under {os.path.relpath(SRC)}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    out = harness.run(workload, args.seed, args.seconds, bool(args.trace),
                      os.path.join(HERE, "out"))
    loop = out["loop"]
    for key, value in out["facts"].items():
        print(f"fact {key} {value}")
    for desc, counts in out["sweeps"]:
        print(f"sweep {desc} rows={counts['engine.sweep.rows']} "
              f"levels={counts['engine.sweep.levels']} "
              f"solver_calls={counts['engine.search.calls']} "
              f"dfs_nodes={counts['engine.search.dfs_nodes']}")
    for name, (value, unit) in out["metrics"].items():
        print(f"metric {name} {value} {unit}")
    print(f"metric fail_ratio {loop.failed / loop.attempted} ratio "
          f"({loop.failed} of {loop.attempted} case runs)")
    for problem in loop.problems:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
