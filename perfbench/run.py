"""Benchmark entry point.

    python3 perfbench/run.py --workload scan-scalar --seed 1 --seconds 40 --trace 0

Run it from the repository root: it imports bulkio from ``src/`` there and
keeps its scratch files in ``perfbench/_work/``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1`` (whose spans go to ``perfbench/_work/spans-*.jsonl``).
Exits 2, printing no result, when the checkout has no bulkio sources.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Measure the checkout's own sources, never an installed copy.
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bulkio", "__init__.py")):
        print(f"perfbench: no bulkio sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads.WORKLOADS)}")
    run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace),
                      os.path.join(HERE, "_work"))
    result = run.execute()
    run.report()
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
