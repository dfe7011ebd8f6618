"""Run one iteration of a workload in this (fresh) process.

Usage: python3 bench/child.py '<json spec>'

The spec names the workload, the benchmark seed, the iteration, how to trace
(false, "time" or "memory"), whether to stop after set-up, and the parent's ``time.monotonic()``
just before it started this process.  The result is printed as one JSON line.
"""

import json
import sys

from spans import Tracer
from workloads import WORKLOADS


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = Tracer(memory=spec["trace"] == "memory") if spec["trace"] else None
    result = WORKLOADS[spec["workload"]](spec, tracer)
    if tracer:
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
