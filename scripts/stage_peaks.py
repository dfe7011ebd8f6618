"""Resident memory after each stage of the ``hom-single-batch`` benchmark pipeline.

Runs the pipeline of ``bench/workloads.py``'s ``hom_single_batch`` (the
bench cat, N = 1e5 homodyne rounds, M = 3, subset ``[0]``, on the seed path
of the benchmark's first iteration) ``--runs`` times, each in a fresh child
started with the benchmark's child environment (``bench/run.py``'s
``child_env``), from this checkout's ``src/``.  After each stage the child
records ``ru_maxrss`` (the high-water mark so far) and ``VmRSS`` (resident
now, from ``/proc/self/status``):

* ``start``: the interpreter and the benchmark's own modules;
* ``imports``: numpy and the library layers the workload calls;
* ``setup``: the cat state and its exact target;
* ``sampling``: ``sample_homodyne_batch``;
* ``shadow``: ``shadow_batch_entries`` and ``average_entries``.

The stage after which ``ru_maxrss`` last rises sets the workload's peak.

    python3 scripts/stage_peaks.py [--runs 3] [--seed 1]

Prints one JSON object: per stage the values of each run (MB) and their
medians, the stage that sets the median peak, and the SHA-256 of each run's
shadow mean (the benchmark's ``shadow_mean`` hash).  Exits 1 if a child
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

STAGES = ("start", "imports", "setup", "sampling", "shadow")


def _rss() -> dict:
    """``ru_maxrss`` and ``VmRSS`` of this process, in MB."""
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))
    return {
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "vmrss_mb": kb / 1024.0,
    }


def child(seed: int) -> dict:
    """The pipeline's stages in this process, as the benchmark child runs them."""
    from spans import bind
    from workloads import HOM_ROUNDS, TRUNCATION, seed_path, sha256

    marks = {"start": _rss()}
    api = bind(None)
    from cvshadow.states import CatStateSpec

    marks["imports"] = _rss()
    state = CatStateSpec(1 + 1j, "zero")
    api.project_PM(api.fock_matrix_of(state, 24), TRUNCATION)
    marks["setup"] = _rss()
    spec = {"workload": "hom-single-batch", "seed": seed, "iteration": 0}
    batch = api.sample_homodyne_batch(state, HOM_ROUNDS, seed_path(spec, "cat"))
    marks["sampling"] = _rss()
    chunks = api.shadow_batch_entries(batch, [0], TRUNCATION)
    avg = api.average_entries(chunks, (0,), TRUNCATION, "homodyne")
    marks["shadow"] = _rss()
    return {"stages": marks, "shadow_mean": sha256(avg.mean.tobytes())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="fresh processes")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.seed)))
        return 0
    import platform  # the launcher's modules, kept out of the children
    import statistics

    from run import THREAD_VARS, child_env

    env = child_env()
    runs, failed = [], 0
    for _ in range(args.runs):
        proc = subprocess.run(
            [sys.executable, __file__, "--child", "--seed", str(args.seed)],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode:
            failed += 1
            print(proc.stderr[-2000:], file=sys.stderr)
        else:
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    stages = {
        stage: {
            key: [run["stages"][stage][key] for run in runs]
            for key in ("ru_maxrss_mb", "vmrss_mb")
        }
        for stage in STAGES
    }
    for values in stages.values():
        values["median"] = {key: statistics.median(v) for key, v in values.items() if v}
    highs = [stages[stage]["median"].get("ru_maxrss_mb", 0.0) for stage in STAGES]
    print(json.dumps({
        "command": " ".join(["python3", "scripts/stage_peaks.py", *sys.argv[1:]]),
        "seed": args.seed,
        "runs": args.runs,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **{var: env.get(var) for var in THREAD_VARS},
        },
        "stages": stages,
        "peak_stage": STAGES[highs.index(max(highs))],
        "shadow_mean": sorted({run["shadow_mean"] for run in runs}),
        "failed": failed,
    }, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
