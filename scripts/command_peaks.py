"""Peak RSS and wall time of each CLI command of the ``cli-roundtrip`` benchmark.

Runs the six commands that ``bench/workloads.py`` defines (chain ``sample``
and ``reconstruct``, vacuum ``sample``, ``reconstruct``, ``entropy`` and
``bounds``) on its chain and vacuum configs, with the ``--seed`` values the
benchmark passes on its first iteration, ``--runs`` times in order.  Each
command runs from this checkout's ``src/`` in the benchmark's child
environment (``bench/run.py``'s ``child_env``), in a child started by
``subprocess`` with a ``preexec_fn``, which forces fork and exec; its peak is
``os.wait4``'s ``ru_maxrss`` and its wall time runs from start to reap.  This
launcher imports neither numpy nor the library, so the fork's copy of it
stays below every child's peak (``launcher_rss_mb``).

    python3 scripts/command_peaks.py [--runs 3] [--seed 1]

Prints one JSON object: per command its peaks (MB), wall times (s) and exit
codes, one entry per run, the command with the highest median peak, and the
SHA-256 of each output file the benchmark hashes, from the first run.
Exits 1 if any command failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH_DIR))

from run import THREAD_VARS, child_env  # noqa: E402
from workloads import CHAIN_CONFIG, VACUUM_CONFIG, _cli_commands, file_sha256  # noqa: E402

# the outputs whose SHA-256 bench/workloads.py records for cli-roundtrip
HASHED = ("chain_s/records.jsonl", "vac_s/records.jsonl", "chain_r/pair_grid.csv", "vac_r/grid.csv")


def run_command(argv: list[str], env: dict) -> dict:
    """Run ``python -m cvshadow.cli argv`` in a forked child; its peak RSS, wall time and exit."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "cvshadow.cli", *argv], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, preexec_fn=lambda: None,
    )
    stderr = proc.stderr.read()  # until the child exits and closes it
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    entry = {
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "wall_s": time.monotonic() - t0,
        "exit": proc.returncode,
    }
    if proc.returncode:
        entry["stderr"] = stderr.decode(errors="replace")[-2000:]
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs of the six commands")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed")
    args = parser.parse_args(argv)
    env = child_env()
    spec = {"workload": "cli-roundtrip", "seed": args.seed, "iteration": 0}
    commands: dict[str, dict] = {}
    hashes: dict[str, str | None] = {}
    work = Path(tempfile.mkdtemp(prefix="command-peaks-"))
    try:
        for run in range(args.runs):
            run_dir = work / f"run{run}"
            run_dir.mkdir()
            for name, config in (("chain.json", CHAIN_CONFIG), ("vacuum.json", VACUUM_CONFIG)):
                (run_dir / name).write_text(json.dumps(config))
            for kind, cli_argv in _cli_commands(spec, run_dir):
                config = Path(cli_argv[cli_argv.index("--config") + 1]).stem
                entry = run_command(cli_argv, env)
                record = commands.setdefault(f"{config} {kind}", {})
                for key, value in entry.items():
                    record.setdefault(key, []).append(value)
            if run == 0:
                for name in HASHED:
                    path = run_dir / name
                    hashes[name] = file_sha256(path) if path.exists() else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    medians = {name: statistics.median(c["peak_rss_mb"]) for name, c in commands.items()}
    top = max(medians, key=medians.get)
    failed = sum(code != 0 for c in commands.values() for code in c["exit"])
    print(json.dumps({
        "command": " ".join(["python3", "scripts/command_peaks.py", *sys.argv[1:]]),
        "seed": args.seed,
        "runs": args.runs,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **{var: env.get(var) for var in THREAD_VARS},
        },
        "launcher_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "peak": {"command": top, "median_peak_rss_mb": medians[top]},
        "sha256": hashes,
        "failed": failed,
    }, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
