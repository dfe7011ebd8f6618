"""cvshadow benchmark: one command, two workloads, each iteration in a fresh child.

Usage (from the repository root):

    python3 bench/run.py --workload hom-single-batch --seed 1 --seconds 45 --trace 0

Workloads (see bench/README.md for why each was chosen):

* ``hom-single-batch``: cat state, one homodyne batch of 1e5 rounds, M=3.
* ``cli-roundtrip``: ``python -m cvshadow.cli`` sample/reconstruct for the
  1000-mode chain, then sample/reconstruct/entropy/bounds for vacuum.

Load is a closed loop with one caller: children run one at a time.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs one untraced iteration, one timed with spans and one with allocation
tracing, all on the same seed paths, and reports the per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, gates, hashes, spans) goes to ``.bench_out/``.  The exit code
is 0 when every operation and correctness gate passed, 1 when one failed and
2 when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
# Confirm a claimed gain on this seed too; do not tune on it.
HELD_OUT_SEED = 1009

# Iterations per run at REFERENCE_SECONDS; --seconds scales them.  The count
# depends on --seconds only, so two commits always do the same work.
ITERATIONS = {"hom-single-batch": 2, "cli-roundtrip": 2}
REFERENCE_SECONDS = 45
SETUP_SAMPLES = 4

# Time one child may take before it is killed and counted as failed: 2.5 to
# 5 times an iteration on a shared 2-core host (hom 10-19 s, cli 21-34 s),
# so a slower but correct commit shows a slower wall_s, not a failure.  The
# allocation-traced iteration of a traced run gets twice as long.
ITERATION_TIMEOUT_S = {"hom-single-batch": 50, "cli-roundtrip": 100}
SETUP_TIMEOUT_S = 20

Z_BOUND = 4.0  # acceptance criterion 03
CHAIN_V_BOUND = 0.05  # acceptance criterion 07

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every child: this checkout's sources, one caller.

    ``CVSHADOW_THREADS`` is removed and BLAS/OpenMP pools are capped at nproc.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CVSHADOW_THREADS", None)
    for var in THREAD_VARS:
        try:
            env[var] = str(min(int(env[var]), nproc()))
        except (KeyError, ValueError):
            env[var] = str(nproc())
    return env


def environment(trace: bool, env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "CVSHADOW_THREADS": env.get("CVSHADOW_THREADS"),
        "CVSHADOW_THREADS_caller": os.environ.get("CVSHADOW_THREADS"),
        **{var: env.get(var) for var in THREAD_VARS},
        "traced": trace,
    }


def child_timeout(spec: dict) -> float:
    if spec["setup_only"]:
        return SETUP_TIMEOUT_S
    return ITERATION_TIMEOUT_S[spec["workload"]] * (2 if spec["trace"] == "memory" else 1)


def run_child(spec: dict, env: dict) -> dict:
    """Start one child, wait for it, and return its JSON result.

    The child gets its own process group, so a timeout also kills the CLI
    commands it started.  A child that crashes, times out or prints no
    result comes back as a failed operation.
    """
    spec = dict(spec, spawn_t=time.monotonic())
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=child_timeout(spec))
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {child_timeout(spec)} s", "ops": 1, "ops_failed": 1}
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {stderr[-2000:]}", "ops": 1, "ops_failed": 1}
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 10:
        return None
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, math.floor(pct / 100.0 * n))]


def describe(samples: list[float]) -> str:
    tail = tail_percentile(samples)
    text = f"median of {len(samples)}"
    if tail:
        text += f", p{tail[0]} {tail[1]:.4g}"
    else:
        text += ", no percentile with >=10 samples beyond it"
    return text


def pooled_z(parts: list[dict]) -> float:
    """Max |z| of the pooled shadow average of several iterations vs the target.

    Each part carries a mean, its standard error (sample variance with n - 1)
    and a count; pooling is exact for the mean and the sample variance.
    """
    import numpy as np

    counts = np.array([p["count"] for p in parts], dtype=float)
    means = np.array([np.array(p["mean_re"]) + 1j * np.array(p["mean_im"]) for p in parts])
    ses = np.array([p["stderr"] for p in parts])
    total = counts.sum()
    mean = (counts[:, None] * means).sum(axis=0) / total
    ss = ((counts - 1.0)[:, None] * ses**2 * counts[:, None]).sum(axis=0)
    ss += (counts[:, None] * np.abs(means - mean) ** 2).sum(axis=0)
    stderr = np.sqrt(ss / (total - 1.0) / total)
    target = np.array(parts[0]["target_re"]) + 1j * np.array(parts[0]["target_im"])
    return float((np.abs(mean - target) / np.maximum(stderr, 1e-12)).max())


def evaluate_gates(workload: str, results: list[dict]) -> list[dict]:
    """Correctness gates of a run; each gate is one attempted operation."""
    ok = [r for r in results if "crashed" not in r]
    gates = []
    for state in sorted({s for r in ok for s in r.get("stats", {})}):
        parts = [r["stats"][state] for r in ok if state in r.get("stats", {})]
        z = pooled_z(parts)
        gates.append({"gate": f"max|z| {state}", "value": z, "bound": Z_BOUND, "passed": z <= Z_BOUND})
    if workload == "cli-roundtrip":
        for r in ok:
            v = r["gates"]["chain_v"]
            gates.append({"gate": "chain pair grid V", "value": v, "bound": CHAIN_V_BOUND,
                          "passed": v is not None and v <= CHAIN_V_BOUND})
            gates.append({"gate": "shadow_average.json checksum", "value": r["gates"]["checksum"],
                          "bound": True, "passed": r["gates"]["checksum"]})
    return gates


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def end_to_end(results: list[dict], setups: list[float]) -> dict:
    ok = [r for r in results if "crashed" not in r]
    if not ok:
        return {}
    return {
        "wall_s": {"value": median_of(ok, "wall_s"), "unit": "s"},
        "rounds_per_s": {
            "value": statistics.median(r["rounds"] / r["wall_s"] for r in ok),
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": median_of(ok, "peak_rss_mb"), "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def _span_lists(result: dict) -> list[list[dict]]:
    return [result["spans"]] + [c.get("spans", []) for c in result.get("commands", [])]


def per_layer(untraced: dict, traced: dict, memory: dict) -> dict:
    """Per-layer metrics: times from ``traced``, allocation peaks from ``memory``."""
    from spans import own_time, top_level_time

    if any("crashed" in r for r in (untraced, traced, memory)):
        return {}
    commands = traced.get("commands", [])

    def layer(name: str) -> tuple[float, list[float], float]:
        total, durations = 0.0, []
        for spans in _span_lists(traced):
            t, d = own_time(spans, name)
            total += t
            durations += d
        peak = max(
            (s.get("peak_alloc_bytes", 0) for spans in _span_lists(memory) for s in spans
             if s["name"] == name),
            default=0,
        )
        return total, durations, peak / 2**20

    sample_s, sample_d, sample_mb = layer("measurement.sample")
    entries_s, entries_d, entries_mb = layer("shadows.entries")
    grid_s, _, grid_mb = layer("reconstruction.grid")
    values = {
        "states.build_s": (layer("states.build")[0], "s"),
        "measurement.sample_s": (sample_s, "s"),
        "measurement.sample_calls": (len(sample_d), "count"),
        "measurement.sample_peak_alloc_mb": (sample_mb, "MB"),
        "measurement.jsonl_write_s": (layer("measurement.jsonl_write")[0], "s"),
        "measurement.jsonl_parse_s": (layer("measurement.jsonl_parse")[0], "s"),
        "measurement.jsonl_bytes": (traced.get("jsonl_bytes", 0), "bytes"),
        "shadows.entries_s": (entries_s, "s"),
        "shadows.entries_calls": (len(entries_d), "count"),
        "shadows.entries_call_p50_s": (statistics.median(entries_d) if entries_d else 0.0, "s"),
        "shadows.entries_call_max_s": (max(entries_d, default=0.0), "s"),
        "shadows.entries_peak_alloc_mb": (entries_mb, "MB"),
        "shadows.average_s": (layer("shadows.average")[0], "s"),
        "shadows.target_s": (layer("shadows.target")[0], "s"),
        "reconstruction.grid_s": (grid_s, "s"),
        "reconstruction.grid_peak_alloc_mb": (grid_mb, "MB"),
        "bounds.report_s": (layer("bounds.report")[0], "s"),
        "entropy.poly_s": (layer("entropy.poly")[0], "s"),
        "cli.self_s": (sum(c["wall_s"] - top_level_time(c.get("spans", [])) for c in commands), "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITERATIONS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cvshadow" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit, so the finally clauses stop the children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    trace = bool(args.trace)
    work_dir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    base = {"workload": args.workload, "seed": args.seed, "work_dir": str(work_dir),
            "setup_only": False}

    try:
        if trace:
            results = [
                run_child(dict(base, iteration=0, trace=mode), env)
                for mode in (False, "time", "memory")
            ]
            metrics = per_layer(*results)
            setups = []
        else:
            count = max(1, round(ITERATIONS[args.workload] * args.seconds / REFERENCE_SECONDS))
            # set-up-only children run first, so they also warm the file cache
            # (interpreter, numpy, scipy) for the timed iterations
            setups, crashed = [], []
            for i in range(max(0, SETUP_SAMPLES - count)):
                extra = run_child(dict(base, iteration=count + i, trace=False, setup_only=True), env)
                if "crashed" in extra:
                    crashed.append(extra)
                else:
                    setups.append(extra["setup_s"])
            results = [run_child(dict(base, iteration=i, trace=False), env) for i in range(count)]
            setups += [r["setup_s"] for r in results if "crashed" not in r]
            results += crashed
            metrics = end_to_end(results, setups) if setups else {}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # traced iterations repeat the untraced one, so gate the untraced only
    gates = evaluate_gates(args.workload, results[:1] if trace else results)
    if trace:
        same = "hashes" in results[0] and all(r.get("hashes") == results[0]["hashes"] for r in results)
        gates.append({"gate": "traced and untraced outputs identical", "value": same,
                      "bound": True, "passed": same})
    attempted = sum(r.get("ops", 0) for r in results) + len(gates)
    failed = sum(r.get("ops_failed", 0) for r in results) + sum(not g["passed"] for g in gates)
    correct = failed == 0 and bool(metrics)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(trace, env),
        "iterations": results,
        "setup_samples": setups,
        "gates": gates,
        "hashes": [r.get("hashes") for r in results],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  traced {trace}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for i, r in enumerate(results):
        if "crashed" in r:
            print(f"  child {i}: FAILED {r['crashed']}")
        for err in r.get("errors", []):
            print(f"  child {i}: error {err}")
    for g in gates:
        print(f"  gate {g['gate']}: {g['value']} (bound {g['bound']}) {'ok' if g['passed'] else 'FAILED'}")
    for i, h in enumerate(record["hashes"]):
        if h:
            print(f"  sha256 iteration {i}: " + json.dumps(h, sort_keys=True))
    samples = {
        "wall_s": [r["wall_s"] for r in results if "wall_s" in r and not trace],
        "setup_s": setups,
    }
    for name, m in metrics.items():
        note = describe(samples[name]) if samples.get(name) else ""
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<10} {note}")
    print(f"  failed_fraction {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"  record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
