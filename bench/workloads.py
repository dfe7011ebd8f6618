"""One iteration of each benchmark workload, run inside a fresh child process.

Every iteration reports its set-up time (process start until the inputs are
ready: imports, config validation, state specs, exact targets), its timed
work, the statistics the parent needs for the correctness gates, and the
SHA-256 of each numeric output.  Seed paths are generated here from the
benchmark seed; the library only ever sees those paths.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import NO_TRACE, Tracer, bind

BENCH_DIR = Path(__file__).resolve().parent
TRUNCATION = 3

HOM_ROUNDS = 100_000

CHAIN_CONFIG = {
    "version": 1,
    "state": {"kind": "chain", "m": 1000, "kappa": 0.99},
    "protocol": "heterodyne",
    "samples": 1000,
    "truncation": 2,
    "seed": 11,
    "grid": {"pair": [0, 500]},
}
VACUUM_CONFIG = {
    "version": 1,
    "state": {"kind": "vacuum"},
    "protocol": "heterodyne",
    "samples": 8000,
    "truncation": TRUNCATION,
    "seed": 5,
    "entropy": {"epsilon": 0.9, "energy": 0.4},
    "bounds": {
        "protocol": "heterodyne",
        "r": 1,
        "epsilon": 0.5,
        "delta": 0.05,
        "n": 2.0,
        "alpha": 0.0,
        "e_n": 1.0,
        "e_alpha": 1.0,
        "modes": 1,
    },
}
CLI_ROUNDS = CHAIN_CONFIG["samples"] + VACUUM_CONFIG["samples"]


def seed_path(spec: dict, *parts) -> str:
    return "/".join(
        ["bench", spec["workload"], str(spec["seed"]), str(spec["iteration"])]
        + [str(p) for p in parts]
    )


def cli_seed(spec: dict, k: int) -> int:
    """Integer ``--seed`` for the k-th CLI config of an iteration."""
    digest = hashlib.sha256(seed_path(spec, "cli", k).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _stats(avg, target) -> dict:
    """What the parent needs to pool averages across iterations and gate them."""
    return {
        "mean_re": avg.mean.real.ravel().tolist(),
        "mean_im": avg.mean.imag.ravel().tolist(),
        "stderr": avg.stderr.ravel().tolist(),
        "count": int(avg.count),
        "target_re": target.real.ravel().tolist(),
        "target_im": target.imag.ravel().tolist(),
    }


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_s(spec: dict) -> float:
    return time.monotonic() - spec["spawn_t"]


# ---------------------------------------------------------------------------
# hom-single-batch
# ---------------------------------------------------------------------------


def hom_single_batch(spec: dict, tracer: Tracer | None) -> dict:
    trace = tracer or NO_TRACE
    api = bind(tracer)
    from cvshadow.states import CatStateSpec

    with trace.span("states.build"):
        state = CatStateSpec(1 + 1j, "zero")
    target = api.project_PM(api.fock_matrix_of(state, 24), TRUNCATION).entries
    out = {"setup_s": _setup_s(spec)}
    if spec["setup_only"]:
        return out

    t0 = time.monotonic()
    batch = api.sample_homodyne_batch(state, HOM_ROUNDS, seed_path(spec, "cat"))
    stacked = api.shadow_batch_entries(batch, [0], TRUNCATION)
    avg = api.average_entries(stacked, (0,), TRUNCATION, "homodyne")
    t1 = time.monotonic()
    out.update(
        wall_s=t1 - t0,
        rounds=HOM_ROUNDS,
        peak_rss_mb=_self_rss_mb(),
        ops=1,
        ops_failed=0,
        stats={"cat": _stats(avg, target)},
        hashes={
            "shadow_mean": sha256(avg.mean.tobytes()),
            "shadow_stderr": sha256(avg.stderr.tobytes()),
        },
    )
    return out


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------


def _cli_commands(spec: dict, work: Path) -> list[tuple[str, list[str]]]:
    chain_seed, vac_seed = str(cli_seed(spec, 0)), str(cli_seed(spec, 1))
    c, v = str(work / "chain.json"), str(work / "vacuum.json")
    return [
        ("sample", ["sample", "--config", c, "--seed", chain_seed, "--out", str(work / "chain_s")]),
        ("reconstruct", ["reconstruct", "--config", c, "--seed", chain_seed,
                         "--batch", str(work / "chain_s" / "records.jsonl"),
                         "--out", str(work / "chain_r")]),
        ("sample", ["sample", "--config", v, "--seed", vac_seed, "--out", str(work / "vac_s")]),
        ("reconstruct", ["reconstruct", "--config", v, "--seed", vac_seed,
                         "--batch", str(work / "vac_s" / "records.jsonl"),
                         "--out", str(work / "vac_r")]),
        ("entropy", ["entropy", "--config", v,
                     "--average", str(work / "vac_r" / "shadow_average.json"),
                     "--out", str(work / "vac_e")]),
        ("bounds", ["bounds", "--config", v, "--out", str(work / "vac_b")]),
    ]


def cli_roundtrip(spec: dict, tracer: Tracer | None) -> dict:
    trace = tracer or NO_TRACE
    api = bind(tracer)
    from cvshadow.cli import validate_config
    from cvshadow.shadows import ShadowAverage, default_window
    from cvshadow.states import GaussianStateSpec

    work = Path(spec["work_dir"]) / f"iter{spec['iteration']}-{spec['trace'] or 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, config in (("chain.json", CHAIN_CONFIG), ("vacuum.json", VACUUM_CONFIG)):
        validate_config(config)
        (work / name).write_text(json.dumps(config))
    with trace.span("states.build"):
        vacuum = GaussianStateSpec.vacuum()
    target = api.project_PM_tilde(vacuum, TRUNCATION, default_window(TRUNCATION)).entries
    out = {"setup_s": _setup_s(spec)}
    if spec["setup_only"]:
        shutil.rmtree(work, ignore_errors=True)
        return out

    if tracer:
        prefix = [sys.executable, str(BENCH_DIR / "cli_traced.py")]
    else:
        prefix = [sys.executable, "-m", "cvshadow.cli"]
    commands = []
    t0 = time.monotonic()
    for i, (kind, argv) in enumerate(_cli_commands(spec, work)):
        spans_file = work / f"spans{i}.json"
        cmd = prefix + ([str(spans_file), str(int(tracer.memory))] if tracer else []) + argv
        c0 = time.monotonic()
        # the parent's timeout kills this child's process group, CLI included
        proc = subprocess.run(cmd, capture_output=True, text=True)
        c1 = time.monotonic()
        entry = {"kind": kind, "argv": argv[0], "wall_s": c1 - c0, "exit": proc.returncode}
        if proc.returncode != 0:
            entry["stderr"] = proc.stderr[-2000:]
        if tracer and spans_file.exists():
            entry["spans"] = json.loads(spans_file.read_text())
        commands.append(entry)
    wall = time.monotonic() - t0

    failed = sum(1 for c in commands if c["exit"] != 0)
    out.update(
        wall_s=wall,
        rounds=CLI_ROUNDS,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        ops=len(commands),
        ops_failed=failed,
        commands=commands,
        errors=[f"{c['argv']}: exit {c['exit']}: {c.get('stderr', '')}" for c in commands if c["exit"]],
    )

    # correctness gates and the determinism record, outside the timed region
    hashes, gates = {}, {}
    jsonl_bytes = 0
    for name in ("chain_s/records.jsonl", "vac_s/records.jsonl",
                 "chain_r/pair_grid.csv", "vac_r/grid.csv"):
        path = work / name
        if path.exists():
            hashes[name] = file_sha256(path)
            if name.endswith(".jsonl"):
                jsonl_bytes += path.stat().st_size
    try:
        avg = ShadowAverage.from_json(work / "vac_r" / "shadow_average.json")
        gates["checksum"] = True
        out["stats"] = {"vacuum": _stats(avg, target)}
        hashes["shadow_mean"] = sha256(avg.mean.tobytes())
        hashes["shadow_stderr"] = sha256(avg.stderr.tobytes())
    except (OSError, ValueError) as exc:
        gates["checksum"] = False
        out["errors"].append(f"shadow_average.json: {exc!r}")
    try:
        metrics = json.loads((work / "chain_r" / "metrics.json").read_text())
        gates["chain_v"] = float(metrics["v_metric"])
    except (OSError, ValueError, KeyError) as exc:
        gates["chain_v"] = None
        out["errors"].append(f"chain metrics.json: {exc!r}")
    out.update(hashes=hashes, gates=gates, jsonl_bytes=jsonl_bytes)
    shutil.rmtree(work, ignore_errors=True)
    return out


WORKLOADS = {
    "hom-single-batch": hom_single_batch,
    "cli-roundtrip": cli_roundtrip,
}
