"""Command-line surface: sample, reconstruct, bounds, entropy.

Every command consumes a JSON experiment config (schema-validated, with
JSON-pointer paths in error messages) and writes its artifacts plus a run
manifest into the output directory.  Identical config + seed produce
bit-identical numeric outputs; the manifest records per-file SHA-256 hashes,
the config hash, the tool version and wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import jsonschema

from . import __version__
from .bounds import MomentProfile, required_samples_heterodyne, required_samples_homodyne
from .entropy import entropy_poly, entropy_reference, plan_entropy
from .measurement import (
    HETERODYNE,
    HOMODYNE,
    SampleBatch,
    sample_heterodyne_batch,
    sample_homodyne_batch,
)
from .reconstruction import reconstruct_pair_section, reconstruct_single_mode
from .shadows import (
    ShadowAverage,
    WindowSpec,
    average_entries,
    default_window,
    json_sha256,
    shadow_batch_entries,
)
from .states import CatStateSpec, ChainSpec, GaussianStateSpec, chain_state

_STATE_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["vacuum", "coherent", "thermal", "cat", "chain", "fock"]},
        "alpha": {
            "type": "array",
            "items": {"type": "number"},
            "minItems": 2,
            "maxItems": 2,
        },
        "logical": {"enum": ["zero", "one", "plus", "minus"]},
        "nu": {"type": "number", "minimum": 0},
        "n": {"type": "integer", "minimum": 0},
        "m": {"type": "integer", "minimum": 1},
        "kappa": {"type": "number", "minimum": -1, "maximum": 1},
        "disorder": {"type": "boolean"},
        "disorder_seed": {"type": "integer"},
    },
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "state", "protocol", "samples", "truncation", "seed"],
    "properties": {
        "version": {"const": 1},
        "state": _STATE_SCHEMA,
        "protocol": {"enum": [HOMODYNE, HETERODYNE]},
        "samples": {"type": "integer", "minimum": 1},
        "truncation": {"type": "integer", "minimum": 0},
        "subset": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 1,
        },
        "window": {
            "type": "object",
            "required": ["eta", "radius"],
            "properties": {
                "eta": {"type": "number", "exclusiveMinimum": 0},
                "radius": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {
                "lo": {"type": "number"},
                "hi": {"type": "number"},
                "points": {"type": "integer", "minimum": 3},
                "pair": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "additionalProperties": False,
        },
        "seed": {"type": "integer"},
        "bounds": {
            "type": "object",
            "required": ["protocol", "r", "epsilon", "delta", "n", "alpha", "e_n", "e_alpha", "modes"],
            "properties": {
                "protocol": {"enum": [HOMODYNE, HETERODYNE]},
                "r": {"type": "integer", "minimum": 1},
                "epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "n": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "minimum": 0},
                "e_n": {"type": "number", "minimum": 1},
                "e_alpha": {"type": "number", "minimum": 1},
                "modes": {"type": "integer", "minimum": 1},
                "observables": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "entropy": {
            "type": "object",
            "required": ["epsilon", "energy"],
            "properties": {
                "epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "energy": {"type": "number", "minimum": 0},
                "d_p": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(config), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigError(f"config invalid at {first.json_path}: {first.message}")
    lo, hi = _grid_range(config)
    if not -math.inf < lo < hi < math.inf:
        raise ConfigError(f"config invalid at $.grid: need finite lo < hi, got lo={lo}, hi={hi}")
    # the grid corner |u|^2 = 2 max(|lo|, |hi|)^2, where exp(|u|^2/4) must stay finite
    if max(abs(lo), abs(hi)) ** 2 / 2.0 > math.log(sys.float_info.max):
        raise ConfigError(
            f"config invalid at $.grid: exp(|u|^2/4) overflows at the grid corner, "
            f"got lo={lo}, hi={hi}"
        )


def _grid_range(config: dict) -> tuple[float, float]:
    grid = config.get("grid", {})
    return grid.get("lo", -2.0), grid.get("hi", 2.0)


def build_state(state_cfg: dict):
    """The state a config names; a chain without disorder is held as its spectrum."""
    kind = state_cfg["kind"]
    if kind == "vacuum":
        return GaussianStateSpec.vacuum()
    if kind == "coherent":
        a = state_cfg.get("alpha", [0.0, 0.0])
        return GaussianStateSpec.coherent(complex(a[0], a[1]))
    if kind == "thermal":
        return GaussianStateSpec.thermal(state_cfg["nu"])
    if kind == "cat":
        a = state_cfg["alpha"]
        return CatStateSpec(complex(a[0], a[1]), state_cfg.get("logical", "zero"))
    if kind == "chain":
        spec = ChainSpec(
            state_cfg["m"],
            state_cfg["kappa"],
            disorder=state_cfg.get("disorder", False),
            disorder_seed=state_cfg.get("disorder_seed", 1234),
        )
        return chain_state(spec)
    if kind == "fock":
        n = state_cfg.get("n", 0)
        trunc = max(n, 1)
        mat = np.zeros((trunc + 1, trunc + 1), dtype=complex)
        mat[n, n] = 1.0
        from .states import FockMatrix

        return FockMatrix(1, trunc, mat)
    raise ConfigError(f"unsupported state kind {kind!r}")


def config_window(config: dict) -> WindowSpec:
    if "window" in config:
        return WindowSpec(config["window"]["eta"], config["window"]["radius"])
    return default_window(config["truncation"])


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(
    out_dir: Path,
    config: dict,
    files: list[Path],
    elapsed: float,
    sampler: dict | None = None,
) -> Path:
    """Write ``manifest.json``; ``sampler`` is the batch meta of a rejection sampler."""
    manifest = {
        "config_hash": json_sha256(config),
        "tool_version": __version__,
        "elapsed_seconds": elapsed,
        "inventory": {p.name: _file_sha256(p) for p in sorted(files)},
    }
    if sampler:
        manifest["sampler"] = sampler
    path = out_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _seeded(config: dict, seed_override: int | None) -> dict:
    config = dict(config)
    if seed_override is not None:
        config["seed"] = seed_override
    return config


def cmd_sample(config: dict, out_dir, seed: int | None = None) -> dict:
    """Generate a measurement batch; writes records.jsonl and the manifest."""
    t0 = time.perf_counter()
    config = _seeded(config, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = build_state(config["state"])
    seed_path = f"cvshadow/{config['seed']}/{config['protocol']}"
    if config["protocol"] == HOMODYNE:
        batch = sample_homodyne_batch(state, config["samples"], seed_path)
    else:
        batch = sample_heterodyne_batch(state, config["samples"], seed_path)
    records_path = out / "records.jsonl"
    batch.to_jsonl(records_path)
    files = [records_path]
    write_manifest(out, config, files, time.perf_counter() - t0, batch.meta)
    return {"records": str(records_path), "n": batch.n, "meta": batch.meta}


def _write_grid_csv(path: Path, points: np.ndarray, exact, recon) -> None:
    """One row per grid point: its coordinates u1.., then exact and reconstructed chi."""
    coords = points.reshape(-1, points.shape[-1])
    names = [f"u{i + 1}" for i in range(coords.shape[1])]
    header = ",".join(names + ["re_true", "im_true", "re_recon", "im_recon"])
    cols = list(coords.T) + [
        exact.real.ravel(),
        exact.imag.ravel(),
        recon.real.ravel(),
        recon.imag.ravel(),
    ]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def cmd_reconstruct(config: dict, batch_path, out_dir, seed: int | None = None) -> dict:
    """Reconstruct characteristic grids and the shadow average from a batch."""
    t0 = time.perf_counter()
    config = _seeded(config, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = build_state(config["state"])
    batch = SampleBatch.from_jsonl(batch_path)
    if batch.protocol != config["protocol"]:
        raise ConfigError(
            f"batch protocol {batch.protocol!r} does not match config "
            f"{config['protocol']!r}"
        )
    grid_cfg = config.get("grid", {})
    lo, hi = _grid_range(config)
    points = grid_cfg.get("points", 81)
    modes = batch.modes
    files: list[Path] = []
    metrics: dict = {"n_samples": batch.n, "protocol": batch.protocol}

    large_chain = modes > 4
    if batch.protocol == HETERODYNE:
        if modes > 1 or "pair" in grid_cfg:
            pair = tuple(grid_cfg.get("pair", (0, modes // 2)))
            exact, recon, v_val = reconstruct_pair_section(
                batch, state, pair, lo, hi, points
            )
            grid_path = out / "pair_grid.csv"
            metrics["pair"] = list(pair)
        else:
            exact, recon, v_val = reconstruct_single_mode(batch, state, lo, hi, points)
            grid_path = out / "grid.csv"
        _write_grid_csv(grid_path, exact.points, exact.values, recon.values)
        files.append(grid_path)
        metrics["v_metric"] = v_val
        if np.max(np.abs([lo, hi])) ** 2 / 2.0 > np.log(max(batch.n, 2)):
            metrics["warning"] = "grid extends beyond the reliable window for this sample size"
    if not large_chain:
        truncation = config["truncation"]
        subset = tuple(config.get("subset", range(min(modes, 1))))
        window = config_window(config) if batch.protocol == HETERODYNE else None
        stacked = shadow_batch_entries(batch, subset, truncation, window)
        avg = average_entries(stacked, subset, truncation, batch.protocol)
        avg_path = out / "shadow_average.json"
        avg.to_json(avg_path)
        files.append(avg_path)
        metrics["max_stderr"] = float(avg.stderr.max())
    metrics_path = out / "metrics.json"
    with open(metrics_path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
    files.append(metrics_path)
    write_manifest(out, config, files, time.perf_counter() - t0)
    return metrics


def cmd_bounds(config: dict, out_dir) -> dict:
    """Evaluate the sample-size bounds named in the config."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "bounds" not in config:
        raise ConfigError("config invalid at $.bounds: section is required")
    b = config["bounds"]
    profile = MomentProfile(n=b["n"], alpha=b["alpha"], e_n=b["e_n"], e_alpha=b["e_alpha"])
    if b["protocol"] == HOMODYNE:
        report = required_samples_homodyne(
            profile, b["r"], b["epsilon"], b["delta"], b["modes"],
            n_observables=b.get("observables"),
        )
    else:
        report = required_samples_heterodyne(
            profile, b["r"], b["epsilon"], b["delta"], b["modes"], config_window(config).radius,
            n_observables=b.get("observables"),
        )
    report_path = out / "bounds.json"
    with open(report_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    write_manifest(out, config, [report_path], time.perf_counter() - t0)
    rows = [
        ("protocol", b["protocol"]),
        ("M", report.m_chosen),
        ("N", report.n_required),
        ("Sigma", report.sigma_value),
        ("delta0", report.delta0_value),
        ("feasible", report.feasible),
    ]
    width = max(len(k) for k, _ in rows)
    table = "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
    print(table)
    return report.to_dict()


def cmd_entropy(config: dict, average_path, out_dir) -> dict:
    """Entropy surrogate of a persisted shadow average, plus plan and reference."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "entropy" not in config:
        raise ConfigError("config invalid at $.entropy: section is required")
    if not Path(average_path).exists():
        raise FileNotFoundError(f"shadow-average file not found: {average_path}")
    avg = ShadowAverage.from_json(average_path)
    e_cfg = config["entropy"]
    plan = plan_entropy(avg.truncation, len(avg.subset), e_cfg["epsilon"], e_cfg["energy"])
    d_p = e_cfg.get("d_p", plan.d_p)
    value = entropy_poly(avg.fock(), d_p)
    result = {
        "H": value,
        "d_p": d_p,
        "plan": {
            "d_p": plan.d_p,
            "epsilon": plan.epsilon,
            "epsilon_prime": plan.epsilon_prime,
            "log10_epsilon_prime": plan.log10_epsilon_prime,
            "log10_n_implied": plan.log10_n_implied,
        },
    }
    state_cfg = config.get("state")
    if state_cfg:
        state = build_state(state_cfg)
        if hasattr(state, "marginal"):  # of the averaged modes only
            state = state.marginal(list(avg.subset))
        result["reference_entropy"] = entropy_reference(state)
    report_path = out / "entropy.json"
    with open(report_path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    write_manifest(out, config, [report_path], time.perf_counter() - t0)
    print(json.dumps(result, indent=2, sort_keys=True))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cvshadow",
        description="Continuous-variable classical shadow tomography toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory")

    p_sample = sub.add_parser("sample", help="generate measurement records")
    p_rec = sub.add_parser("reconstruct", help="grids + shadow average from records")
    for p in (p_sample, p_rec):
        add_common(p)
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    p_rec.add_argument("--batch", required=True, help="records.jsonl from `sample`")
    add_common(sub.add_parser("bounds", help="sample-size bound report"))
    p_ent = sub.add_parser("entropy", help="entropy of a persisted shadow average")
    add_common(p_ent)
    p_ent.add_argument("--average", required=True, help="shadow_average.json file")

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "sample":
            cmd_sample(config, args.out, args.seed)
        elif args.command == "reconstruct":
            cmd_reconstruct(config, args.batch, args.out, args.seed)
        elif args.command == "bounds":
            cmd_bounds(config, args.out)
        elif args.command == "entropy":
            cmd_entropy(config, args.average, args.out)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
