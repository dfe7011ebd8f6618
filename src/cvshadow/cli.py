"""Command-line surface: sample, reconstruct, bounds, entropy.

Every command consumes a JSON experiment config (schema-validated, with
JSON-pointer paths in error messages) and writes its artifacts plus a run
manifest into the output directory.  Identical config + seed produce
bit-identical numeric outputs; the manifest records per-file SHA-256 hashes
of the files written and of the file read, the config hash, the tool version
and wall time.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import operator
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    MomentProfile,
    _finite_or_none,
    required_samples_heterodyne,
    required_samples_homodyne,
)
from .entropy import entropy_poly, entropy_reference, plan_entropy
from .measurement import (
    HETERODYNE,
    HOMODYNE,
    SampleBatch,
    jsonl_header,
    sample_blocks,
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
from .states import (
    SLICE_BUDGETS,
    CatStateSpec,
    ChainSpec,
    FockMatrix,
    GaussianStateSpec,
    _check_modes,
    chain_state,
    value_slices,
)

_NON_NEGATIVE_INT = {"type": "integer", "minimum": 0}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_OPEN_UNIT = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}

# The keys each state kind reads, (required, optional); _STATE_SCHEMA holds them all.
_STATE_KEYS = {
    "vacuum": ((), ()),
    "coherent": (("alpha",), ()),
    "thermal": (("nu",), ()),
    "cat": (("alpha",), ("logical",)),
    "chain": (("m", "kappa"), ("disorder", "disorder_seed")),
    "fock": (("n",), ()),
}

_STATE_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_STATE_KEYS)},
        "alpha": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "logical": {"enum": ["zero", "one", "plus", "minus"]},
        "nu": {"type": "number", "minimum": 0},
        "n": _NON_NEGATIVE_INT,
        "m": {"type": "integer", "minimum": 1},
        "kappa": {"type": "number", "minimum": -1, "maximum": 1},
        "disorder": {"type": "boolean"},
        "disorder_seed": {"type": "integer"},
    },
    "additionalProperties": False,
}

# A JSON Schema (draft 2020-12) document, checked by ``_schema_errors``.
CONFIG_SCHEMA = {
    "type": "object",
    "required": ["version", "state", "protocol", "samples", "truncation", "seed"],
    "properties": {
        "version": {"const": 1},
        "state": _STATE_SCHEMA,
        "protocol": {"enum": [HOMODYNE, HETERODYNE]},
        "samples": {"type": "integer", "minimum": 1},
        "truncation": _NON_NEGATIVE_INT,
        "subset": {"type": "array", "items": _NON_NEGATIVE_INT, "minItems": 1},
        "window": {
            "type": "object",
            "required": ["eta", "radius"],
            "properties": {"eta": _POSITIVE, "radius": _POSITIVE},
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {
                "lo": {"type": "number"},
                "hi": {"type": "number"},
                "points": {"type": "integer", "minimum": 3},
                "pair": {"type": "array", "items": _NON_NEGATIVE_INT, "minItems": 2, "maxItems": 2},
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
                "epsilon": _OPEN_UNIT,
                "delta": _OPEN_UNIT,
                "n": _POSITIVE,
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
                "epsilon": _OPEN_UNIT,
                "energy": {"type": "number", "minimum": 0},
                "d_p": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

# Unlike JSON Schema's, an integer is written as one (not 50.0) and a bool is no number.
_TYPES = {"object": (dict,), "array": (list,), "boolean": (bool,), "integer": (int,),
          "number": (int, float)}
_BOUNDS = {"minimum": operator.lt, "exclusiveMinimum": operator.le,
           "maximum": operator.gt, "exclusiveMaximum": operator.ge}  # keyword: broken if


def _schema_errors(schema: dict, value, path: str = "$"):
    """Yield ``(json_path, message)`` for each rule of ``schema`` that ``value`` breaks.

    Reads the keywords ``CONFIG_SCHEMA`` uses, as JSON Schema does except for
    ``_TYPES`` and numbers within float range (``json.load`` reads NaN and Infinity).
    """
    finite = type(value) not in (int, float) or abs(value) <= sys.float_info.max
    if "type" in schema and not (type(value) in _TYPES[schema["type"]] and finite):
        yield path, f"{value!r} is not of type {schema['type']!r}"
        return
    allowed = schema.get("enum", [schema["const"]] if "const" in schema else None)
    if allowed is not None and not any(type(value) is type(a) and value == a for a in allowed):
        yield path, f"{value!r} is not one of {allowed!r}"
    for key, broken in _BOUNDS.items():
        if key in schema and broken(value, schema[key]):
            yield path, f"{value!r} breaks {key} {schema[key]!r}"
    if isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            yield path, f"{value!r} has {len(value)} items, outside minItems/maxItems"
        for i, item in enumerate(value):
            yield from _schema_errors(schema.get("items", {}), item, f"{path}[{i}]")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                yield path, f"{key!r} is a required property"
        for key in value:
            if key not in properties and schema.get("additionalProperties") is False:
                yield path, f"Additional properties are not allowed ({key!r} was unexpected)"
        for key, sub in properties.items():
            if key in value:
                yield from _schema_errors(sub, value[key], f"{path}.{key}")


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not a JSON config ({exc})") from None
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    errors = sorted(_schema_errors(CONFIG_SCHEMA, config), key=lambda error: error[0])
    if not errors:  # then the state takes only the keys its kind reads
        state = config["state"]
        required, optional = _STATE_KEYS[state["kind"]]
        keys = ("kind", *required, *optional)
        schema = dict(_STATE_SCHEMA, required=["kind", *required],
                      properties={key: _STATE_SCHEMA["properties"][key] for key in keys})
        errors = list(_schema_errors(schema, state, "$.state"))
    if errors:
        raise ConfigError("config invalid at {}: {}".format(*errors[0]))
    # a key that no command reads for this config is refused, not ignored
    protocols = (config["protocol"], config.get("bounds", {}).get("protocol"))
    if "grid" in config and protocols[0] != HETERODYNE:
        raise ConfigError("config invalid at $.grid: only a heterodyne reconstruct reads a grid")
    if "window" in config and HETERODYNE not in protocols:
        raise ConfigError("config invalid at $.window: only heterodyne shadows or bounds read it")
    bounds = config.get("bounds", {"r": 1, "modes": 1})
    if bounds["r"] > bounds["modes"]:  # an r-local observable acts on r distinct modes
        raise ConfigError("config invalid at $.bounds.r: need r <= modes, got "
                          f"r={bounds['r']}, modes={bounds['modes']}")
    lo, hi = _grid_range(config)
    if not lo < hi:
        raise ConfigError(f"config invalid at $.grid: need lo < hi, got lo={lo}, hi={hi}")
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
    params = dict(state_cfg)  # a cat's or chain's keys go to its spec, which holds the defaults
    kind = params.pop("kind")
    if kind == "vacuum":
        return GaussianStateSpec.vacuum()
    if kind == "coherent":
        return GaussianStateSpec.coherent(complex(*params["alpha"]))
    if kind == "thermal":
        return GaussianStateSpec.thermal(params["nu"])
    if kind == "cat":
        return CatStateSpec(**params)
    if kind == "chain":
        return chain_state(ChainSpec(**params))
    if kind == "fock":
        n = params["n"]
        trunc = max(n, 1)
        mat = np.zeros((trunc + 1, trunc + 1), dtype=complex)
        mat[n, n] = 1.0
        return FockMatrix(1, trunc, mat)
    raise ConfigError(f"unsupported state kind {kind!r}")


def config_window(config: dict) -> WindowSpec:
    if "window" in config:
        return WindowSpec(config["window"]["eta"], config["window"]["radius"])
    return default_window(config["truncation"])


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(
    out_dir: Path,
    config: dict,
    files: list[Path],
    elapsed: float,
    sampler: dict | None = None,
    inputs: dict[str, str] | None = None,
    written: dict[str, str] | None = None,
) -> None:
    """Write ``manifest.json``; ``sampler`` is the batch meta of a rejection sampler.

    ``inventory`` hashes the ``files`` written, and adds ``written``, which
    maps the name of each file the caller hashed as it wrote it (``sample``
    its records) to that SHA-256.  ``inputs`` maps the name of each file
    read to its SHA-256, taken by the caller (``reconstruct`` as it reads
    the records), so a reader's input matches its producer's inventory.
    """
    manifest = {
        "config_hash": json_sha256(config),
        "tool_version": __version__,
        "elapsed_seconds": elapsed,
        "inventory": {p.name: _file_sha256(p) for p in files} | (written or {}),
    }
    if inputs:
        manifest["inputs"] = inputs
    if sampler:
        manifest["sampler"] = sampler
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def cmd_sample(config: dict, out_dir, seed: int | None = None) -> dict:
    """Generate a measurement batch; writes records.jsonl and the manifest.

    Each block of rounds is written as it is drawn, to a temporary file that
    replaces ``records.jsonl`` only once the last block is in, so a sampler
    error leaves no partial records file.  The records are hashed for the
    manifest as they are written, so the file is never read back.
    """
    t0 = time.perf_counter()
    config = config if seed is None else {**config, "seed": seed}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed_path = f"cvshadow/{config['seed']}/{config['protocol']}"
    records_path = out / "records.jsonl"
    partial = out / f".records.jsonl.{os.getpid()}.partial"
    n, meta, records_hash = 0, {}, hashlib.sha256()
    state = build_state(config["state"])
    try:
        with open(partial, "w", encoding="ascii", newline="") as fh:
            for block in sample_blocks(state, config["protocol"], config["samples"], seed_path):
                n, meta = n + block.n, block.meta
                block.to_jsonl(fh, digest=records_hash)
                del block  # before the next block is drawn
        os.replace(partial, records_path)
    finally:
        partial.unlink(missing_ok=True)
    written = {records_path.name: records_hash.hexdigest()}
    write_manifest(out, config, [], time.perf_counter() - t0, meta, written=written)
    return {"records": str(records_path), "n": n, "meta": meta}


def _write_grid_csv(path: Path, points: np.ndarray, exact, recon) -> None:
    """One row per grid point: its coordinates u1.., then exact and reconstructed chi.

    Each value is written as ``repr`` of its float, from the columns'
    ``tolist`` over one ``"csv"`` slice of rows at a time
    (:func:`~cvshadow.states.value_slices`), so no list of the whole grid's
    Python floats is held.
    """
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
        for rows in value_slices(len(coords), len(cols), SLICE_BUDGETS["csv"]):
            lines = zip(*(col[rows].tolist() for col in cols))
            fh.writelines(",".join(map(repr, line)) + "\n" for line in lines)


def cmd_reconstruct(config: dict, batch_path, out_dir, seed: int | None = None) -> dict:
    """Reconstruct characteristic grids and the shadow average from a batch."""
    t0 = time.perf_counter()
    config = config if seed is None else {**config, "seed": seed}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = build_state(config["state"])
    protocol, _, modes = jsonl_header(batch_path)
    if protocol != config["protocol"]:
        raise ConfigError(
            f"batch protocol {protocol!r} does not match config {config['protocol']!r}"
        )
    if modes != state.modes:
        raise ConfigError(f"the batch has {modes} modes but the config's state has {state.modes}")
    grid_cfg = config.get("grid", {})
    lo, hi = _grid_range(config)
    points = grid_cfg.get("points", 81)
    subset = tuple(config.get("subset", [0]))
    _check_modes(subset, modes, "subset")
    pair = None
    if protocol == HETERODYNE and (modes > 1 or "pair" in grid_cfg):
        pair = tuple(grid_cfg.get("pair", (0, modes // 2)))
        _check_modes(pair, modes, "pair")
    # only the columns that the average and the grid read are parsed
    cols = sorted(set(subset) | set(pair or ()))
    records_hash = hashlib.sha256()
    batch = SampleBatch.from_jsonl(batch_path, modes=cols, digest=records_hash)
    if hasattr(state, "marginal"):
        state = state.marginal(cols)
    files: list[Path] = []
    metrics: dict = {"n_samples": batch.n, "protocol": protocol}

    if protocol == HETERODYNE:
        if pair:
            at = (cols.index(pair[0]), cols.index(pair[1]))
            exact, recon, v_val = reconstruct_pair_section(batch, state, at, lo, hi, points)
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
    truncation = config["truncation"]
    window = config_window(config) if protocol == HETERODYNE else None
    chunks = shadow_batch_entries(batch, [cols.index(j) for j in subset], truncation, window)
    avg = average_entries(chunks, subset, truncation, protocol)
    avg_path = out / "shadow_average.json"
    avg.to_json(avg_path)
    files.append(avg_path)
    metrics["max_stderr"] = float(avg.stderr.max())
    metrics_path = out / "metrics.json"
    with open(metrics_path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
    files.append(metrics_path)
    inputs = {Path(batch_path).name: records_hash.hexdigest()}
    write_manifest(out, config, files, time.perf_counter() - t0, inputs=inputs)
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
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
    write_manifest(out, config, [report_path], time.perf_counter() - t0)
    rows = [
        ("protocol", b["protocol"]),
        ("M", report.m_chosen),
        ("N", report.n_required),
        ("Sigma", report.sigma_value),
        ("delta0", report.delta0_value),
        ("feasible", report.feasible),
    ]
    if not report.feasible:
        rows.append(("reason", report.reason))
    width = max(len(k) for k, _ in rows)
    print("\n".join(f"{k:<{width}}  {v}" for k, v in rows))
    return report.to_dict()


def cmd_entropy(config: dict, average_path, out_dir) -> dict:
    """Entropy surrogate of a persisted shadow average, plus plan and reference."""
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "entropy" not in config:
        raise ConfigError("config invalid at $.entropy: section is required")
    avg = ShadowAverage.from_json(average_path)
    e_cfg = config["entropy"]
    plan = plan_entropy(avg.truncation, len(avg.subset), e_cfg["epsilon"], e_cfg["energy"])
    d_p = e_cfg.get("d_p", plan.d_p)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged series is warned of below
        value = entropy_poly(avg.mean, d_p)
    # a diagnostic of the series in I - sigma; H itself takes matrix powers
    sigma = 0.5 * (avg.mean + avg.mean.conj().T)
    radius = float(np.abs(np.linalg.eigvalsh(np.eye(len(sigma)) - sigma)).max())
    result = {
        "H": value,
        "d_p": d_p,
        "spectral_radius": radius,
        "plan": dataclasses.asdict(plan),
    }
    # the series' last term alone, dim radius^d_p / (d_p (d_p - 1)), may exceed epsilon
    if radius > (e_cfg["epsilon"] * d_p * (d_p - 1) / len(sigma)) ** (1.0 / d_p):
        result["warning"] = (
            f"the series in I - sigma may diverge: its spectral radius is {radius:.6g}, "
            f"so the degree-{d_p} term alone may exceed epsilon {e_cfg['epsilon']}"
        )
    state = build_state(config["state"])
    _check_modes(avg.subset, state.modes, "subset")
    if hasattr(state, "marginal"):  # of the averaged modes only
        state = state.marginal(list(avg.subset))
    result["reference_entropy"] = entropy_reference(state)
    result = _finite_or_none(result)  # a diverged series writes H as null
    report_path = out / "entropy.json"
    with open(report_path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True, allow_nan=False)
    inputs = {Path(average_path).name: _file_sha256(Path(average_path))}
    write_manifest(out, config, [report_path], time.perf_counter() - t0, inputs=inputs)
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
    except (ConfigError, OSError, MemoryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
