"""End-user CLI: configs, artifacts, determinism, error surfaces."""

import builtins
import hashlib
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import cvshadow.cli as cli
from cvshadow.cli import (
    ConfigError,
    build_state,
    cmd_bounds,
    cmd_entropy,
    cmd_reconstruct,
    cmd_sample,
    validate_config,
)
from cvshadow.entropy import entropy_reference
from cvshadow.measurement import SampleBatch, sample_heterodyne_batch, sample_homodyne_batch
from cvshadow.shadows import ShadowAverage, json_sha256, project_PM, project_PM_tilde
from cvshadow.states import (
    CatStateSpec,
    ChainSpec,
    CirculantChainState,
    FockMatrix,
    GaussianStateSpec,
    chain_ground_state,
    fock_matrix_of,
)
from conftest import b64_floats, b64_values, whole_gaussian_batch


def base_config(**overrides):
    config = {
        "version": 1,
        "state": {"kind": "vacuum"},
        "protocol": "heterodyne",
        "samples": 50,
        "truncation": 2,
        "seed": 7,
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


CHECKED_KEYWORDS = {
    "type", "const", "enum", "required", "properties", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum",
}

BOUNDS = {"protocol": "heterodyne", "r": 1, "epsilon": 0.5, "delta": 0.05, "n": 2.0,
          "alpha": 0.0, "e_n": 1.0, "e_alpha": 1.0, "modes": 1}

# every key of the schema, set to a valid value
VALID_CONFIGS = [
    base_config(
        state={"kind": "cat", "alpha": [1, -0.5], "logical": "plus"},
        protocol="heterodyne", subset=[0], window={"eta": 2.0, "radius": 8},
        grid={"lo": -3, "hi": 2.5, "points": 3, "pair": [0, 1]},
        bounds=dict(BOUNDS, observables=4), entropy={"epsilon": 0.5, "energy": 0, "d_p": 2},
    ),
    base_config(state={"kind": "chain", "m": 4, "kappa": -1, "disorder": True,
                       "disorder_seed": -3}),
    base_config(state={"kind": "thermal", "nu": 0}, truncation=0, seed=-1),
    base_config(state={"kind": "fock", "n": 0}, samples=1),
    base_config(state={"kind": "coherent", "alpha": [0.0, 2]}),
]

# configs that break each schema keyword once, at the top level and nested,
# then several at once; each has the same error paths under jsonschema
INVALID_CONFIGS = [
    [],
    "config",
    {},
    {"version": 1},
    base_config(version=2),
    base_config(version=True),
    base_config(protocol="photon-counting"),
    base_config(samples="50"),
    base_config(samples=True),
    base_config(samples=0),
    base_config(samples=0.5),
    base_config(truncation=-1),
    base_config(seed=None),
    base_config(seed=1.5),
    base_config(extra=1),
    base_config(extra=1, other=2),
    base_config(state="vacuum"),
    base_config(state={}),
    base_config(state={"kind": "squeezed"}),
    base_config(state={"kind": "vacuum", "squeezing": 0.3}),
    base_config(state={"kind": "thermal", "nu": -1.0}),
    base_config(state={"kind": "thermal", "nu": "1"}),
    base_config(state={"kind": "fock", "n": -1}),
    base_config(state={"kind": "chain", "m": 0, "kappa": 0.5}),
    base_config(state={"kind": "chain", "m": 3, "kappa": -1.5}),
    base_config(state={"kind": "chain", "m": 3, "kappa": 1.01}),
    base_config(state={"kind": "chain", "m": 3, "kappa": 0.5, "disorder": 1}),
    base_config(state={"kind": "chain", "m": 3, "kappa": 0.5, "disorder_seed": 0.5}),
    base_config(state={"kind": "cat", "alpha": [1.0]}),
    base_config(state={"kind": "cat", "alpha": [1.0, 0.0, 0.0]}),
    base_config(state={"kind": "cat", "alpha": ["1", 0.0]}),
    base_config(state={"kind": "cat", "alpha": 1.0}),
    base_config(state={"kind": "cat", "alpha": [1.0, 0.0], "logical": "two"}),
    base_config(subset=0),
    base_config(subset=[]),
    base_config(subset=[-1]),
    base_config(subset=[0, 1.5]),
    base_config(window={"eta": 1.0}),
    base_config(window={"eta": 0, "radius": 8.0}),
    base_config(window={"eta": 1.0, "radius": -8.0}),
    base_config(window={"eta": 1.0, "radius": 8.0, "R": 8.0}),
    base_config(window=[1.0, 8.0]),
    base_config(grid={"lo": "-2"}),
    base_config(grid={"points": 2}),
    base_config(grid={"points": 3.5}),
    base_config(grid={"pair": [0]}),
    base_config(grid={"pair": [0, 1, 2]}),
    base_config(grid={"pair": [0, -1]}),
    base_config(grid={"pair": "0,1"}),
    base_config(grid={"step": 0.1}),
    base_config(bounds={}),
    base_config(bounds=dict(BOUNDS, protocol="x")),
    base_config(bounds=dict(BOUNDS, r=0)),
    base_config(bounds=dict(BOUNDS, epsilon=0)),
    base_config(bounds=dict(BOUNDS, epsilon=1)),
    base_config(bounds=dict(BOUNDS, delta=1.5)),
    base_config(bounds=dict(BOUNDS, n=0)),
    base_config(bounds=dict(BOUNDS, alpha=-0.1)),
    base_config(bounds=dict(BOUNDS, e_n=0.5)),
    base_config(bounds=dict(BOUNDS, e_alpha=0)),
    base_config(bounds=dict(BOUNDS, modes=0)),
    base_config(bounds=dict(BOUNDS, observables=0)),
    base_config(bounds=dict(BOUNDS, radius=24.0)),
    base_config(entropy={"epsilon": 0.9}),
    base_config(entropy={"epsilon": 1.0, "energy": 0.4}),
    base_config(entropy={"epsilon": 0.9, "energy": -0.4}),
    base_config(entropy={"epsilon": 0.9, "energy": 0.4, "d_p": 1}),
    base_config(entropy={"epsilon": 0.9, "energy": 0.4, "r": 1}),
    # several errors: the first by sorted path is reported
    {"version": 2, "samples": 0, "state": {"kind": "x"}},
    {"state": {"kind": "chain", "m": 0}, "subset": [-1], "zzz": 1},
    base_config(samples=0, subset=[-1, 0.5], grid={"pair": [-1, -2, -3]}),
    base_config(state={"nu": -1}, bounds={"r": 0}, entropy={"d_p": 0}),
]


class TestConfigValidation:
    def test_valid(self):
        validate_config(base_config())

    def test_missing_field_has_pointer(self):
        with pytest.raises(ConfigError, match=r"\$"):
            validate_config({"version": 1})

    def test_bad_nested_field_has_pointer(self):
        config = base_config(state={"kind": "thermal", "nu": -1.0})
        with pytest.raises(ConfigError, match=r"\$\.state\.nu"):
            validate_config(config)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigError, match=r"\$\.samples"):
            validate_config(base_config(samples=0))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(base_config(extra=1))

    @pytest.mark.parametrize("edge, refused", [(37.67, False), (37.68, True)])
    def test_overflow_limit(self, edge, refused):
        # the corner |u|^2/4 = edge^2/2 passes ln(float max) = 709.78 at edge 37.677
        cfg = base_config(grid={"lo": -1.0, "hi": edge})
        if refused:
            with pytest.raises(ConfigError, match=r"\$\.grid: exp"):
                validate_config(cfg)
        else:
            validate_config(cfg)

    @pytest.mark.parametrize(
        "section, body",
        [
            # R comes from $.window, the one window reconstruct uses too
            ("bounds", {"protocol": "heterodyne", "r": 1, "epsilon": 0.5, "delta": 0.05,
                        "n": 2.0, "alpha": 0.0, "e_n": 1.0, "e_alpha": 1.0, "modes": 1,
                        "radius": 24.0}),
            # r is the averaged subset's size
            ("entropy", {"epsilon": 0.9, "energy": 0.4, "r": 1}),
        ],
    )
    def test_removed_keys_rejected(self, section, body):
        with pytest.raises(ConfigError, match=rf"\$\.{section}: .*was unexpected"):
            validate_config(base_config(**{section: body}))

    @pytest.mark.parametrize("config", INVALID_CONFIGS)
    def test_first_error_path_matches_jsonschema(self, config):
        jsonschema = pytest.importorskip("jsonschema")
        reference = jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA).iter_errors(config)
        expected = sorted(reference, key=lambda error: error.json_path)
        found = sorted(cli._schema_errors(cli.CONFIG_SCHEMA, config), key=lambda e: e[0])
        assert expected and found
        assert found[0][0] == expected[0].json_path
        assert {path for path, _ in found} == {error.json_path for error in expected}
        with pytest.raises(ConfigError, match=re.escape(f"config invalid at {found[0][0]}: ")):
            validate_config(config)

    def test_schema_uses_only_checked_keywords(self):
        keywords, types = set(), set()

        def walk(schema):
            keywords.update(schema)
            types.add(schema.get("type"))
            bounded = {"minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"} & set(schema)
            # a bound compares the value, so it must come with a numeric type
            assert not bounded or schema["type"] in ("integer", "number")
            for sub in list(schema.get("properties", {}).values()) + [schema.get("items")]:
                if sub is not None:
                    walk(sub)

        walk(cli.CONFIG_SCHEMA)
        assert keywords <= CHECKED_KEYWORDS
        assert types - {None} <= set(cli._TYPES)

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"samples": 50.0}, "$.samples"),
            ({"truncation": 2.0}, "$.truncation"),
            ({"state": {"kind": "chain", "m": 3.0, "kappa": 0.5}}, "$.state.m"),
            ({"version": 1.0}, "$.version"),
            ({"seed": 10**400}, "$.seed"),  # every number converts to a finite float
            ({"state": {"kind": "thermal", "nu": math.nan}}, "$.state.nu"),
            ({"grid": {"lo": -math.inf}}, "$.grid.lo"),
            ({"state": {"kind": "coherent", "alpha": [1e400 * 0, 0.0]}}, "$.state.alpha[0]"),
            ({"grid": {"hi": 10**400}}, "$.grid.hi"),
            # a key the state's kind reads is missing
            ({"state": {"kind": "cat"}}, "$.state"),
            ({"state": {"kind": "thermal"}}, "$.state"),
            ({"state": {"kind": "chain", "m": 3}}, "$.state"),
            ({"state": {"kind": "coherent"}}, "$.state"),
            ({"state": {"kind": "fock"}}, "$.state"),
            # a key the state's kind does not read is set
            ({"state": {"kind": "vacuum", "nu": 3}}, "$.state"),
            ({"state": {"kind": "vacuum", "nu": 3, "m": 7, "kappa": 0.5}}, "$.state"),
            ({"state": {"kind": "coherent", "alpha": [1, 0], "logical": "one"}}, "$.state"),
            ({"state": {"kind": "thermal", "nu": 1, "alpha": [1, 0]}}, "$.state"),
            ({"state": {"kind": "cat", "alpha": [1, 0], "disorder": True}}, "$.state"),
            ({"state": {"kind": "chain", "m": 3, "kappa": 0.5, "n": 2}}, "$.state"),
            ({"state": {"kind": "fock", "n": 1, "logical": "zero"}}, "$.state"),
            # an r-local observable needs r distinct modes
            ({"bounds": dict(BOUNDS, protocol="homodyne", r=3, modes=1)}, "$.bounds.r"),
        ],
    )
    def test_refusals_beyond_jsonschema(self, overrides, path):
        # jsonschema accepts each of these values
        with pytest.raises(ConfigError, match=re.escape(f"config invalid at {path}: ")):
            validate_config(base_config(**overrides))

    def test_each_kind_takes_only_the_keys_it_reads(self):
        # the fewest keys of each kind, then every key of the union added once
        least = {"vacuum": {}, "coherent": {"alpha": [1, 0]}, "thermal": {"nu": 0.5},
                 "cat": {"alpha": [1, 0]}, "chain": {"m": 3, "kappa": 0.5}, "fock": {"n": 1}}
        values = {"alpha": [1, 0], "logical": "plus", "nu": 0.5, "n": 1, "m": 3, "kappa": 0.5,
                  "disorder": True, "disorder_seed": 5}
        accepted = set()
        for kind, keys in least.items():
            validate_config(base_config(state={"kind": kind, **keys}))
            for key, value in values.items():
                try:
                    validate_config(base_config(state={"kind": kind, **keys, key: value}))
                except ConfigError as exc:
                    assert key not in keys
                    assert str(exc) == ("config invalid at $.state: Additional properties are "
                                        f"not allowed ({key!r} was unexpected)")
                else:
                    accepted.add((kind, key))
        assert accepted == {
            ("coherent", "alpha"), ("thermal", "nu"), ("cat", "alpha"), ("cat", "logical"),
            ("chain", "m"), ("chain", "kappa"), ("chain", "disorder"),
            ("chain", "disorder_seed"), ("fock", "n"),
        }
        for kind, keys in least.items():
            for key in keys:
                state = {"kind": kind, **{k: v for k, v in keys.items() if k != key}}
                with pytest.raises(ConfigError, match=re.escape(
                        f"config invalid at $.state: {key!r} is a required property")):
                    validate_config(base_config(state=state))

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"grid": {"pair": [0, 2], "points": 5}}, "$.grid"),
            ({"window": {"eta": 2.0, "radius": 8}}, "$.window"),
            ({"window": {"eta": 2.0, "radius": 8}, "bounds": dict(BOUNDS, protocol="homodyne")},
             "$.window"),
        ],
    )
    def test_unread_grid_and_window_refused(self, overrides, path):
        # only a heterodyne reconstruct reads a grid, and only heterodyne shadows
        # or heterodyne bounds read a window
        with pytest.raises(ConfigError, match=re.escape(f"config invalid at {path}: ")):
            validate_config(base_config(protocol="homodyne", **overrides))
        validate_config(base_config(protocol="heterodyne", **overrides))
        window = {"eta": 2.0, "radius": 8}
        validate_config(base_config(protocol="homodyne", window=window, bounds=BOUNDS))

    def test_bench_and_test_configs_validate(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
        for config in [workloads.CHAIN_CONFIG, workloads.VACUUM_CONFIG] + VALID_CONFIGS:
            validate_config(config)


class TestBuildState:
    def test_kinds(self):
        assert build_state({"kind": "vacuum"}).modes == 1
        assert build_state({"kind": "thermal", "nu": 1.0}).cov[0, 0] == 3.0
        assert build_state({"kind": "coherent", "alpha": [1.0, 0.0]}).mean[0] > 0
        assert build_state({"kind": "cat", "alpha": [1, 1]}).logical == "zero"
        assert build_state({"kind": "chain", "m": 3, "kappa": 0.5}).modes == 3
        assert build_state({"kind": "fock", "n": 1}).truncation >= 1

    def test_chain_from_spectrum_unless_disordered(self):
        chain = {"kind": "chain", "m": 1000, "kappa": 0.99}
        assert isinstance(build_state(chain), CirculantChainState)
        assert isinstance(build_state(dict(chain, m=6, disorder=True)), GaussianStateSpec)

    def test_degenerate_chain_exit_code(self, tmp_path, capsys):
        chain = {"kind": "chain", "m": 2, "kappa": 1.0}
        with pytest.raises(ValueError, match="positive definite"):
            build_state(chain)
        cfg_path = write_config(tmp_path, base_config(state=chain))
        assert cli.main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 2
        assert "error: matrix not positive definite" in capsys.readouterr().err


class TestSample:
    def test_deterministic_records(self, tmp_path):
        cfg = base_config()
        out_a = cmd_sample(cfg, tmp_path / "a")
        out_b = cmd_sample(cfg, tmp_path / "b")
        rec_a = (tmp_path / "a" / "records.jsonl").read_text()
        rec_b = (tmp_path / "b" / "records.jsonl").read_text()
        assert rec_a == rec_b
        assert out_a["n"] == 50

    def test_seed_override_changes_stream(self, tmp_path):
        cfg = base_config()
        cmd_sample(cfg, tmp_path / "a")
        cmd_sample(cfg, tmp_path / "b", seed=8)
        assert (tmp_path / "a" / "records.jsonl").read_text() != (
            tmp_path / "b" / "records.jsonl"
        ).read_text()

    def test_homodyne_angles_in_range(self, tmp_path):
        cfg = base_config(
            protocol="homodyne",
            samples=200,
            state={"kind": "cat", "alpha": [1, 1], "logical": "zero"},
        )
        cmd_sample(cfg, tmp_path)
        thetas = [
            b64_values(json.loads(line)["rows"])[0]  # rows (theta, q)
            for line in (tmp_path / "records.jsonl").read_text().splitlines()
        ]
        assert len(thetas) == 200
        assert all(-math.pi <= t < math.pi for t in thetas)

    def test_chain_record_length(self, tmp_path):
        cfg = base_config(
            state={"kind": "chain", "m": 40, "kappa": 0.99}, samples=5
        )
        cmd_sample(cfg, tmp_path)
        first = json.loads((tmp_path / "records.jsonl").read_text().splitlines()[0])
        assert list(first) == ["protocol", "rows", "seed_path"]
        assert b64_values(first["rows"]).size == 40 * 2

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_chain_records_deterministic(self, tmp_path, protocol):
        # the spectral chain's FFT draws: same config and seed, same bytes
        cfg = base_config(state={"kind": "chain", "m": 700, "kappa": 0.99}, protocol=protocol)
        cmd_sample(cfg, tmp_path / "a")
        cmd_sample(cfg, tmp_path / "b")
        rec_a = (tmp_path / "a" / "records.jsonl").read_bytes()
        assert rec_a == (tmp_path / "b" / "records.jsonl").read_bytes()

    def test_thousand_oscillator_chain_completes(self, tmp_path):
        # strongly coupled kilomode chain: per-record rows carry 2000
        # coordinates; only pairwise-reduced artifacts downstream
        cfg = base_config(
            state={"kind": "chain", "m": 1000, "kappa": 0.99}, samples=3
        )
        cmd_sample(cfg, tmp_path)
        first = json.loads((tmp_path / "records.jsonl").read_text().splitlines()[0])
        assert b64_values(first["rows"]).size == 2000

    def test_manifest_inventory(self, tmp_path, monkeypatch):
        # the records are hashed as they are written: no file is read back
        monkeypatch.setattr(cli, "_file_sha256", lambda path: pytest.fail(f"read {path}"))
        cfg = base_config()
        cmd_sample(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        records = (tmp_path / "records.jsonl").read_bytes()
        assert manifest["inventory"] == {"records.jsonl": hashlib.sha256(records).hexdigest()}
        assert manifest["config_hash"]
        assert "sampler" not in manifest  # the Gaussian sampler rejects nothing

    @pytest.mark.parametrize("protocol", ["homodyne", "heterodyne"])
    def test_manifest_records_rejection_acceptance(self, tmp_path, protocol):
        cfg = base_config(
            state={"kind": "cat", "alpha": [1.0, 1.0]}, protocol=protocol, samples=200
        )
        result = cmd_sample(cfg, tmp_path)
        sampler = json.loads((tmp_path / "manifest.json").read_text())["sampler"]
        assert sampler == result["meta"]
        assert sampler["proposals"] > 0
        assert 0.1 <= sampler["acceptance"] <= 1.0


CHAIN1000 = {"kind": "chain", "m": 1000, "kappa": 0.99}


def whole_batch_bytes(state, config: dict) -> bytes:
    """records.jsonl of the config's batch, drawn whole by the batch samplers."""
    sample = sample_homodyne_batch if config["protocol"] == "homodyne" else sample_heterodyne_batch
    seed_path = f"cvshadow/{config['seed']}/{config['protocol']}"
    batch = sample(state, config["samples"], seed_path)
    if hasattr(state, "phase_space_draws"):
        whole = whole_gaussian_batch(state, config["protocol"], config["samples"], seed_path)
        assert np.array_equal(batch.outcomes, whole.outcomes)
    text = io.StringIO()
    batch.to_jsonl(text)
    return text.getvalue().encode()


class TestStreamedSample:
    """``sample`` writes each block of rounds as it is drawn: the whole batch's bytes."""

    @pytest.fixture(scope="class")
    def chain_run(self, tmp_path_factory):
        # 1000 rounds of the m = 1000 chain, drawn and written 8 rows at a time
        out = tmp_path_factory.mktemp("chain")
        config = base_config(state=CHAIN1000, samples=1000, seed=11)
        tracemalloc.start()
        try:
            cmd_sample(config, out)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        return config, out / "records.jsonl", peak

    def test_vacuum_memory(self, tmp_path):
        # the benchmark's vacuum sample: the records are hashed as written;
        # reading them back to hash them traced 1.96 MB, the sample 0.20 MB
        tracemalloc.start()
        try:
            cmd_sample(base_config(samples=8000, truncation=3, seed=5), tmp_path)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= 1.0

    def test_chain_memory(self, chain_run):
        # rows come 8 at a time, 0.13 MB with 0.26 MB of normals and a 0.13 MB
        # sub-chunk beside them: 1.52 MB traced in a fresh process; the whole
        # (1000, 1000, 2) outcomes alone would be 16 MB (20.6 MB peak when held)
        assert chain_run[2] <= 2.0

    def test_chain_bytes(self, chain_run):
        config, records, _ = chain_run
        assert records.read_bytes() == whole_batch_bytes(build_state(CHAIN1000), config)

    def test_chain_manifest_hash(self, chain_run):
        # slices of rows, each hashed as it is written: the hash of the whole file
        _, records, _ = chain_run
        manifest = json.loads((records.parent / "manifest.json").read_text())
        digest = hashlib.sha256(records.read_bytes()).hexdigest()
        assert manifest["inventory"] == {"records.jsonl": digest}

    @pytest.mark.parametrize(
        "name, protocol, samples",
        [
            ("chain", "homodyne", 300),  # 37 slices of 8 rows and one of 4
            ("thermal3", "homodyne", 43520 + 1),  # blocks of 43520 and 1 row
            ("thermal3", "heterodyne", 43520 + 7),
            ("cat", "homodyne", 500),  # one block, by rejection
            ("cat", "heterodyne", 500),
        ],
    )
    def test_bytes_of_the_whole_batch(self, tmp_path, monkeypatch, name, protocol, samples):
        states = {
            "chain": build_state(CHAIN1000),
            "thermal3": GaussianStateSpec.thermal(0.4, modes=3),
            "cat": CatStateSpec(1 + 1j, "zero"),
        }
        monkeypatch.setattr(cli, "build_state", lambda cfg: states[name])
        config = base_config(protocol=protocol, samples=samples)
        result = cmd_sample(config, tmp_path)
        assert result["n"] == samples
        records = (tmp_path / "records.jsonl").read_bytes()
        assert records == whole_batch_bytes(states[name], config)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "records.jsonl"]

    @pytest.mark.parametrize(
        "failure, message",
        [("not-a-state", "cannot sample a matrix that is not a state"),
         ("second-block", "the second block failed")],
    )
    def test_failed_sample_leaves_no_records(self, tmp_path, monkeypatch, capsys, failure, message):
        if failure == "not-a-state":
            not_a_state = FockMatrix(1, 1, np.diag([1.2, -0.2]))
            monkeypatch.setattr(cli, "build_state", lambda cfg: not_a_state)
        else:
            draws = CirculantChainState.phase_space_draws

            def failing(self, vacuum, n, rng):
                yield next(draws(self, vacuum, n, rng))
                raise ValueError("the second block failed")

            monkeypatch.setattr(CirculantChainState, "phase_space_draws", failing)
        cfg_path = write_config(tmp_path, base_config(state=CHAIN1000, samples=300))
        out = tmp_path / "s"
        assert cli.main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_cat_peak_rss_flat_in_samples(self, tmp_path):
        # rejection rounds are written chunk by chunk: N = 1e5 and 4e5 homodyne
        # rounds of a cat, each in its own process, grew it by 9.0 MB while the
        # accepted (N, 2) points were held (see the chain pin for the reading)
        code = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'cvshadow.cli', *sys.argv[1:]], check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        peaks = {}
        for n in (100_000, 400_000):
            config = base_config(state={"kind": "cat", "alpha": [1, 1]}, protocol="homodyne", samples=n)
            cfg = str(write_config(tmp_path, config, f"cat{n}.json"))
            argv = ["sample", "--config", cfg, "--out", str(tmp_path / f"s{n}")]
            peaks[n] = int(_run_python(code, *argv).stdout.splitlines()[-1]) / 1024.0  # kB -> MB
        assert peaks[400_000] - peaks[100_000] <= 3.0, peaks

    def test_heterodyne_shadow_bytes_do_not_follow_blas_threads(self, tmp_path):
        # the profile table's block products run on one OpenBLAS thread; with
        # two, the shadow average's last bits moved (grid.csv did not)
        config = base_config(samples=50, grid={"points": 5})
        cfg = write_config(tmp_path, config)
        cmd_sample(config, tmp_path / "s")
        src = str(Path(cli.__file__).resolve().parents[1])
        averages = []
        for threads in ("1", "2"):
            out = tmp_path / f"r{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "cvshadow.cli", "reconstruct", "--config", str(cfg),
                 "--batch", str(tmp_path / "s" / "records.jsonl"), "--out", str(out)],
                env=env, capture_output=True, check=True,
            )
            averages.append((out / "shadow_average.json").read_bytes())
        assert averages[0] == averages[1]

    def test_chain_peak_rss_flat_in_samples(self, tmp_path):
        # each command in its own process, at N = 300 and N = 1300 rounds of the
        # m = 1000 chain: holding the (N, m, 2) outcomes grew them by 15 and 16 MB.
        # A child's ru_maxrss starts from its parent's RSS at the fork, so a small
        # interpreter starts the command and reads it.
        code = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'cvshadow.cli', *sys.argv[1:]], check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        peaks = {}
        for n in (300, 1300):
            config = base_config(state=CHAIN1000, samples=n, grid={"pair": [0, 500], "points": 9})
            cfg = str(write_config(tmp_path, config, f"chain{n}.json"))
            records = str(tmp_path / f"s{n}" / "records.jsonl")
            commands = {
                "sample": ["sample", "--config", cfg, "--out", str(tmp_path / f"s{n}")],
                "reconstruct": ["reconstruct", "--config", cfg, "--batch", records,
                                "--out", str(tmp_path / f"r{n}")],
            }
            for name, argv in commands.items():
                peaks[name, n] = int(_run_python(code, *argv).stdout) / 1024.0  # kB -> MB
        for name in ("sample", "reconstruct"):
            assert peaks[name, 1300] - peaks[name, 300] <= 6.0, peaks


class TestReconstruct:
    def test_vacuum_pipeline(self, tmp_path):
        cfg = base_config(samples=400)
        cmd_sample(cfg, tmp_path / "s")
        metrics = cmd_reconstruct(
            cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r"
        )
        assert metrics["v_metric"] < 0.05
        grid = (tmp_path / "r" / "grid.csv").read_text().splitlines()
        assert grid[0] == "u1,u2,re_true,im_true,re_recon,im_recon"
        assert len(grid) == 1 + 81 * 81
        avg = ShadowAverage.from_json(tmp_path / "r" / "shadow_average.json")
        assert avg.count == 400

    def test_bench_vacuum_traced_peak(self, tmp_path, monkeypatch):
        # the benchmark's vacuum reconstruct (heterodyne, M = 3, N = 8000, 81
        # points) with a cold table: 3.96 MB traced with 1024-round shadow
        # chunks, 400-round grid chunks and in-place table phases, 5.16 MB
        # with 4096- and 1616-round chunks and a float phase array
        cfg = base_config(samples=8000, truncation=3, seed=5)
        cmd_sample(cfg, tmp_path / "s")
        monkeypatch.setattr("cvshadow.shadows._PROFILE_TABLES", {})
        tracemalloc.start()
        try:
            cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r")
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= 4.5

    def test_recon_exact_at_origin(self, tmp_path):
        # every heterodyne summand is exactly 1 at u = 0
        cfg = base_config(samples=64, grid={"lo": -2.0, "hi": 2.0, "points": 5})
        cmd_sample(cfg, tmp_path / "s")
        cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r")
        rows = (tmp_path / "r" / "grid.csv").read_text().splitlines()[1:]
        origin = [r for r in rows if r.startswith("0.0,0.0,")][0]
        vals = [float(v) for v in origin.split(",")]
        assert vals[4] == pytest.approx(1.0, abs=1e-12)
        assert vals[5] == pytest.approx(0.0, abs=1e-12)

    def test_seed_flag_changes_only_the_config_hash(self, tmp_path):
        # reconstruct draws nothing, so --seed reaches the manifest's config
        # hash alone; bench/workloads.py still passes it
        cfg = base_config(samples=64, grid={"points": 5})
        cmd_sample(cfg, tmp_path / "s")
        path = write_config(tmp_path, cfg)
        for seed in ("1", "2"):
            argv = ["reconstruct", "--config", str(path), "--seed", seed, "--batch",
                    str(tmp_path / "s" / "records.jsonl"), "--out", str(tmp_path / seed)]
            assert cli.main(argv) == 0
        for name in ("grid.csv", "shadow_average.json", "metrics.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        one, two = (json.loads((tmp_path / s / "manifest.json").read_text()) for s in "12")
        assert one["config_hash"] != two["config_hash"]
        for key in ("config_hash", "elapsed_seconds"):
            del one[key], two[key]
        assert one == two

    def test_state_of_other_modes_rejected(self, tmp_path):
        cmd_sample(base_config(), tmp_path / "s")
        chain = base_config(state={"kind": "chain", "m": 3, "kappa": 0.5})
        with pytest.raises(ConfigError, match="the batch has 1 modes but the config's state has 3"):
            cmd_reconstruct(chain, tmp_path / "s" / "records.jsonl", tmp_path / "r")

    def test_long_chain_keeps_the_pair_only(self, tmp_path, monkeypatch):
        # only the columns of the subset (default [0]) and the pair are parsed
        # into the batch; the grid's V is that of the whole batch, bit for bit
        cfg = base_config(state={"kind": "chain", "m": 12, "kappa": 0.9}, samples=200,
                          grid={"pair": [7, 2], "points": 7})
        cmd_sample(cfg, tmp_path / "s")
        records = tmp_path / "s" / "records.jsonl"
        inner, kept = cli.reconstruct_pair_section, []

        def spy(batch, *args):
            kept.append(batch.modes)
            return inner(batch, *args)

        monkeypatch.setattr(cli, "reconstruct_pair_section", spy)
        metrics = cmd_reconstruct(cfg, records, tmp_path / "r")
        assert kept == [3] and metrics["pair"] == [7, 2]
        full = SampleBatch.from_jsonl(records)
        _, _, v_val = inner(full, build_state(cfg["state"]), (7, 2), -2.0, 2.0, 7)
        assert metrics["v_metric"] == v_val

    def test_chain_subset_average_matches_target(self, tmp_path):
        # every mode count writes the subset's average, here of modes 0 and 3 of six
        cfg = base_config(state={"kind": "chain", "m": 6, "kappa": 0.9}, protocol="homodyne",
                          samples=500, seed=3, subset=[0, 3])
        cmd_sample(cfg, tmp_path / "s")
        cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r")
        avg = ShadowAverage.from_json(tmp_path / "r" / "shadow_average.json")
        assert avg.subset == (0, 3) and avg.count == 500
        marginal = build_state(cfg["state"]).marginal([0, 3])
        target = project_PM(fock_matrix_of(marginal, 6), 2).entries
        assert (np.abs(avg.mean - target) / avg.stderr).max() <= 4.0

    def test_bad_subset_refused_before_parsing(self, tmp_path, monkeypatch, capsys):
        cfg = base_config(state={"kind": "chain", "m": 6, "kappa": 0.5}, protocol="homodyne")
        cmd_sample(cfg, tmp_path / "s")
        cfg_path = write_config(tmp_path, dict(cfg, subset=[0, 9]))

        def unparsed(*args, **kwargs):
            raise AssertionError("records parsed before the subset was checked")

        monkeypatch.setattr(SampleBatch, "from_jsonl", unparsed)
        assert cli.main([
            "reconstruct", "--config", str(cfg_path), "--out", str(tmp_path / "r"),
            "--batch", str(tmp_path / "s" / "records.jsonl"),
        ]) == 2
        assert "subset (0, 9) outside measured modes 0..5" in capsys.readouterr().err

    def test_protocol_mismatch_rejected(self, tmp_path):
        cfg = base_config()
        cmd_sample(cfg, tmp_path / "s")
        bad = base_config(protocol="homodyne")
        with pytest.raises(ConfigError, match="protocol"):
            cmd_reconstruct(bad, tmp_path / "s" / "records.jsonl", tmp_path / "r")

    def test_chain_pair_grid(self, tmp_path):
        cfg = base_config(
            state={"kind": "chain", "m": 12, "kappa": 0.9},
            samples=600,
            grid={"pair": [0, 6]},
        )
        cmd_sample(cfg, tmp_path / "s")
        metrics = cmd_reconstruct(
            cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r"
        )
        assert metrics["pair"] == [0, 6]
        assert metrics["v_metric"] < 0.05
        header = (tmp_path / "r" / "pair_grid.csv").read_text().splitlines()[0]
        assert header == "u1,u2,u3,u4,re_true,im_true,re_recon,im_recon"
        assert (tmp_path / "r" / "shadow_average.json").exists()

    def test_byte_stable_outputs(self, tmp_path):
        cfg = base_config(samples=120)
        cmd_sample(cfg, tmp_path / "s")
        cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r1")
        cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r2")
        for name in ("grid.csv", "metrics.json", "shadow_average.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes()

    def test_two_mode_chain_defaults_to_pair_grid(self, tmp_path):
        cfg = base_config(state={"kind": "chain", "m": 2, "kappa": 0.5}, samples=300)
        cmd_sample(cfg, tmp_path / "s")
        metrics = cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r")
        assert metrics["pair"] == [0, 1]
        assert (tmp_path / "r" / "pair_grid.csv").exists()
        assert (tmp_path / "r" / "shadow_average.json").exists()

    def test_unsafe_grid_warns_not_errors(self, tmp_path):
        # exp(|u|^2/4) outgrows the sample size on wide grids: warn, not fail
        cfg = base_config(
            state={"kind": "chain", "m": 6, "kappa": 0.5},
            samples=20,
            grid={"lo": -6.0, "hi": 6.0, "points": 21, "pair": [0, 3]},
        )
        cmd_sample(cfg, tmp_path / "s")
        metrics = cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r")
        assert "warning" in metrics

    def test_unsafe_single_mode_grid_warns(self, tmp_path):
        # the single-mode grid grows as exp(|u|^2/4) just as the pair section does
        cfg = base_config(samples=20, grid={"lo": -6.0, "hi": 6.0, "points": 21})
        cmd_sample(cfg, tmp_path / "s")
        metrics = cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r")
        assert "warning" in metrics
        assert "warning" not in cmd_reconstruct(
            base_config(samples=20), tmp_path / "s" / "records.jsonl", tmp_path / "r2"
        )

    def test_overflowing_grid_exits_2(self, tmp_path, capsys):
        # exp(|u|^2/4) overflows at |u| = 60: refused by the config check,
        # before the batch is parsed and with no numpy overflow warning
        cfg_path = write_config(tmp_path, base_config(samples=20), "ok.json")
        assert cli.main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 0
        cfg = base_config(samples=20, grid={"lo": -60.0, "hi": 60.0, "points": 5})
        cfg_path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([
                "reconstruct", "--config", str(cfg_path), "--out", str(tmp_path / "r"),
                "--batch", str(tmp_path / "s" / "records.jsonl"),
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: config invalid at $.grid: exp(|u|^2/4) overflows" in err
        assert not (tmp_path / "r" / "grid.csv").exists()

    def test_sections_called_by_imported_names(self, tmp_path, monkeypatch):
        # tracing wraps the names cvshadow.cli imports, so each grid must be
        # built by one call under its name
        calls = []
        for name in ("reconstruct_single_mode", "reconstruct_pair_section"):
            inner = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *a, _n=name, _f=inner, **k: calls.append(_n) or _f(*a, **k)
            )
        vac = base_config(samples=40, grid={"points": 5})
        chain = base_config(state={"kind": "chain", "m": 6, "kappa": 0.5}, samples=40,
                            grid={"points": 5, "pair": [0, 3]})
        for k, cfg in enumerate((vac, chain)):
            cmd_sample(cfg, tmp_path / f"s{k}")
            cmd_reconstruct(cfg, tmp_path / f"s{k}" / "records.jsonl", tmp_path / f"r{k}")
        assert calls == ["reconstruct_single_mode", "reconstruct_pair_section"]

    def test_one_shadow_batch_entries_call(self, tmp_path, monkeypatch):
        # tracing wraps the name cvshadow.cli imports, so reconstruct must
        # call it, once, under that name
        calls = []
        inner = cli.shadow_batch_entries

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(cli, "shadow_batch_entries", counted)
        cfg = base_config(samples=40)
        cmd_sample(cfg, tmp_path / "s")
        cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r")
        assert len(calls) == 1

    def test_records_opened_four_times(self, tmp_path, monkeypatch):
        # the header twice, the counting pass (which also takes the manifest's
        # SHA-256) and the parsing pass; the manifest reads the file no more
        cfg = base_config(samples=40)
        cmd_sample(cfg, tmp_path / "s")
        records = (tmp_path / "s" / "records.jsonl").resolve()
        opened, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == records:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        with monkeypatch.context() as patched:
            patched.setattr(builtins, "open", counting_open)
            cmd_reconstruct(cfg, records, tmp_path / "r")
        assert len(opened) == 4
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        digest = hashlib.sha256(records.read_bytes()).hexdigest()
        assert manifest["inputs"] == {"records.jsonl": digest}


class TestBounds:
    def bounds_config(self, **overrides):
        section = {
            "protocol": "homodyne",
            "r": 1,
            "epsilon": 0.5,
            "delta": 0.05,
            "n": 2.0,
            "alpha": 0.0,
            "e_n": 1.0,
            "e_alpha": 1.0,
            "modes": 10,
        }
        section.update(overrides)
        return base_config(bounds=section)

    def test_homodyne_echo(self, tmp_path, capsys):
        report = cmd_bounds(self.bounds_config(), tmp_path)
        assert report["M"] == 8  # ceil((4/0.5)^1)
        out = capsys.readouterr().out
        assert "protocol" in out and "N" in out

    def test_heterodyne_echo(self, tmp_path):
        cfg = dict(self.bounds_config(protocol="heterodyne"), window={"eta": 22.0, "radius": 24.0})
        report = cmd_bounds(cfg, tmp_path)
        assert report["feasible"]

    def test_configured_window_reaches_report(self, tmp_path):
        # the heterodyne bound describes the window reconstruct uses
        cfg = self.bounds_config(protocol="heterodyne")
        cmd_bounds(cfg, tmp_path / "default")
        cmd_bounds(dict(cfg, window={"eta": 7.0, "radius": 11.5}), tmp_path / "window")
        read = lambda d: json.loads((tmp_path / d / "bounds.json").read_text())["inputs"]["R"]
        assert read("default") == cli.default_window(cfg["truncation"]).radius == 8.0
        assert read("window") == 11.5

    def test_observable_variant(self, tmp_path):
        base = cmd_bounds(self.bounds_config(), tmp_path / "a")
        obs = cmd_bounds(self.bounds_config(observables=3), tmp_path / "b")
        assert obs["N"] != base["N"]

    def test_byte_stable(self, tmp_path):
        cmd_bounds(self.bounds_config(), tmp_path / "a")
        cmd_bounds(self.bounds_config(), tmp_path / "b")
        assert (tmp_path / "a" / "bounds.json").read_bytes() == (
            tmp_path / "b" / "bounds.json"
        ).read_bytes()

    def test_missing_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\$\.bounds"):
            cmd_bounds(base_config(), tmp_path)

    def test_infeasible_report_is_strict_json(self, tmp_path):
        # the benchmark's vacuum bounds: no M <= 64 fits the budget inside R = 8,
        # so N, delta0 and Sigma are infinite and bounds.json writes null for them
        def refuse(constant):
            raise ValueError(f"bounds.json holds the non-JSON constant {constant}")

        cmd_bounds(self.bounds_config(protocol="heterodyne", modes=1), tmp_path)
        report = json.loads((tmp_path / "bounds.json").read_text(), parse_constant=refuse)
        assert not report["feasible"]
        assert report["N"] is None and report["delta0"] is None and report["sigma"] is None
        assert report["reason"].startswith("no truncation M <= 64 meets the eps/2")


    def test_uncapped_homodyne_truncation_is_refused_in_a_subprocess(self, tmp_path):
        # r = 2, alpha = 2, n = 4, E_n = 20, eps = 0.1 give M = 800: uncapped,
        # _sigma_block ran for hours with overflow warnings, and the Kronecker
        # power would have been 641601^2
        config = self.bounds_config(r=2, epsilon=0.1, n=4.0, alpha=2.0, e_n=20.0)
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "cvshadow.cli", "bounds", "--config",
             str(write_config(tmp_path, config)), "--out", str(tmp_path / "b")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        report = json.loads((tmp_path / "b" / "bounds.json").read_text())
        assert not report["feasible"] and report["M"] == -1
        assert report["reason"].endswith("M = 800 exceeds the truncation cap 64")
        assert f"reason    {report['reason']}\n" in proc.stdout


class TestEntropy:
    def _write_exact_average(self, tmp_path, nu, truncation):
        fock = project_PM(fock_matrix_of(GaussianStateSpec.thermal(nu), 30), truncation)
        avg = ShadowAverage(
            subset=(0,),
            truncation=truncation,
            protocol="homodyne",
            mean=fock.entries,
            stderr=np.zeros_like(fock.entries, dtype=float),
            count=1,
        )
        path = tmp_path / "avg.json"
        avg.to_json(path)
        return path

    def test_thermal_exact_projection(self, tmp_path):
        path = self._write_exact_average(tmp_path, 1.0, 6)
        cfg = base_config(
            state={"kind": "thermal", "nu": 1.0},
            entropy={"epsilon": 0.9, "energy": 1.2, "d_p": 500},
        )
        result = cmd_entropy(cfg, path, tmp_path / "e")
        # |H - S| <= (M+1)/d_p + truncation tail effects
        assert abs(result["H"] - result["reference_entropy"]) <= 7 / 500 + 0.06
        assert result["reference_entropy"] == pytest.approx(2 * math.log(2))

    def test_reference_is_of_the_averaged_modes(self, tmp_path):
        # the chain's ground state is pure; the average covers mode 0 only
        cfg = base_config(
            state={"kind": "chain", "m": 4, "kappa": 0.9},
            protocol="homodyne",
            samples=2000,
            entropy={"epsilon": 0.9, "energy": 0.4},
        )
        cmd_sample(cfg, tmp_path / "s")
        cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r")
        result = cmd_entropy(cfg, tmp_path / "r" / "shadow_average.json", tmp_path / "e")
        mode0 = build_state(cfg["state"]).marginal([0])
        assert result["reference_entropy"] == pytest.approx(entropy_reference(mode0), abs=1e-12)
        assert result["reference_entropy"] == pytest.approx(0.2929, abs=1e-4)

    def test_chain_reference_matches_dense_marginal(self, tmp_path):
        cfg = base_config(
            state={"kind": "chain", "m": 4, "kappa": 0.9},
            protocol="homodyne",
            samples=200,
            subset=[0, 2],
            entropy={"epsilon": 0.9, "energy": 0.3},
        )
        cmd_sample(cfg, tmp_path / "s")
        cmd_reconstruct(cfg, tmp_path / "s" / "records.jsonl", tmp_path / "r")
        result = cmd_entropy(cfg, tmp_path / "r" / "shadow_average.json", tmp_path / "e")
        pair = chain_ground_state(ChainSpec(4, 0.9)).marginal([0, 2])
        assert result["reference_entropy"] == pytest.approx(entropy_reference(pair), abs=1e-12)
        assert result["reference_entropy"] > 0.1

    @pytest.mark.parametrize("state", [{"kind": "fock", "n": 1}, {"kind": "cat", "alpha": [1, 1]}])
    def test_pure_single_mode_reference_is_zero(self, tmp_path, state):
        path = self._write_exact_average(tmp_path, 0.0, 1)
        cfg = base_config(state=state, truncation=1, entropy={"epsilon": 0.9, "energy": 0.4})
        assert cmd_entropy(cfg, path, tmp_path / "e")["reference_entropy"] == 0.0
        assert '"reference_entropy": 0.0' in (tmp_path / "e" / "entropy.json").read_text()

    @pytest.mark.parametrize("state", [{"kind": "fock", "n": 1}, {"kind": "cat", "alpha": [1, 1]}])
    def test_average_modes_checked_for_every_kind(self, tmp_path, state):
        # a one-mode state has no mode 3, with or without a marginal
        path = tmp_path / "avg.json"
        avg = ShadowAverage((3,), 1, "homodyne", np.eye(2, dtype=complex), np.zeros((2, 2)), 1)
        avg.to_json(path)
        cfg = base_config(state=state, truncation=1, entropy={"epsilon": 0.9, "energy": 0.4})
        with pytest.raises(ValueError, match=re.escape("subset (3,) outside measured modes 0..0")):
            cmd_entropy(cfg, path, tmp_path / "e")
        assert not (tmp_path / "e" / "entropy.json").exists()

    def test_vacuum_small(self, tmp_path):
        path = self._write_exact_average(tmp_path, 0.0, 1)
        cfg = base_config(truncation=1, entropy={"epsilon": 0.9, "energy": 0.4, "d_p": 1000})
        result = cmd_entropy(cfg, path, tmp_path / "e")
        assert abs(result["H"]) <= 2.0 / 1000

    def test_series_radius_and_warning(self, tmp_path):
        # I - sigma of the exact vacuum P~_M has spectral radius 1 + 5e-8, and
        # its degree-14 term is below epsilon; a radius of 19 is not
        exact = project_PM_tilde(GaussianStateSpec.vacuum(), 3).entries
        noisy = np.diag([1.0, 20.0, 1.0, 1.0]).astype(complex)
        cfg = base_config(truncation=3, entropy={"epsilon": 0.9, "energy": 0.4})

        def strict(name):
            raise ValueError(f"entropy.json holds {name}")

        results = {}
        for name, mean in (("exact", exact), ("noisy", noisy)):
            path = tmp_path / f"{name}.json"
            ShadowAverage((0,), 3, "heterodyne", mean, np.zeros((4, 4)), 1).to_json(path)
            results[name] = cmd_entropy(cfg, path, tmp_path / name)
            assert results[name]["d_p"] == 14
            assert results[name] == json.loads((tmp_path / name / "entropy.json").read_text())
        assert 0 < results["exact"]["spectral_radius"] - 1 < 1e-6
        assert "warning" not in results["exact"]
        assert results["noisy"]["spectral_radius"] == 19.0
        assert "spectral radius is 19," in results["noisy"]["warning"]
        # at degree 1000 the noisy series overflows: the file stays strict JSON
        # with H null, and the result's warning, not numpy, reports it
        cfg["entropy"]["d_p"] = 1000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diverged = cmd_entropy(cfg, tmp_path / "noisy.json", tmp_path / "diverged")
        text = (tmp_path / "diverged" / "entropy.json").read_text()
        assert diverged == json.loads(text, parse_constant=strict)
        assert diverged["H"] is None and "spectral radius is 19," in diverged["warning"]

    def test_corrupted_average_rejected(self, tmp_path):
        path = self._write_exact_average(tmp_path, 1.0, 3)
        text = path.read_text().replace('"count": 1', '"count": 2')
        path.write_text(text)
        cfg = base_config(entropy={"epsilon": 0.9, "energy": 1.2})
        with pytest.raises(ValueError, match="integrity"):
            cmd_entropy(cfg, path, tmp_path / "e")

    def test_missing_file(self, tmp_path):
        cfg = base_config(entropy={"epsilon": 0.9, "energy": 0.4})
        with pytest.raises(FileNotFoundError):
            cmd_entropy(cfg, tmp_path / "nope.json", tmp_path / "e")


class TestMainEntrypoint:
    def test_full_flow(self, tmp_path):
        cfg_path = write_config(tmp_path, base_config(samples=30))
        assert cli.main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 0
        assert (
            cli.main(
                [
                    "reconstruct",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(tmp_path / "r"),
                    "--batch",
                    str(tmp_path / "s" / "records.jsonl"),
                ]
            )
            == 0
        )

    def test_records_of_version_0_1_0_exit_code(self, tmp_path, capsys):
        # 0.1.0 wrote each round's numbers as decimal lists; they are not read
        cfg_path = write_config(tmp_path, base_config())
        batch = tmp_path / "records.jsonl"
        batch.write_text('{"protocol":"heterodyne","thetas":null,"outcome":[[0.25,-1.5]],'
                         '"seed_path":"cvshadow/7/heterodyne"}\n')
        argv = ["reconstruct", "--config", str(cfg_path), "--batch", str(batch)]
        assert cli.main(argv + ["--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            f"error: {batch}: line 1 is not a record (KeyError('rows'))\n"
        )
        assert not (tmp_path / "r" / "manifest.json").exists()

    def test_records_of_version_0_4_0_exit_code(self, tmp_path, capsys):
        # 0.4.0 wrote a homodyne round as thetas and outcome fields and a
        # heterodyne round with "thetas":null; neither is read as rows
        for protocol in ("homodyne", "heterodyne"):
            cfg_path = write_config(tmp_path, base_config(protocol=protocol, samples=30))
            out = tmp_path / protocol
            assert cli.main(["sample", "--config", str(cfg_path), "--out", str(out / "s")]) == 0
            batch = out / "s" / "records.jsonl"
            lines = []
            for line in batch.read_text().splitlines():
                payload = json.loads(line)
                rows = b64_values(payload["rows"]).reshape(-1, 2)
                thetas = b64_floats(rows[:, 0]) if protocol == "homodyne" else None
                outcome = b64_floats(rows[:, 1] if protocol == "homodyne" else rows)
                lines.append(json.dumps({"protocol": protocol, "thetas": thetas, "outcome": outcome,
                                         "seed_path": payload["seed_path"]}, separators=(",", ":")))
            batch.write_text("\n".join(lines) + "\n")
            argv = ["reconstruct", "--config", str(cfg_path), "--batch", str(batch)]
            assert cli.main(argv + ["--out", str(out / "r")]) == 2
            assert capsys.readouterr().err == (
                f"error: {batch}: line 1 is not a record (KeyError('rows'))\n"
            )
            assert not (out / "r" / "manifest.json").exists()

    def test_manifests_hash_the_files_read(self, tmp_path):
        # each reader's manifest holds the digest its producer's inventory holds
        config = base_config(samples=30, entropy={"epsilon": 0.9, "energy": 0.5, "d_p": 4})
        cfg = str(write_config(tmp_path, config))
        runs = {
            "s": ["sample"],
            "r": ["reconstruct", "--batch", str(tmp_path / "s" / "records.jsonl")],
            "e": ["entropy", "--average", str(tmp_path / "r" / "shadow_average.json")],
        }
        manifests = {}
        for out, argv in runs.items():
            assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path / out)]) == 0
            manifests[out] = json.loads((tmp_path / out / "manifest.json").read_text())
        assert "inputs" not in manifests["s"]
        records = manifests["s"]["inventory"]["records.jsonl"]
        assert manifests["r"]["inputs"] == {"records.jsonl": records}
        average = manifests["r"]["inventory"]["shadow_average.json"]
        assert manifests["e"]["inputs"] == {"shadow_average.json": average}
        read = (tmp_path / "r" / "shadow_average.json").read_bytes()
        assert average == hashlib.sha256(read).hexdigest()

    def test_subset_outside_batch_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(samples=10, subset=[2]))
        out, batch = str(tmp_path / "s"), str(tmp_path / "s" / "records.jsonl")
        assert cli.main(["sample", "--config", str(cfg_path), "--out", out]) == 0
        argv = ["reconstruct", "--config", str(cfg_path), "--batch", batch]
        assert cli.main(argv + ["--out", str(tmp_path / "r")]) == 2
        assert "error: subset (2,) outside measured modes" in capsys.readouterr().err

    def test_directory_as_batch_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(samples=10))
        out = str(tmp_path / "s")
        assert cli.main(["sample", "--config", str(cfg_path), "--out", out]) == 0
        argv = ["reconstruct", "--config", str(cfg_path), "--batch", out]
        assert cli.main(argv + ["--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out}'\n"

    def test_pair_outside_chain_exit_code(self, tmp_path, capsys):
        cfg = base_config(
            state={"kind": "chain", "m": 3, "kappa": 0.5},
            samples=10,
            grid={"points": 5, "pair": [0, 7]},
        )
        cfg_path = write_config(tmp_path, cfg)
        out, batch = str(tmp_path / "s"), str(tmp_path / "s" / "records.jsonl")
        assert cli.main(["sample", "--config", str(cfg_path), "--out", out]) == 0
        argv = ["reconstruct", "--config", str(cfg_path), "--batch", batch]
        assert cli.main(argv + ["--out", str(tmp_path / "r")]) == 2
        assert "error: pair (0, 7) outside measured modes 0..2" in capsys.readouterr().err

    def test_repeated_subset_mode_exit_code(self, tmp_path, capsys):
        # subset [0, 0] would tensor each round's shadow with itself, which
        # estimates nothing
        cfg_path = write_config(tmp_path, base_config(samples=10, subset=[0, 0]))
        out, batch = str(tmp_path / "s"), str(tmp_path / "s" / "records.jsonl")
        assert cli.main(["sample", "--config", str(cfg_path), "--out", out]) == 0
        argv = ["reconstruct", "--config", str(cfg_path), "--batch", batch]
        assert cli.main(argv + ["--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "error: subset (0, 0)" in err and "must be distinct" in err
        assert not (tmp_path / "r" / "shadow_average.json").exists()

    def test_repeated_pair_mode_exit_code(self, tmp_path, capsys):
        cfg = base_config(
            state={"kind": "cat", "alpha": [1.0, 1.0]},
            samples=10,
            grid={"points": 5, "pair": [0, 0]},
        )
        cfg_path = write_config(tmp_path, cfg)
        out, batch = str(tmp_path / "s"), str(tmp_path / "s" / "records.jsonl")
        assert cli.main(["sample", "--config", str(cfg_path), "--out", out]) == 0
        argv = ["reconstruct", "--config", str(cfg_path), "--batch", batch]
        assert cli.main(argv + ["--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "error: pair (0, 0)" in err and "must be distinct" in err

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, -2.0)])
    def test_degenerate_grid_exit_code(self, tmp_path, capsys, lo, hi):
        cfg_path = write_config(tmp_path, base_config(grid={"lo": lo, "hi": hi}))
        assert cli.main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 2
        assert "error: config invalid at $.grid" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"version": 1})
        assert cli.main(["sample", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "$" in capsys.readouterr().err

    def test_config_that_is_not_json_names_its_path(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{")
        assert cli.main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not a JSON config (")
        assert not (tmp_path / "s").exists()

    def test_unread_grid_exit_code(self, tmp_path, capsys):
        cfg = base_config(state={"kind": "chain", "m": 3, "kappa": 0.5}, protocol="homodyne",
                          grid={"pair": [0, 2], "points": 5})
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "s")]) == 2
        assert "error: config invalid at $.grid: " in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_malformed_average_exit_code(self, tmp_path, capsys):
        # a valid checksum over a payload without M: the entropy command names the file
        payload = {"A": [0], "protocol": "homodyne", "count": 1, "entries_re": [1.0],
                   "entries_im": [0.0], "stderr": [0.0]}
        avg_path = tmp_path / "avg.json"
        avg_path.write_text(json.dumps(dict(payload, checksum=json_sha256(payload))))
        cfg_path = write_config(tmp_path, base_config(entropy={"epsilon": 0.9, "energy": 0.4}))
        argv = ["entropy", "--config", str(cfg_path), "--average", str(avg_path)]
        assert cli.main(argv + ["--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {avg_path}: a shadow-average file needs the keys ['M']\n"

    def test_average_of_non_numbers_names_its_path(self, tmp_path, capsys):
        # a valid checksum over entries that are not numbers
        payload = {"M": 0, "A": [0], "protocol": "homodyne", "count": 1,
                   "entries_re": ["x"], "entries_im": [0.0], "stderr": [0.0]}
        avg_path = tmp_path / "avg.json"
        avg_path.write_text(json.dumps(dict(payload, checksum=json_sha256(payload))))
        cfg_path = write_config(tmp_path, base_config(entropy={"epsilon": 0.9, "energy": 0.4}))
        argv = ["entropy", "--config", str(cfg_path), "--average", str(avg_path)]
        assert cli.main(argv + ["--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {avg_path}: entries_re, entries_im and stderr "
                       "must be lists of numbers\n")

    def test_average_of_malformed_modes_exit_code(self, tmp_path, capsys):
        # a valid checksum over modes that are not integers
        payload = {"M": 0, "A": ["x"], "protocol": "homodyne", "count": 1,
                   "entries_re": [1.0], "entries_im": [0.0], "stderr": [0.0]}
        avg_path = tmp_path / "avg.json"
        avg_path.write_text(json.dumps(dict(payload, checksum=json_sha256(payload))))
        cfg_path = write_config(tmp_path, base_config(entropy={"epsilon": 0.9, "energy": 0.4}))
        argv = ["entropy", "--config", str(cfg_path), "--average", str(avg_path)]
        assert cli.main(argv + ["--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {avg_path}: A must be a non-empty list of distinct "
                       "integers >= 0\n")

    def test_unread_squeezing_key_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, base_config(squeezing=0.3))
        assert cli.main(["sample", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config invalid at $" in err and "'squeezing' was unexpected" in err
        assert not (tmp_path / "records.jsonl").exists()

    @pytest.mark.parametrize(
        "command, overrides, path",
        [
            ("sample", {"samples": 50.0}, "$.samples"),
            ("reconstruct", {"truncation": 2.0}, "$.truncation"),
            ("sample", {"state": {"kind": "chain", "m": 3.0, "kappa": 0.5}}, "$.state.m"),
        ],
    )
    def test_integer_valued_float_refused(self, tmp_path, capsys, command, overrides, path):
        # each of these used to pass validation and then crash with a TypeError
        cfg_path = write_config(tmp_path, base_config(**overrides))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        if command == "reconstruct":
            argv += ["--batch", str(tmp_path / "records.jsonl")]
        assert cli.main(argv) == 2
        assert f"error: config invalid at {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "state, message",
        [
            ({"kind": "cat"}, "'alpha' is a required property"),
            ({"kind": "thermal"}, "'nu' is a required property"),
            ({"kind": "vacuum", "nu": 3, "m": 7, "kappa": 0.5}, "('nu' was unexpected)"),
        ],
    )
    def test_state_key_refused_before_anything_is_written(self, tmp_path, capsys, state,
                                                          message):
        # the cat and thermal state crashed in build_state with a KeyError, and
        # the vacuum was sampled with its three unread keys
        cfg_path = write_config(tmp_path, base_config(state=state))
        argv = ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config invalid at $.state: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_failed_allocation_is_reported(self, tmp_path, capsys, monkeypatch):
        # a 4-mode homodyne chain at truncation 30 asks for a (10, 923521, 923521)
        # stack; the allocation's MemoryError is patched in, not provoked
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 124. TiB")

        cfg_path = write_config(tmp_path, base_config(samples=10))
        out, batch = str(tmp_path / "s"), str(tmp_path / "s" / "records.jsonl")
        assert cli.main(["sample", "--config", str(cfg_path), "--out", out]) == 0
        monkeypatch.setattr(cli, "shadow_batch_entries", refuse)
        argv = ["reconstruct", "--config", str(cfg_path), "--batch", batch]
        assert cli.main(argv + ["--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 124. TiB\n"
        assert not (tmp_path / "r" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"state": {"kind": "thermal", "nu": math.nan}}, "$.state.nu"),
            ({"grid": {"lo": -math.inf}}, "$.grid.lo"),
            ({"state": {"kind": "coherent", "alpha": [0.5, math.inf]}}, "$.state.alpha[1]"),
        ],
    )
    def test_non_finite_number_refused(self, tmp_path, capsys, overrides, path):
        # json.load reads NaN and Infinity, which json.dumps writes for these floats
        cfg_path = write_config(tmp_path, base_config(**overrides))
        assert "NaN" in cfg_path.read_text() or "Infinity" in cfg_path.read_text()
        argv = ["sample", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert f"error: config invalid at {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["bounds", "entropy"])
    def test_seed_flag_only_on_sampling_commands(self, tmp_path, capsys, command):
        cfg_path = write_config(tmp_path, base_config())
        argv = [command, "--config", str(cfg_path), "--seed", "3", "--out", str(tmp_path)]
        if command == "entropy":
            argv += ["--average", str(tmp_path / "avg.json")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_import_leaves_quadrature_unloaded(self):
        # no module of the package imports scipy, so importing the package or
        # the CLI loads none of it
        code = (
            "import sys\n"
            "for module in ('cvshadow', 'cvshadow.cli'):\n"
            "    __import__(module)\n"
            "    print(module, sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        assert _run_python(code).stdout.splitlines() == ["cvshadow []", "cvshadow.cli []"]

    def test_import_leaves_jsonschema_unloaded(self):
        # configs are checked against CONFIG_SCHEMA by cli._schema_errors
        code = (
            "import sys\n"
            "import cvshadow.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))"
        )
        assert _run_python(code).stdout.strip() == "[]"

    def test_entropy_and_homodyne_bounds_leave_scipy_unloaded(self, tmp_path):
        # the entropy plan and the homodyne bounds evaluate Sigma (at M = 2
        # and, from the profile, M = 8) by a fixed rule, without scipy
        bounds = {"protocol": "homodyne", "r": 1, "epsilon": 0.5, "delta": 0.05,
                  "n": 2.0, "alpha": 0.0, "e_n": 1.0, "e_alpha": 1.0, "modes": 1}
        cfg = base_config(entropy={"epsilon": 0.9, "energy": 0.4}, bounds=bounds)
        cfg_path = str(write_config(tmp_path, cfg))
        assert cli.main(["sample", "--config", cfg_path, "--out", str(tmp_path / "s")]) == 0
        assert cli.main([
            "reconstruct", "--config", cfg_path, "--out", str(tmp_path / "r"),
            "--batch", str(tmp_path / "s" / "records.jsonl"),
        ]) == 0
        commands = [
            ["entropy", "--config", cfg_path, "--out", str(tmp_path / "e"),
             "--average", str(tmp_path / "r" / "shadow_average.json")],
            ["bounds", "--config", cfg_path, "--out", str(tmp_path / "b")],
        ]
        code = (
            "import json, sys\n"
            "import cvshadow.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cvshadow.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        assert _run_python(code, json.dumps(commands)).stdout.splitlines()[-1] == "[]"
        report = json.loads((tmp_path / "b" / "bounds.json").read_text())
        assert report["M"] == 8 and math.isfinite(report["sigma"])
        assert (tmp_path / "e" / "entropy.json").exists()

    def test_chain_and_vacuum_sampling_leave_scipy_special_unloaded(self, tmp_path):
        # the homodyne vacuum and cat pairs build shadows from the homodyne
        # table, whose Fock-dyad coefficients come from math.lgamma, as do
        # the cat's coherent-state amplitudes; heterodyne shadows are covered
        # by the next test.  Nor is logging loaded: the rejection acceptance
        # is recorded in the last block's meta and the sample manifest
        chain = base_config(
            state={"kind": "chain", "m": 6, "kappa": 0.5},
            samples=200,
            grid={"pair": [0, 3], "points": 9},
        )
        chain_cfg = str(write_config(tmp_path, chain, "chain.json"))
        vacuum_cfg = str(write_config(tmp_path, base_config(), "vacuum.json"))
        homodyne_cfg = str(write_config(tmp_path, base_config(protocol="homodyne"), "hom.json"))
        cat = base_config(state={"kind": "cat", "alpha": [1.0, 1.0]}, protocol="homodyne")
        cat_cfg = str(write_config(tmp_path, cat, "cat.json"))
        records = str(tmp_path / "cs" / "records.jsonl")
        hom_records = str(tmp_path / "hs" / "records.jsonl")
        cat_records = str(tmp_path / "ks" / "records.jsonl")
        commands = [
            ["sample", "--config", chain_cfg, "--out", str(tmp_path / "cs")],
            ["reconstruct", "--config", chain_cfg, "--batch", records, "--out", str(tmp_path / "cr")],
            ["sample", "--config", vacuum_cfg, "--out", str(tmp_path / "vs")],
            ["sample", "--config", homodyne_cfg, "--out", str(tmp_path / "hs")],
            ["reconstruct", "--config", homodyne_cfg, "--batch", hom_records, "--out", str(tmp_path / "hr")],
            ["sample", "--config", cat_cfg, "--out", str(tmp_path / "ks")],
            ["reconstruct", "--config", cat_cfg, "--batch", cat_records, "--out", str(tmp_path / "kr")],
        ]
        # one process runs every command; a module, once loaded, stays in sys.modules
        code = (
            "import json, sys, cvshadow.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cvshadow.cli.main(argv) == 0, argv\n"
            "print('scipy.special' in sys.modules, 'logging' in sys.modules)"
        )
        assert _run_python(code, json.dumps(commands)).stdout.strip() == "False False"
        assert (tmp_path / "cr" / "pair_grid.csv").exists()
        assert (tmp_path / "cr" / "shadow_average.json").exists()
        assert (tmp_path / "hr" / "shadow_average.json").exists()
        assert (tmp_path / "kr" / "shadow_average.json").exists()


    def test_heterodyne_vacuum_commands_leave_scipy_unloaded(self, tmp_path):
        # heterodyne sample, reconstruct (the profile table from Radon
        # projections and cosine/sine sums), entropy and a feasible
        # heterodyne bounds scan (delta0 from math.lgamma and a finite
        # series, Sigma by a fixed rule) load no scipy module at all
        bounds = {"protocol": "heterodyne", "r": 1, "epsilon": 0.9, "delta": 0.05,
                  "n": 4.0, "alpha": 0.0, "e_n": 1.0, "e_alpha": 1.0, "modes": 1}
        cfg = base_config(entropy={"epsilon": 0.9, "energy": 0.4}, bounds=bounds)
        cfg_path = str(write_config(tmp_path, cfg))
        commands = [
            ["sample", "--config", cfg_path, "--out", str(tmp_path / "s")],
            ["reconstruct", "--config", cfg_path, "--out", str(tmp_path / "r"),
             "--batch", str(tmp_path / "s" / "records.jsonl")],
            ["entropy", "--config", cfg_path, "--out", str(tmp_path / "e"),
             "--average", str(tmp_path / "r" / "shadow_average.json")],
            ["bounds", "--config", cfg_path, "--out", str(tmp_path / "b")],
        ]
        code = (
            "import json, sys, cvshadow.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cvshadow.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        assert _run_python(code, json.dumps(commands)).stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "r" / "grid.csv").exists()
        report = json.loads((tmp_path / "b" / "bounds.json").read_text())
        assert report["feasible"] and math.isfinite(report["sigma"])
        assert (tmp_path / "e" / "entropy.json").exists()

def _run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``python -c code argv...`` with this checkout's package importable."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
