"""YAML run-config loading: defaults, validation messages, path resolution."""
from __future__ import annotations

import copy

import pytest
import yaml

from rtlevo.config import load_config, snapshot_dict
from rtlevo.evaluate import SyntheticEvaluatorConfig, ToolchainConfig
from rtlevo.llm import ProviderConfig
from rtlevo.model import CircuitKind, ConfigError

BASE = {
    "problem": {
        "name": "add2",
        "description": "two bit adder with carry out",
        "circuit_kind": "combinational",
        "reference_ppa": {
            "power": 1.0,
            "area": 100.0,
            "effective_clock_period": 1.0,
        },
    },
    "evolution": {},
    "provider": {"kind": "scripted", "script_file": "script.yaml"},
    "evaluator": {"kind": "synthetic"},
    "output_dir": "runs/test",
}


def write_config(tmp_path, overrides=None, drop=(), script=True):
    cfg = copy.deepcopy(BASE)
    for dotted, value in (overrides or {}).items():
        node = cfg
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    for dotted in drop:
        node = cfg
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node[part]
        del node[leaf]
    if script:
        (tmp_path / "script.yaml").write_text(
            "- match: strategy:initial\n  response: hi\n  repeat: true\n",
            encoding="utf-8",
        )
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def test_defaults_fill_in(tmp_path):
    cfg = load_config(write_config(tmp_path, drop=("output_dir",)))
    ev = cfg.evolution
    assert ev.population_size == 10
    assert ev.offspring_count == 10
    assert ev.max_generations == 20
    assert ev.elite_per_metric == 1
    assert ev.reward == 1.0
    assert ev.exploration_c == 2.0
    assert ev.temperature == 1.0
    assert ev.rng_seed == 0
    assert ev.max_parallel_evaluations == 1
    assert cfg.problem.target_clock_period == 0.01
    assert cfg.output_dir == "runs/latest"
    assert cfg.keep_artifacts is False


def test_missing_evolution_section_is_fine(tmp_path):
    cfg = load_config(write_config(tmp_path, drop=("evolution",)))
    assert cfg.evolution.population_size == 10


def test_weights_default_by_circuit_kind(tmp_path):
    comb = load_config(write_config(tmp_path))
    w = comb.evolution.weights_for(comb.problem)
    assert (w.alpha, w.beta, w.gamma) == (0.5, 0.5, 0.0)
    seq = load_config(
        write_config(tmp_path, overrides={"problem.circuit_kind": "sequential"})
    )
    w = seq.evolution.weights_for(seq.problem)
    assert abs(w.alpha - 1 / 3) < 1e-12
    assert abs(w.beta - 1 / 3) < 1e-12
    assert abs(w.gamma - 1 / 3) < 1e-12


def test_explicit_weights_override_kind(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path,
            overrides={
                "evolution.weights": {"alpha": 0.7, "beta": 0.2, "gamma": 0.1}
            },
        )
    )
    w = cfg.evolution.weights_for(cfg.problem)
    assert (w.alpha, w.beta, w.gamma) == (0.7, 0.2, 0.1)


def test_description_file_resolved_relative_to_config(tmp_path):
    (tmp_path / "problem.md").write_text("a four bit counter", encoding="utf-8")
    path = write_config(
        tmp_path,
        overrides={"problem.description_file": "problem.md"},
        drop=("problem.description",),
    )
    cfg = load_config(path)
    assert cfg.problem.functional_description == "a four bit counter"


def test_description_inline_and_file_conflict(tmp_path):
    (tmp_path / "problem.md").write_text("x", encoding="utf-8")
    path = write_config(
        tmp_path, overrides={"problem.description_file": "problem.md"}
    )
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "description" in str(err.value)


def test_description_required(tmp_path):
    path = write_config(tmp_path, drop=("problem.description",))
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_population_size_names_field(tmp_path):
    path = write_config(tmp_path, overrides={"evolution.population_size": 0})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "population_size" in str(err.value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("evolution.population_size", 5.9),
        ("evolution.max_generations", True),
        ("evolution.rng_seed", float("inf")),
        ("keep_artifacts", "false"),
        ("keep_artifacts", 1),
        ("evolution.offspring_count", "4"),
    ],
)
def test_non_integral_int_and_non_boolean_bool_rejected(tmp_path, key, value):
    path = write_config(tmp_path, overrides={key: value})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert key in str(err.value)


def test_integral_values_still_load(tmp_path):
    path = write_config(
        tmp_path,
        overrides={
            "evolution.population_size": 6.0,
            "keep_artifacts": True,
        },
    )
    cfg = load_config(path)
    assert cfg.evolution.population_size == 6
    assert cfg.keep_artifacts is True


@pytest.mark.parametrize(
    "key, value",
    [
        ("problem.reference_ppa.power", "0.5"),
        ("problem.reference_ppa.area", True),
        # float() would raise OverflowError, not a ConfigError
        pytest.param("problem.reference_ppa.power", 10**400, id="power-10**400"),
        ("problem.target_clock_period", "0.01"),
        ("evolution.exploration_c", False),
        ("problem.name", 7),
    ],
)
def test_non_numeric_float_and_non_string_str_rejected(tmp_path, key, value):
    path = write_config(tmp_path, overrides={key: value})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert key in str(err.value)


def test_numbers_and_strings_still_load(tmp_path):
    path = write_config(
        tmp_path,
        overrides={
            "problem.reference_ppa.area": 100,
            "provider": {
                "kind": "http", "endpoint_url": "http://x/v1", "model_name": "m",
                "temperature": 1,
            },
        },
    )
    cfg = load_config(path)
    assert cfg.problem.reference_ppa.area == 100.0
    assert cfg.provider.temperature == 1.0 and isinstance(cfg.provider.temperature, float)
    assert cfg.provider.model_name == "m"


def test_elite_budget_checked_against_population(tmp_path):
    path = write_config(
        tmp_path,
        overrides={"evolution.population_size": 5, "evolution.elite_per_metric": 2},
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_top_level_key_listed(tmp_path):
    path = write_config(tmp_path, overrides={"verbosity": 3})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "verbosity" in str(err.value)


def test_unknown_evolution_key_listed(tmp_path):
    path = write_config(tmp_path, overrides={"evolution.populaton_size": 4})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "populaton_size" in str(err.value)


def test_inline_api_key_rejected_with_guidance(tmp_path):
    path = write_config(
        tmp_path,
        overrides={
            "provider": {
                "kind": "http",
                "endpoint_url": "https://example.invalid/v1",
                "api_key": "sk-oops",
            }
        },
    )
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "api_key_env_var" in msg
    assert "environment variable" in msg


def test_provider_kind_required(tmp_path):
    path = write_config(tmp_path, overrides={"provider": {"script_file": "s"}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "http" in str(err.value) and "scripted" in str(err.value)


def test_scripted_missing_file(tmp_path):
    path = write_config(
        tmp_path,
        overrides={"provider.script_file": "nope.yaml"},
        script=False,
    )
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "nope.yaml" in str(err.value)


def test_http_provider_defaults_and_overrides(tmp_path):
    path = write_config(
        tmp_path,
        overrides={
            "provider": {
                "kind": "http",
                "endpoint_url": "https://example.invalid/v1/chat",
                "model_name": "somemodel",
                "api_key_env_var": "MY_KEY",
            }
        },
    )
    cfg = load_config(path)
    assert isinstance(cfg.provider, ProviderConfig)
    assert cfg.provider.temperature == 1.0
    assert cfg.provider.top_p == 0.95
    assert cfg.provider.api_key_env_var == "MY_KEY"

    path2 = write_config(
        tmp_path,
        overrides={
            "provider": {
                "kind": "http",
                "endpoint_url": "https://example.invalid/v1/chat",
                "temperature": 0.4,
                "top_p": 0.8,
                "max_retries": 5,
                "feedback_temperature": 0.1,
            }
        },
    )
    cfg2 = load_config(path2)
    assert cfg2.provider.temperature == 0.4
    assert cfg2.provider.top_p == 0.8
    assert cfg2.provider.max_retries == 5
    assert cfg2.provider.sampling_for("feedback") == (0.1, 0.8)


def test_http_requires_endpoint(tmp_path):
    path = write_config(tmp_path, overrides={"provider": {"kind": "http"}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "endpoint_url" in str(err.value)


def test_toolchain_clock_defaults_to_problem_target(tmp_path):
    (tmp_path / "cells.lib").write_text("library(t){}", encoding="utf-8")
    path = write_config(
        tmp_path,
        overrides={
            "problem.target_clock_period": 2.5,
            "evaluator": {"kind": "toolchain", "liberty_path": "cells.lib"},
        },
    )
    cfg = load_config(path)
    assert isinstance(cfg.evaluator, ToolchainConfig)
    assert cfg.evaluator.clock_period == 2.5
    assert cfg.evaluator.liberty_path.endswith("cells.lib")
    assert str(tmp_path) in cfg.evaluator.liberty_path


def test_synthetic_evaluator_seed(tmp_path):
    path = write_config(tmp_path, overrides={"evaluator": {"kind": "synthetic", "seed": 9}})
    cfg = load_config(path)
    assert isinstance(cfg.evaluator, SyntheticEvaluatorConfig)
    assert cfg.evaluator.seed == 9


def test_evaluator_kind_required(tmp_path):
    path = write_config(tmp_path, overrides={"evaluator": {}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "toolchain" in str(err.value) and "synthetic" in str(err.value)


def test_config_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.yaml")


def test_config_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("problem: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "YAML" in str(err.value)


def test_circuit_kind_parsed(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.problem.circuit_kind is CircuitKind.COMBINATIONAL
    bad = write_config(tmp_path, overrides={"problem.circuit_kind": "analog"})
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "analog" in str(err.value)


def test_snapshot_contains_no_secrets(tmp_path, monkeypatch):
    monkeypatch.setenv("MY_KEY", "sk-super-secret")
    path = write_config(
        tmp_path,
        overrides={
            "provider": {
                "kind": "http",
                "endpoint_url": "https://example.invalid/v1",
                "api_key_env_var": "MY_KEY",
            }
        },
    )
    snap = snapshot_dict(load_config(path))
    dumped = yaml.safe_dump(snap)
    assert "sk-super-secret" not in dumped
    assert snap["provider"]["api_key_env_var"] == "MY_KEY"
    assert snap["evolution"]["weights"] == {"alpha": 0.5, "beta": 0.5, "gamma": 0.0}
    assert snap["problem"]["name"] == "add2"
