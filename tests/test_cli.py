"""End-to-end command line behavior, run in-process via main(argv)."""
from __future__ import annotations

import ast
import dataclasses
import gc
import hashlib
import json
import logging
import math
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest
import yaml

from rtlevo import cli
from rtlevo.cli import EXIT_ABORT, EXIT_FOUND, EXIT_NOT_FOUND, main
from rtlevo.config import load_config
from rtlevo.evolution import (
    CALL_FAILED_CODE,
    CALL_FAILED_LOG,
    MAX_FAILED_SLOTS_IN_A_ROW,
    PLACEHOLDER_CODE,
    EvolutionEngine,
)
from rtlevo.llm import ProviderError, TranscriptWriter
from rtlevo.model import MAX_WAIT_SECONDS
from rtlevo.prompts import render_response, system_texts
from rtlevo.reporting import GENERATIONS_FILE, TRANSCRIPTS_FILE, read_generations

from support import (
    ENTRY_KEYS,
    FakeEndpoint,
    completion_body,
    rebuild_every_prompt,
    transcript_entries,
)

SCRIPT_OK = """\
- match: strategy:initial
  response:
    thought: two half adders chained
    code: |
      module add2(input [1:0] a, input [1:0] b, output [2:0] s);
        assign s = a + b;
      endmodule
      // PPA: power=0.9 area=95 period=1.0
- match: strategy:fix
  response: {thought: patch, code: "module add2; endmodule\\n// PPA: power=0.8 area=90 period=1.0"}
- match: strategy:simplify
  response: {thought: shrink, code: "module add2; endmodule\\n// PPA: power=0.7 area=80 period=1.0"}
- match: strategy:explore
  response: {thought: wild, code: "module add2; endmodule\\n// PPA: power=0.95 area=99 period=1.0"}
- match: strategy:refactor
  response: {thought: rewrite, code: "module add2; endmodule\\n// PPA: power=0.85 area=92 period=1.0"}
- match: strategy:improve
  response: {thought: tune, code: "module add2; endmodule\\n// PPA: power=0.5 area=50 period=1.0"}
- match: strategy:fusion
  response: {thought: merge, code: "module add2; endmodule\\n// PPA: power=0.4 area=40 period=1.0"}
- match: purpose:feedback
  response: consider a carry-save structure
"""

SCRIPT_ALL_FAIL = """\
- match: "purpose:generate"
  response: "## Thought\\nbroken\\n\\n## Code\\n```verilog\\nmodule add2; endmodule // BUG\\n```"
- match: "purpose:feedback"
  response: still broken
"""


def write_setup(tmp_path, script=SCRIPT_OK, config_overrides=None):
    (tmp_path / "script.yaml").write_text(script, encoding="utf-8")
    config = {
        "problem": {
            "name": "add2",
            "description": "a two bit adder with carry out named add2",
            "circuit_kind": "combinational",
            "reference_ppa": {
                "power": 1.0,
                "area": 100.0,
                "effective_clock_period": 1.0,
            },
        },
        "evolution": {
            "population_size": 3,
            "offspring_count": 3,
            "max_generations": 2,
            "elite_per_metric": 1,
            "rng_seed": 1,
        },
        "provider": {"kind": "scripted", "script_file": "script.yaml"},
        "evaluator": {"kind": "synthetic"},
        "output_dir": str(tmp_path / "run"),
    }
    for dotted, value in (config_overrides or {}).items():
        node = config
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return path


def test_run_writes_run_directory(tmp_path, capsys):
    config = write_setup(tmp_path)
    code = main(["run", "--config", str(config)])
    assert code == EXIT_FOUND
    out = capsys.readouterr().out
    assert "run complete" in out
    run_dir = tmp_path / "run"
    assert (run_dir / "generations.jsonl").is_file()
    assert (run_dir / "transcripts.jsonl").is_file()
    assert (run_dir / "config_snapshot.yaml").is_file()
    assert (run_dir / "final_report.json").is_file()


def test_run_final_report_contents(tmp_path):
    config = write_setup(tmp_path)
    main(["run", "--config", str(config)])
    final = json.loads((tmp_path / "run" / "final_report.json").read_text(encoding="utf-8"))
    assert final["found_correct"] is True
    assert final["problem"] == "add2"
    assert final["generations"] == 3  # generation 0 plus two iterations
    assert final["best"]["fitness"] > 0
    assert "timings" not in final
    assert set(final["bandit_states"]) == {"fail", "success"}


def test_run_transcript_covers_every_call(tmp_path):
    config = write_setup(tmp_path)
    main(["run", "--config", str(config)])
    records = transcript_entries(tmp_path / "run" / "transcripts.jsonl")
    generates = [r for r in records if r["purpose"] == "generate"]
    feedbacks = [r for r in records if r["purpose"] == "feedback"]
    # 3 initial + 3 offspring x 2 generations
    assert len(generates) == 9
    # one critique per distinct evaluated individual ever chosen as a parent
    history = read_generations(tmp_path / "run")
    created = list(history[0].population) + [i for r in history[1:] for i in r.offspring]
    evaluated = {ind.id for ind in created if ind.code != PLACEHOLDER_CODE}
    parents = {pid for ind in created for pid in ind.parent_ids}
    assert parents & evaluated
    assert len(feedbacks) == len(parents & evaluated)


def test_report_renders_summary(tmp_path, capsys):
    config = write_setup(tmp_path)
    main(["run", "--config", str(config)])
    capsys.readouterr()
    code = main(["report", str(tmp_path / "run")])
    assert code == EXIT_FOUND
    out = capsys.readouterr().out
    assert "Best individual" in out
    assert "Power improv." in out
    assert "gen 0" in out


@pytest.mark.parametrize(
    "snapshot",
    [
        "problem: [unclosed\n",
        "problem: {reference_ppa: {power: no}}\n",
        "[]\n",
        # the config's rule: a reference PPA value is in (0, inf)
        "problem: {description: add, circuit_kind: combinational, reference_ppa: "
        "{power: 0.0, area: 95.0, effective_clock_period: 1.0}}\n",
    ],
)
def test_report_without_a_usable_snapshot_omits_percentages(tmp_path, capsys, snapshot):
    config = write_setup(tmp_path)
    main(["run", "--config", str(config)])
    (tmp_path / "run" / "config_snapshot.yaml").write_text(snapshot, encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(tmp_path / "run")]) == EXIT_FOUND
    out = capsys.readouterr().out
    assert "Reference PPA unavailable" in out and "Power improv." not in out


SECTIONS = {
    "scripted": {"kind": "scripted", "script_file": "script.yaml"},
    "http": {
        "kind": "http", "endpoint_url": "https://example.invalid/v1", "api_key_env_var": "RTLEVO_CLI_KEY"
    },
    "synthetic": {"kind": "synthetic"},
    "toolchain": {
        "kind": "toolchain",
        "simulator_command": "echo all tests passed",
        "synthesizer_command": "cat {code_file}",
    },
}


@pytest.mark.parametrize("evaluator", ["synthetic", "toolchain"])
@pytest.mark.parametrize("provider", ["scripted", "http"])
def test_validate_config_ok(tmp_path, capsys, monkeypatch, provider, evaluator):
    monkeypatch.setenv("RTLEVO_CLI_KEY", "sk-test")
    config = write_setup(
        tmp_path,
        config_overrides={"provider": SECTIONS[provider], "evaluator": SECTIONS[evaluator]},
    )
    assert main(["validate-config", "--config", str(config)]) == EXIT_FOUND
    out = capsys.readouterr().out
    assert "config OK" in out
    assert "N=3" in out
    assert f" provider={provider} evaluator={evaluator} " in out


def test_unknown_config_key_aborts(tmp_path, capsys):
    config = write_setup(tmp_path, config_overrides={"verbozity": 1})
    assert main(["validate-config", "--config", str(config)]) == EXIT_ABORT
    err = capsys.readouterr().err
    assert "error:" in err
    assert "verbozity" in err


def test_inline_api_key_aborts_with_guidance(tmp_path, capsys):
    config = write_setup(
        tmp_path,
        config_overrides={
            "provider": {
                "kind": "http",
                "endpoint_url": "https://example.invalid/v1",
                "api_key": "sk-nope",
            }
        },
    )
    assert main(["validate-config", "--config", str(config)]) == EXIT_ABORT
    assert "api_key_env_var" in capsys.readouterr().err


def test_dry_run_prints_prompts_and_touches_nothing(tmp_path, capsys):
    config = write_setup(tmp_path)
    code = main(["run", "--config", str(config), "--dry-run"])
    assert code == EXIT_FOUND
    out = capsys.readouterr().out
    assert "no provider was called" in out
    assert "add2" in out  # problem description is embedded
    # both system prompts, each under its own heading
    assert f"# system prompt of every draft\n{system_texts()['generate']}\n" in out
    assert f"# system prompt of every critique\n{system_texts()['feedback']}\n" in out
    assert not (tmp_path / "run").exists()


def test_all_fail_run_exits_two(tmp_path, capsys):
    config = write_setup(tmp_path, script=SCRIPT_ALL_FAIL)
    code = main(["run", "--config", str(config)])
    assert code == EXIT_NOT_FOUND
    assert "no functionally correct design" in capsys.readouterr().out


def test_report_on_missing_dir_aborts(tmp_path, capsys):
    code = main(["report", str(tmp_path / "nowhere")])
    assert code == EXIT_ABORT
    assert "error:" in capsys.readouterr().err


def test_report_on_corrupt_bandit_states_is_one_error_line(tmp_path, capsys):
    main(["run", "--config", str(write_setup(tmp_path))])
    path = tmp_path / "run" / "generations.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    last = json.loads(lines[-1])
    last["bandit_states"] = {"fail": 3}
    path.write_text("\n".join([*lines[:-1], json.dumps(last)]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(tmp_path / "run")]) == EXIT_ABORT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "generation record 2 is corrupt: bandit_states.fail must be a mapping" in err[0]


def test_ref_ppa_prints_json(tmp_path, capsys):
    config = write_setup(tmp_path)
    design = tmp_path / "golden.v"
    design.write_text(
        "module add2; endmodule\n// PPA: power=0.33 area=44 period=0.9\n",
        encoding="utf-8",
    )
    code = main(["ref-ppa", str(design), "--config", str(config)])
    assert code == EXIT_FOUND
    ppa = json.loads(capsys.readouterr().out)
    assert ppa == {"power": 0.33, "area": 44.0, "effective_clock_period": 0.9}


def test_ref_ppa_needs_no_api_key(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RTLEVO_CLI_UNSET_KEY", raising=False)
    config = write_setup(tmp_path, config_overrides=CANNOT_START["unset-key"][0])
    design = tmp_path / "golden.v"
    design.write_text("module add2; endmodule\n// PPA: power=0.33 area=44 period=0.9\n", encoding="utf-8")
    assert main(["ref-ppa", str(design), "--config", str(config)]) == EXIT_FOUND
    assert json.loads(capsys.readouterr().out)["area"] == 44.0


def test_ref_ppa_missing_design_aborts(tmp_path, capsys):
    config = write_setup(tmp_path)
    code = main(["ref-ppa", str(tmp_path / "ghost.v"), "--config", str(config)])
    assert code == EXIT_ABORT
    assert "ghost.v" in capsys.readouterr().err


def _toolchain(tmp_path, **overrides):
    """A toolchain evaluator section whose stages are plain shell commands."""
    return {
        "evaluator": {
            "kind": "toolchain",
            "simulator_command": "echo all tests passed",
            "synthesizer_command": "printf 'Chip area: 90\\nTotal power: 0.9\\nWorst slack: 0\\n'",
            "workdir_root": str(tmp_path / "work"),
            **overrides,
        }
    }


def test_ref_ppa_report_without_power_is_one_error_line(tmp_path, capsys):
    no_power = _toolchain(tmp_path, synthesizer_command="printf 'Chip area: 90\\nWorst slack: 0\\n'")
    config = write_setup(tmp_path, config_overrides=no_power)
    design = tmp_path / "golden.v"
    design.write_text("module add2; endmodule\n", encoding="utf-8")
    assert main(["ref-ppa", str(design), "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: report has no line matching evaluator.power_pattern ")


def test_ref_ppa_failed_synthesis_is_one_error_line(tmp_path, capsys, caplog):
    failing = "echo first synth line; echo second synth line; false"
    config = write_setup(tmp_path, config_overrides=_toolchain(tmp_path, synthesizer_command=failing))
    design = tmp_path / "golden.v"
    design.write_text("module add2; endmodule\n", encoding="utf-8")
    assert main(["ref-ppa", str(design), "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: reference design failed to synthesize; problem is PPA-ineligible"]
    assert "first synth line\nsecond synth line" in caplog.text


def test_ref_ppa_synthetic_without_marker_is_one_error_line(tmp_path, capsys):
    config = write_setup(tmp_path)
    design = tmp_path / "golden.v"
    design.write_text("module add2; endmodule\n", encoding="utf-8")
    assert main(["ref-ppa", str(design), "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: reference design has no '// PPA:' marker to read"]


def test_run_keeps_an_out_of_range_report_as_the_designs_outcome(tmp_path, caplog):
    infinite = "printf 'Chip area: 1e999\\nTotal power: 0.9\\nWorst slack: 0\\n'"
    config = write_setup(tmp_path, config_overrides=_toolchain(tmp_path, synthesizer_command=infinite))
    assert main(["run", "--config", str(config)]) == EXIT_FOUND
    records = read_generations(tmp_path / "run")
    assert len(records) == 3
    passed = [ind for r in records for ind in r.offspring + r.population if ind.outcome.sim_passed]
    assert passed and all(ind.outcome.ppa is None for ind in passed)
    assert "unusable report: PpaMetrics.area must be finite" in caplog.text


def test_keep_artifacts_keeps_stage_logs(tmp_path):
    config = write_setup(tmp_path, config_overrides=_toolchain(tmp_path))
    assert main(["run", "--config", str(config), "--keep-artifacts"]) == EXIT_FOUND
    first = tmp_path / "run" / "artifacts" / "ind_000000"
    assert (first / "sim.log").read_text(encoding="utf-8") == "all tests passed\n"
    assert (first / "synth.log").read_text(encoding="utf-8").startswith("Chip area: 90\n")
    assert not (first / "post_synth.log").exists()


@pytest.mark.parametrize("command", ["validate-config", "run"])
def test_a_config_naming_keep_artifacts_is_one_error_line(tmp_path, capsys, command):
    config = write_setup(tmp_path, config_overrides={"keep_artifacts": True})
    line = _one_error_line(capsys, [command, "--config", str(config)])
    assert line.startswith("error: unknown key(s) in config: keep_artifacts; allowed: ")
    assert not (tmp_path / "run").exists()


def test_run_clears_the_artifacts_an_earlier_run_kept(tmp_path):
    # the first synthesizer writes its report file, the second prints to stdout
    writes = "printf 'Chip area: 5\\nTotal power: 0.5\\nWorst slack: 0\\n' > {out_report}"
    prints = "printf 'Chip area: 99\\nTotal power: 0.9\\nWorst slack: 0\\n'"
    for synthesizer in (writes, prints):
        overrides = _toolchain(tmp_path, synthesizer_command=synthesizer)
        config = write_setup(tmp_path, config_overrides=overrides)
        assert main(["run", "--config", str(config), "--keep-artifacts"]) == EXIT_FOUND
    records = read_generations(tmp_path / "run")
    areas = {ind.outcome.ppa.area for r in records for ind in r.population + r.offspring}
    assert areas == {99.0}


@pytest.mark.parametrize(
    "key, value",
    [
        ("simulator_command", "echo {bogus}"),
        ("pass_pattern", "(unclosed"),
        # sh would fail every simulation with "Unterminated quoted string"
        ("simulator_command", 'echo "all tests passed'),
    ],
)
@pytest.mark.parametrize("command", ["run", "validate-config"])
def test_evaluator_that_cannot_run_is_one_error_line(tmp_path, capsys, key, value, command):
    config = write_setup(tmp_path, config_overrides=_toolchain(tmp_path, **{key: value}))
    assert main([command, "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: evaluator.{key}: ")
    # the config failed to load: no run directory, so no provider call
    assert not (tmp_path / "run").exists()


def test_seed_override_changes_run(tmp_path):
    config = write_setup(tmp_path)
    main(["run", "--config", str(config), "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["run", "--config", str(config), "--out", str(tmp_path / "b"), "--seed", "2"])
    a = (tmp_path / "a" / "generations.jsonl").read_bytes()
    b = (tmp_path / "b" / "generations.jsonl").read_bytes()
    assert a != b


def test_generations_override(tmp_path):
    config = write_setup(tmp_path)
    main(["run", "--config", str(config), "--generations", "1"])
    lines = (tmp_path / "run" / "generations.jsonl").read_text(encoding="utf-8").splitlines()
    # schema header plus generation 0 and generation 1
    assert len(lines) == 3


def test_missing_api_key_env_aborts(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("RTLEVO_CLI_KEY", raising=False)
    config = write_setup(
        tmp_path,
        config_overrides={
            "provider": {
                "kind": "http",
                "endpoint_url": "http://127.0.0.1:9/v1",
                "api_key_env_var": "RTLEVO_CLI_KEY",
            }
        },
    )
    code = main(["run", "--config", str(config)])
    assert code == EXIT_ABORT
    assert "RTLEVO_CLI_KEY" in capsys.readouterr().err


def test_config_snapshot_holds_resolved_values(tmp_path):
    config = write_setup(tmp_path)
    main(["run", "--config", str(config), "--seed", "42"])
    snap = yaml.safe_load(
        (tmp_path / "run" / "config_snapshot.yaml").read_text(encoding="utf-8")
    )
    assert snap["evolution"]["rng_seed"] == 42
    assert snap["evolution"]["weights"] == {"alpha": 0.5, "beta": 0.5, "gamma": 0.0}


def _with_resolved_weights(cfg):
    evolution = dataclasses.replace(cfg.evolution, weights=cfg.evolution.weights_for(cfg.problem))
    return dataclasses.replace(cfg, evolution=evolution)


def test_snapshot_reloads_scripted_synthetic(tmp_path, monkeypatch):
    # a relative config path: the snapshot must not keep paths relative to
    # the working directory
    write_setup(tmp_path, config_overrides={"output_dir": "run"})
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "config.yaml"]) == EXIT_FOUND
    reloaded = load_config(tmp_path / "run" / "config_snapshot.yaml")
    assert reloaded == _with_resolved_weights(load_config("config.yaml"))


def test_snapshot_reloads_http_toolchain(tmp_path, monkeypatch):
    monkeypatch.setenv("RTLEVO_CLI_KEY", "sk-test")
    config = write_setup(
        tmp_path,
        config_overrides={
            "provider": {
                "kind": "http",
                "endpoint_url": "http://127.0.0.1:9/v1",
                "api_key_env_var": "RTLEVO_CLI_KEY",
                "temperature": 0.3,
                "max_retries": 0,
            },
            "evaluator": {
                "kind": "toolchain",
                "simulator_command": "echo all tests passed",
                "synthesizer_command": "cat {code_file}",
                "liberty_path": "",
                "workdir_root": str(tmp_path / "work"),
            },
        },
    )
    # the run stops after writing its snapshot, before any provider call
    def stop(engine):
        raise RuntimeError("stopped before the first call")

    monkeypatch.setattr(EvolutionEngine, "run", stop)
    assert main(["run", "--config", str(config)]) == EXIT_ABORT
    cfg = load_config(config)
    assert cfg.evaluator.liberty_path == ""
    reloaded = load_config(tmp_path / "run" / "config_snapshot.yaml")
    assert reloaded == _with_resolved_weights(cfg)
    assert reloaded.provider.temperature == 0.3
    assert reloaded.evaluator.workdir_root == str(tmp_path / "work")


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"evolution.population_size": "abc"}, "evolution.population_size"),
        ({"problem.reference_ppa.area": None}, "problem.reference_ppa.area"),
        (
            {"provider": {"kind": "http", "endpoint_url": "http://x/v1", "temperature": -1}},
            "provider.temperature",
        ),
        # int() would truncate these to 5 and 3
        ({"evolution.population_size": 5.9}, "evolution.population_size"),
        ({"evolution.offspring_count": 3.9}, "evolution.offspring_count"),
        # not a setting: --keep-artifacts is the only way to keep tool artifacts
        ({"keep_artifacts": False}, "keep_artifacts"),
        # critiques sample like drafts, with provider.temperature and top_p
        (
            {"provider": {"kind": "http", "endpoint_url": "http://x/v1", "feedback_temperature": 0.3}},
            "unknown key(s) in provider: feedback_temperature;",
        ),
        (
            {"provider": {"kind": "http", "endpoint_url": "http://x/v1", "feedback_top_p": 0.7}},
            "unknown key(s) in provider: feedback_top_p;",
        ),
        # not settings: a reward is 1 or 0, and the clock is problem.target_clock_period
        ({"evolution.reward": 1.0}, "unknown key(s) in evolution: reward;"),
        (
            {"evaluator": {"kind": "toolchain", "clock_period": 2.5}},
            "unknown key(s) in evaluator: clock_period;",
        ),
        # the synthetic evaluator reads its PPA only from markers in the code
        ({"evaluator": {"kind": "synthetic", "seed": 1}}, "unknown key(s) in evaluator: seed;"),
        # an endpoint needs an http or https scheme, a host and a valid port,
        # and http.client sends it unquoted
        *(
            (
                {"provider": {"kind": "http", "endpoint_url": url, "api_key_env_var": "K"}},
                f"provider.endpoint_url must be an http or https URL with a host, "
                f"in ASCII without spaces, got {url!r}",
            )
            for url in (
                "api.example.com/v1/chat/completions",
                "ftp://api.example.com/v1",
                "http:///v1",
                "https://api.example.com:99999/v1",
                "https://api.example.com/v1 chat",
                "https://api.example.com/v1/ch\u00e4t",
            )
        ),
        # a request timeout of zero or less fails every request, and NaN or
        # infinity in a float setting loads but cannot run
        *(
            (
                {"provider": {"kind": "http", "endpoint_url": "http://x/v1", key: value}},
                f"provider.{key}",
            )
            for key, value in (
                ("request_timeout", -1),
                ("request_timeout", 0),
                ("request_timeout", math.inf),
                ("temperature", math.nan),
                ("temperature", math.inf),
            )
        ),
        *(
            (
                {"evaluator": {**SECTIONS["toolchain"], "per_stage_timeout": value}},
                "evaluator.per_stage_timeout",
            )
            for value in (math.nan, math.inf)
        ),
        *(
            ({key: value}, key)
            for key, value in (
                ("evolution.exploration_c", math.nan),
                ("evolution.exploration_c", math.inf),
                ("evolution.temperature", math.nan),
                ("problem.target_clock_period", math.nan),
                ("problem.target_clock_period", math.inf),
            )
        ),
        # every other number out of its range is one error line too
        *(
            ({key: value}, key)
            for key, value in (
                ("evolution.max_parallel_evaluations", 0),
                ("evolution.temperature", 0),
                ("problem.reference_ppa.power", 0),
            )
        ),
        *(
            (
                {"provider": {"kind": "http", "endpoint_url": "http://x/v1", key: value}},
                f"provider.{key}",
            )
            for key, value in (
                ("top_p", 0),
                ("top_p", 1.5),
                ("max_retries", -1),
                ("max_parallel_requests", 0),
            )
        ),
        # the weights check names the key without its section
        ({"evolution.weights.alpha": -0.1}, "error: weights.alpha"),
        # a finite timeout beyond the longest wait select() takes loads but cannot run
        (
            {"provider": {"kind": "http", "endpoint_url": "http://x/v1", "request_timeout": 10**7}},
            "provider.request_timeout must be in (0, 2147483], got 10000000.0",
        ),
        (
            {"evaluator": {**SECTIONS["toolchain"], "per_stage_timeout": 10**7}},
            "evaluator.per_stage_timeout must be in (0, 2147483], got 10000000.0",
        ),
    ],
)
def test_bad_value_is_one_error_line(tmp_path, capsys, overrides, key):
    config = write_setup(tmp_path, config_overrides=overrides)
    assert main(["validate-config", "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: ") and key in lines[0]


def test_infinite_operator_temperature_loads(tmp_path, capsys):
    # a NaN setting is refused, but an infinite temperature makes the operator choice uniform
    config = write_setup(tmp_path, config_overrides={"evolution.temperature": math.inf})
    assert main(["validate-config", "--config", str(config)]) == EXIT_FOUND
    assert load_config(config).evolution.temperature == math.inf


def test_closed_edges_load_and_the_longest_timeouts_run(tmp_path, capsys, monkeypatch):
    code = "module add2; endmodule\n// PPA: power=0.9 area=95 period=1.0"
    endpoint = FakeEndpoint([(200, completion_body(render_response("chain", code)))] * 20)
    monkeypatch.setenv("RTLEVO_CLI_KEY", "sk-test")
    edges = {
        "top_p": 1,
        "max_retries": 0,
        "temperature": 0,
        "request_timeout": MAX_WAIT_SECONDS,
    }
    config = write_setup(
        tmp_path,
        config_overrides={
            "evolution.max_generations": 1,
            "evolution.exploration_c": 0,
            "provider": {**SECTIONS["http"], "endpoint_url": endpoint.url, **edges},
            **_toolchain(tmp_path, per_stage_timeout=MAX_WAIT_SECONDS),
        },
    )
    try:
        assert main(["validate-config", "--config", str(config)]) == EXIT_FOUND
        assert main(["run", "--config", str(config)]) == EXIT_FOUND
    finally:
        endpoint.close()
    cfg = load_config(config)
    assert cfg.evaluator.per_stage_timeout == cfg.provider.request_timeout == MAX_WAIT_SECONDS
    assert (cfg.provider.top_p, cfg.provider.max_retries, cfg.provider.temperature) == (1, 0, 0)
    assert cfg.evolution.exploration_c == 0
    assert endpoint.requests


def test_null_means_default(tmp_path, capsys):
    config = write_setup(
        tmp_path,
        config_overrides={"evolution.rng_seed": None, "evolution.max_generations": None},
    )
    assert main(["validate-config", "--config", str(config)]) == EXIT_FOUND
    assert "G=20" in capsys.readouterr().out
    assert load_config(config).evolution.rng_seed == 0


def test_toolchain_run_keeps_workdir_root_contents(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    (work / "notes.txt").write_text("not the run's", encoding="utf-8")
    config = write_setup(
        tmp_path,
        config_overrides={
            "evaluator": {
                "kind": "toolchain",
                "simulator_command": "echo all tests passed",
                "synthesizer_command": (
                    "printf 'Chip area: 90\\nTotal power: 0.9\\nWorst slack: 0\\n'"
                ),
                "workdir_root": str(work),
            },
        },
    )
    assert main(["run", "--config", str(config)]) == EXIT_FOUND
    assert [p.name for p in work.iterdir()] == ["notes.txt"]


def test_validate_config_leaves_no_directory_behind(tmp_path, capsys):
    deep = tmp_path / "wr" / "deep"
    config = write_setup(tmp_path, config_overrides=_toolchain(tmp_path, workdir_root=str(deep)))
    assert main(["validate-config", "--config", str(config)]) == EXIT_FOUND
    assert "config OK" in capsys.readouterr().out
    assert not (tmp_path / "wr").exists()


def _parallel_toolchain_run(tmp_path, stage):
    """A run of 3 generations of 4 individuals, evaluated at most 4 at
    once, whose sim and synth stages each run `stage` first; returns the
    number of individuals it evaluated."""
    overrides = {
        **_toolchain(
            tmp_path,
            simulator_command=f"{stage}; echo all tests passed",
            synthesizer_command=f"{stage}; printf 'Chip area: 90\\nTotal power: 0.9\\nWorst slack: 0\\n'",
        ),
        "evolution.population_size": 4,
        "evolution.offspring_count": 4,
        "evolution.max_parallel_evaluations": 4,
    }
    config = write_setup(tmp_path, config_overrides=overrides)
    assert main(["run", "--config", str(config)]) == EXIT_FOUND
    records = read_generations(tmp_path / "run")
    return len({ind.id for record in records for ind in record.population + record.offspring})


def test_parallel_toolchain_run_gives_each_evaluation_its_own_scratch_directory(tmp_path):
    seen = tmp_path / "seen"
    evaluated = _parallel_toolchain_run(tmp_path, f"echo {{workdir}} >> {seen}")
    workdirs = seen.read_text(encoding="utf-8").split()
    # the sim and synth stages of one individual share its directory
    assert len(workdirs) == 2 * evaluated and len(set(workdirs)) == evaluated
    for workdir in workdirs:
        assert Path(workdir).parent == tmp_path / "work" and Path(workdir).name.startswith("rtlevo-")
    assert list((tmp_path / "work").iterdir()) == []


# makes and removes directories from four threads
@pytest.mark.scheduling
def test_at_most_k_scratch_directories_exist_at_once(tmp_path):
    # every directory under workdir_root, counted from inside each stage:
    # one per evaluation in flight, however many individuals came before
    counts = tmp_path / "counts"
    stage = f"find {tmp_path / 'work'} -mindepth 1 -type d | wc -l >> {counts}; sleep 0.02"
    evaluated = _parallel_toolchain_run(tmp_path, stage)
    seen = [int(count) for count in counts.read_text(encoding="utf-8").split()]
    assert len(seen) == 2 * evaluated
    assert 1 <= min(seen) and max(seen) <= 4, seen
    assert list((tmp_path / "work").iterdir()) == []


# configs that load but cannot start a run, and a word of the error each gives
CANNOT_START = {
    "missing-tool": (
        {"evaluator": {"kind": "toolchain", "simulator_command": "rtlevo-no-such-sim {code_file}"}},
        "rtlevo-no-such-sim",
    ),
    "unset-key": (
        {
            "provider": {
                "kind": "http",
                "endpoint_url": "http://127.0.0.1:9/v1",
                "api_key_env_var": "RTLEVO_CLI_UNSET_KEY",
            }
        },
        "RTLEVO_CLI_UNSET_KEY",
    ),
}


def test_run_that_cannot_start_keeps_the_previous_run(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RTLEVO_CLI_UNSET_KEY", raising=False)
    config = write_setup(tmp_path)
    assert main(["run", "--config", str(config)]) == EXIT_FOUND
    run_dir = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    assert len(before) == 4
    capsys.readouterr()
    for overrides, word in CANNOT_START.values():
        broken = write_setup(tmp_path, config_overrides=overrides)
        assert main(["run", "--config", str(broken)]) == EXIT_ABORT
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and word in lines[0], lines
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    assert main(["report", str(run_dir)]) == EXIT_FOUND


@pytest.mark.parametrize("out", ["file", "file/run"], ids=["a_file", "under_a_file"])
def test_run_directory_that_cannot_be_made_is_one_error_line(tmp_path, capsys, out):
    config = write_setup(tmp_path)
    (tmp_path / "file").write_text("not a directory", encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / out)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: [Errno "), lines
    assert str(tmp_path / out) in lines[0]
    assert (tmp_path / "file").read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("case", sorted(CANNOT_START))
def test_validate_config_checks_what_run_checks(tmp_path, capsys, monkeypatch, case):
    monkeypatch.delenv("RTLEVO_CLI_UNSET_KEY", raising=False)
    overrides, word = CANNOT_START[case]
    config = write_setup(tmp_path, config_overrides=overrides)
    assert main(["validate-config", "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: ") and word in lines[0]
    assert not (tmp_path / "run").exists()


def test_run_aborted_midway_leaves_no_stale_report(tmp_path):
    config = write_setup(tmp_path)
    assert main(["run", "--config", str(config)]) == EXIT_FOUND
    # generation 0 completes, then the first operator prompt has no reply
    initial_only = SCRIPT_OK.split("- match: strategy:fix")[0]
    config = write_setup(tmp_path, script=initial_only)
    assert main(["run", "--config", str(config)]) == EXIT_ABORT
    run_dir = tmp_path / "run"
    assert len(read_generations(run_dir)) == 1
    assert not (run_dir / "final_report.json").exists()


# --- the two append-only files ----------------------------------------------


def _watch_opens(monkeypatch):
    """The handles opened on a run's two append-only files, with the name of
    each, as `Path.open` hands them out; both writers open through it."""
    opened = []
    path_open = Path.open

    def watched(self, *args, **kwargs):
        fh = path_open(self, *args, **kwargs)
        if self.name in (GENERATIONS_FILE, TRANSCRIPTS_FILE):
            opened.append((self.name, fh))
        return fh

    monkeypatch.setattr(Path, "open", watched)
    return opened


def _wrap_script(monkeypatch, wrap):
    """Makes `run` build `wrap(provider)` around the scripted provider its
    config names."""
    from_file = cli.ScriptedProvider.from_file
    monkeypatch.setattr(
        cli.ScriptedProvider, "from_file", staticmethod(lambda path: wrap(from_file(path)))
    )


class _Interrupting:
    """A provider interrupted, as by Ctrl-C, at the first call of generation 1."""

    def __init__(self, inner):
        self.inner = inner

    def complete(self, bundle):
        if bundle.key[0] == 1:
            raise KeyboardInterrupt
        return self.inner.complete(bundle)


@pytest.mark.parametrize("ending", ["found", "unmatched", "interrupted"])
def test_a_run_opens_each_file_once_and_closes_it_on_every_exit(
    tmp_path, monkeypatch, capsys, ending
):
    opened = _watch_opens(monkeypatch)
    # each ending comes after generation 0 has written to both files
    script = SCRIPT_OK.split("- match: strategy:fix")[0] if ending == "unmatched" else SCRIPT_OK
    config = write_setup(
        tmp_path, script=script, config_overrides={"evolution.max_generations": 3}
    )
    if ending == "interrupted":
        _wrap_script(monkeypatch, _Interrupting)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(config)])
    else:
        want = EXIT_FOUND if ending == "found" else EXIT_ABORT
        assert main(["run", "--config", str(config)]) == want
    assert sorted(name for name, _ in opened) == [GENERATIONS_FILE, TRANSCRIPTS_FILE]
    assert all(fh.closed for _, fh in opened)
    # an unclosed handle would warn when collected, and warnings are errors
    gc.collect()
    assert len(read_generations(tmp_path / "run")) == (4 if ending == "found" else 1)


def test_a_draft_call_the_endpoint_fails_becomes_a_failed_slot(tmp_path, monkeypatch, capsys):
    code = "module add2; endmodule\n// PPA: power=0.9 area=95 period=1.0"
    # the second draft of generation 0 gets a 503, and no retry
    plan = [(200, completion_body(render_response("chain", code))), (503, "{}")]
    endpoint = FakeEndpoint(plan + [(200, completion_body(render_response("chain", code)))] * 20)
    monkeypatch.setenv("RTLEVO_CLI_KEY", "sk-test")
    config = write_setup(
        tmp_path,
        config_overrides={
            "evolution.max_generations": 1,
            "provider": {
                "kind": "http",
                "endpoint_url": endpoint.url,
                "api_key_env_var": "RTLEVO_CLI_KEY",
                "max_retries": 0,
            },
        },
    )
    try:
        assert main(["run", "--config", str(config)]) == EXIT_FOUND
    finally:
        endpoint.close()
    records = read_generations(tmp_path / "run")
    assert len(records) == 2
    failed = records[0].population[1]
    assert failed.code == CALL_FAILED_CODE
    assert failed.outcome.sim_log.startswith(CALL_FAILED_LOG + "exhausted retries: HTTP 503")
    entries = transcript_entries(tmp_path / "run" / TRANSCRIPTS_FILE)
    [error] = [entry for entry in entries if entry["error"]]
    assert error["key"] == [0, 1]


class _DraftsDown:
    """A provider whose draft calls fail from generation 1 on, as those of
    an endpoint that went down after generation 0."""

    def __init__(self, inner):
        self.inner = inner

    def complete(self, bundle):
        if bundle.purpose == "generate" and bundle.key[0] >= 1:
            raise ProviderError("transient", "exhausted retries: HTTP 503", attempt_count=4)
        return self.inner.complete(bundle)


def test_failed_draft_calls_in_a_row_end_the_run_with_one_error_line(
    tmp_path, monkeypatch, capsys
):
    _wrap_script(monkeypatch, _DraftsDown)
    config = write_setup(tmp_path, config_overrides={"evolution.max_generations": 6})
    assert main(["run", "--config", str(config)]) == EXIT_ABORT
    assert capsys.readouterr().err.splitlines() == [
        f"error: {MAX_FAILED_SLOTS_IN_A_ROW} draft calls in a row failed, the last for "
        "individual 12: exhausted retries: HTTP 503"
    ]
    # three slots a generation: the tenth failed slot in a row is generation 4's first
    assert len(read_generations(tmp_path / "run")) == 5
    assert not (tmp_path / "run" / "final_report.json").exists()


def test_http_run_closes_its_kept_alive_connections(tmp_path, monkeypatch, capsys):
    code = "module add2; endmodule\n// PPA: power=0.9 area=95 period=1.0"
    endpoint = FakeEndpoint([(200, completion_body(render_response("chain", code)))] * 20, keep_alive=True)
    monkeypatch.setenv("RTLEVO_CLI_KEY", "sk-test")
    config = write_setup(
        tmp_path,
        config_overrides={
            "evolution.max_generations": 1,
            "provider": {
                "kind": "http",
                "endpoint_url": endpoint.url,
                "api_key_env_var": "RTLEVO_CLI_KEY",
            },
        },
    )
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(config)]) == EXIT_FOUND
            gc.collect()
    finally:
        endpoint.close()
    assert 6 <= len(endpoint.requests) < 20
    # an idle connection left open warns once its provider is collected
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_validate_config_writes_no_transcript(tmp_path, capsys):
    config = write_setup(tmp_path)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    assert main(["validate-config", "--config", str(config)]) == EXIT_FOUND
    assert list(run_dir.iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_every_finished_call_and_generation_is_a_whole_line_on_disk(
    tmp_path, monkeypatch, workers
):
    run_dir = tmp_path / "run"
    lock = threading.Lock()
    recorded = []
    seen = []
    record = TranscriptWriter.record

    def counted(self, *args, **kwargs):
        # a call has finished once its entry is recorded
        with lock:
            record(self, *args, **kwargs)
            recorded.append(args[0].key)

    def read(name):
        """A run file's bytes, read through a handle of its own."""
        path = run_dir / name
        if not path.exists():
            return None
        with open(path, "rb") as fh:
            return fh.read()

    class Checking:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, bundle):
            with lock:
                seen.append(
                    (bundle.key, len(recorded), read(TRANSCRIPTS_FILE), read(GENERATIONS_FILE))
                )
            return self.inner.complete(bundle)

    def whole_lines(data):
        assert data.endswith(b"\n")
        return [json.loads(line) for line in data.splitlines()]

    monkeypatch.setattr(TranscriptWriter, "record", counted)
    _wrap_script(monkeypatch, Checking)
    config = write_setup(tmp_path, config_overrides={
        "evolution.population_size": 4, "evolution.offspring_count": 4,
        "evolution.max_generations": 3, "evolution.max_parallel_evaluations": workers,
    })
    assert main(["run", "--config", str(config)]) == EXIT_FOUND
    assert len(seen) == len(recorded) > 4 * 4
    for (generation, _), finished, transcript, history in seen:
        if transcript is None:
            assert finished == 0
        else:
            whole_lines(transcript)
            assert finished == len(transcript_entries(transcript))
        # the calls of generation g come after the records of 0..g-1
        if generation == 0:
            assert history is None
        else:
            header, *records = whole_lines(history)
            assert header == {"schema_version": 4}
            assert [r["generation_index"] for r in records] == list(range(generation))
    assert len(transcript_entries(read(TRANSCRIPTS_FILE))) == len(recorded)
    assert len(read_generations(run_dir)) == 4


def _keyed_run(tmp_path, workers):
    """A run at `workers`: its transcript's entries sorted by key, and its records."""
    run_dir = tmp_path / f"run-{workers}"
    config = write_setup(tmp_path, config_overrides={
        "evolution.population_size": 5, "evolution.offspring_count": 4,
        "evolution.max_generations": 4, "evolution.max_parallel_evaluations": workers,
    })
    assert main(["run", "--config", str(config), "--out", str(run_dir)]) == EXIT_FOUND
    entries = transcript_entries(run_dir / TRANSCRIPTS_FILE)
    keys = [tuple(entry["key"]) for entry in entries]
    assert len(set(keys)) == len(keys)
    return sorted(entries, key=lambda entry: entry["key"]), read_generations(run_dir)


# at four workers the entries complete in scheduling order
@pytest.mark.parametrize("workers", [1, pytest.param(4, marks=pytest.mark.scheduling)])
def test_transcript_entries_join_the_history_by_key(tmp_path, capsys, workers):
    entries, records = _keyed_run(tmp_path, workers)
    expected = []
    for record in records:
        g = record.generation_index
        calls = 5 if g == 0 else 4 + len(record.critiques)
        expected += [[g, n] for n in range(calls)]
        # each critique entry names the individual it critiques, in key order
        critiqued = [
            entry["parent_ids"]
            for entry in entries
            if entry["key"][0] == g and entry["purpose"] == "feedback"
        ]
        assert critiqued == [[c.id] for c in record.critiques]
    assert sum(len(record.critiques) for record in records) > 0
    assert [entry["key"] for entry in entries] == expected
    if workers > 1:
        sequential, _ = _keyed_run(tmp_path, 1)
        assert entries == sequential


@pytest.mark.parametrize(
    "script, key",
    [
        ("- {response: hi}\n", "entry 0.match is required"),
        ("[]\n", "non-empty list"),
        ("- match: [unclosed\n", "not valid YAML"),
        # a key that scripts named while entries could be used up
        ("- {match: 'purpose:feedback', response: hi, repeat: 'no'}\n", "entry 0: repeat; allowed"),
        ("- {match: 'call:x', response: hi}\n", "'call:x' must name a call key"),
    ],
)
@pytest.mark.parametrize("command", ["run", "validate-config"])
def test_bad_script_is_one_error_line(tmp_path, capsys, script, key, command):
    config = write_setup(tmp_path, script=script)
    assert main([command, "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    # the line names the script file, and the entry when one entry is at fault
    where = f"script file {tmp_path / 'script.yaml'}"
    if key not in ("non-empty list", "not valid YAML"):
        where += ", entry 0"
    assert lines[0].startswith("error: ") and where in lines[0] and key in lines[0], lines[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["run", "validate-config"])
def test_bad_config_yaml_is_one_error_line(tmp_path, capsys, command):
    config = tmp_path / "config.yaml"
    config.write_text("problem:\n  name: [add2\nevolution: {}\n", encoding="utf-8")
    assert main([command, "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: config is not valid YAML: ")
    assert "at line 3, column 1" in lines[0]


def test_a_config_yaml_error_without_a_mark_is_one_error_line(tmp_path, capsys):
    # PyYAML's reader rejects a control character before any line is parsed
    config = tmp_path / "config.yaml"
    config.write_text("a: 1\x07\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(
        "error: config is not valid YAML: unacceptable character #x0007: "
    ), lines[0]


@pytest.mark.parametrize("command", ["run", "validate-config"])
def test_endpoint_without_a_scheme_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    # it once failed only at the first call, after about 7 s of retries
    monkeypatch.setenv("RTLEVO_CLI_KEY", "sk-test")
    config = write_setup(
        tmp_path,
        config_overrides={
            "provider": {
                "kind": "http",
                "endpoint_url": "127.0.0.1:9/v1/chat/completions",
                "api_key_env_var": "RTLEVO_CLI_KEY",
            }
        },
    )
    start = time.monotonic()
    assert main([command, "--config", str(config)]) == EXIT_ABORT
    assert time.monotonic() - start < 1.0
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: provider.endpoint_url must be an http or https URL")
    assert not (tmp_path / "run").exists()


def _top_level_modules(code: str) -> set[str]:
    """The top-level names in sys.modules after a fresh interpreter runs `code`."""
    probe = f"{code}\nimport sys\nprint(sorted({{name.split('.')[0] for name in sys.modules}}))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    return set(ast.literal_eval(out))


def test_cli_imports_no_third_party_module_but_yaml():
    # what `site` preloads (e.g. a .pth hook) is the interpreter's, not ours
    extra = _top_level_modules("import rtlevo.cli") - _top_level_modules("pass")
    extra -= set(sys.stdlib_module_names) | {"rtlevo", "yaml", "_yaml"}
    # the Cython runtime that PyYAML's compiled `_yaml` registers, when it has one
    extra = {name for name in extra if not name.startswith(("_cython_", "cython_runtime"))}
    assert not extra, sorted(extra)


# sha256 of the demo's deterministic outputs, of its `rtlevo report` text and
# of its config_snapshot.yaml with the two paths in it masked; a change to any
# of them changes the behaviour the demo pins down
DEMO_DIGESTS = {
    "generations.jsonl": "4cac4446f9d69f72c3c70398a1c01fd8e9228edd5e4b75b861c0e39a9ed8b7cb",
    "transcripts.jsonl": "fd182aa84279e241b802efa1cb48a51d08b0bed3b0392b96f22ddef667839fad",
    "final_report.json": "3f6446b037af1557c08475e7b31444e6973e070b602f2afe1b55398bd3f2a80a",
    "report": "b4ab1ca3e08aab9fb06aa8a05c6bc21abcd0b5473e675e75bb5380f97c8226da",
    "config_snapshot.yaml": "03894bf755d2646111290343aa254f2287ade042542a219fe108823dbeaf3431",
}


def _run_demo(out, workers, capsys):
    """Runs and reports the demo at `workers` through a copy of its config:
    the sha256 of each output DEMO_DIGESTS pins, and the transcript's entries."""
    demo = Path(__file__).resolve().parents[1] / "demo" / "config.yaml"
    raw = yaml.safe_load(demo.read_text(encoding="utf-8"))
    raw["evolution"]["max_parallel_evaluations"] = workers
    for section, key in (("problem", "description_file"), ("provider", "script_file")):
        raw[section][key] = str(demo.parent / raw[section][key])
    config = out.with_suffix(".yaml")
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_FOUND
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_FOUND
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("generations.jsonl", "transcripts.jsonl", "final_report.json")
    }
    got["report"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    snapshot = (out / "config_snapshot.yaml").read_text(encoding="utf-8")
    assert f"\noutput_dir: {out}\n" in snapshot
    script = demo.parent / "script.yaml"
    assert f"\n  script_file: {script}\n" in snapshot
    masked = snapshot.replace(str(out), "<output_dir>").replace(str(script), "<script_file>")
    got["config_snapshot.yaml"] = hashlib.sha256(masked.encode()).hexdigest()
    return got, transcript_entries(out / "transcripts.jsonl")


@pytest.mark.parametrize("workers", [1, 4])
def test_demo_outputs_are_pinned(tmp_path, capsys, workers):
    got, transcript = _run_demo(tmp_path / "demo", workers, capsys)
    # every call was sent its purpose's system prompt, which the header
    # holds, and every entry has the same keys
    assert all(entry.keys() == ENTRY_KEYS for entry in transcript)
    if workers == 1:
        assert got == DEMO_DIGESTS
        return
    # the snapshot records the worker count, and transcript entries are
    # written as calls complete; everything else is as at 1 worker, and
    # sorted by key the entries are the one-worker entries
    pinned = ("generations.jsonl", "final_report.json", "report")
    assert {name: got[name] for name in pinned} == {name: DEMO_DIGESTS[name] for name in pinned}
    _, sequential = _run_demo(tmp_path / "sequential", 1, capsys)
    assert sorted(transcript, key=lambda entry: entry["key"]) == sequential


def test_every_demo_prompt_rebuilds_and_report_prints_a_call(tmp_path, capsys):
    demo = tmp_path / "demo"
    _, transcript = _run_demo(demo, 1, capsys)
    prompts = rebuild_every_prompt(demo)
    assert len(prompts) == len(transcript) == 34
    entries = {tuple(entry["key"]): entry for entry in transcript}
    # call 1/0 critiques individual 4, and call 1/7 drafts from it with that critique
    assert (entries[1, 0]["purpose"], entries[1, 0]["parent_ids"]) == ("feedback", [4])
    assert entries[1, 0]["response"] in prompts[1, 7]
    assert main(["report", str(demo), "--call", "1/7"]) == EXIT_FOUND
    # the prompt and the reply are printed without their trailing newlines
    prompt, reply = prompts[1, 7].rstrip("\n"), entries[1, 7]["response"].rstrip("\n")
    assert capsys.readouterr().out == (
        "# call 1/7: generate; strategy improve; parents 4\n"
        f"# system prompt\n{system_texts()['generate']}\n\n"
        f"# user prompt\n{prompt}\n\n"
        f"# reply\n{reply}\n"
    )
    assert main(["report", str(demo), "--call", "1/0"]) == EXIT_FOUND
    assert capsys.readouterr().out.startswith(
        "# call 1/0: feedback; parents 4\n"
        f"# system prompt\n{system_texts()['feedback']}\n\n"
        "# user prompt\nA Verilog design failed its testbench."
    )


def _edit_transcript(run_dir, edit_header=None, tail=None):
    """Rewrites a run's transcript with `edit_header` applied to its header
    and `tail` in place of its last line."""
    path = run_dir / TRANSCRIPTS_FILE
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    data = json.loads(header)
    if edit_header is not None:
        edit_header(data)
    if tail is not None:
        lines[-1] = tail
    path.write_text(json.dumps(data) + "\n" + "".join(lines), encoding="utf-8")


def _one_error_line(capsys, argv):
    capsys.readouterr()
    assert main(argv) == EXIT_ABORT
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert captured.out == ""
    return err[0]


def test_a_template_edited_after_the_run_fails_its_calls_digest_check(tmp_path, capsys):
    demo = tmp_path / "demo"
    _, transcript = _run_demo(demo, 1, capsys)
    [digest] = [entry["user_sha256"] for entry in transcript if entry["key"] == [1, 7]]

    def edit(header):
        improve = header["templates"]["improve"]
        assert "general enhancements" in improve
        header["templates"]["improve"] = improve.replace("general", "broad", 1)

    _edit_transcript(demo, edit)
    line = _one_error_line(capsys, ["report", str(demo), "--call", "1/7"])
    assert line == (
        f"error: {demo / TRANSCRIPTS_FILE}: call 1/7: the prompt rebuilt from the run "
        f"directory does not match its digest {digest}"
    )
    # a call rendered from another template still rebuilds
    assert main(["report", str(demo), "--call", "1/0"]) == EXIT_FOUND


@pytest.mark.parametrize("version", [1, 2])
def test_report_call_refuses_a_transcript_of_an_earlier_schema(tmp_path, capsys, version):
    demo = tmp_path / "demo"
    _run_demo(demo, 1, capsys)
    _edit_transcript(demo, lambda header: header.update(schema_version=version))
    line = _one_error_line(capsys, ["report", str(demo), "--call", "0/0"])
    assert line.endswith(f"transcripts.jsonl: unsupported schema_version {version}")


def test_report_call_drops_a_torn_last_entry_with_a_warning(tmp_path, capsys, caplog):
    demo = tmp_path / "demo"
    _, transcript = _run_demo(demo, 1, capsys)
    last = transcript[-1]
    _edit_transcript(demo, tail=json.dumps(last)[:80])
    with caplog.at_level(logging.WARNING):
        assert main(["report", str(demo), "--call", "1/7"]) == EXIT_FOUND
    assert "dropped transcript entry 33, cut short by an interrupted write" in caplog.text
    key = "/".join(map(str, last["key"]))
    line = _one_error_line(capsys, ["report", str(demo), "--call", key])
    assert line.endswith(f"call {key}: the transcript has no entry for this call")


def test_report_call_refuses_a_transcript_entry_without_a_call_key(tmp_path, capsys):
    demo = tmp_path / "demo"
    _, transcript = _run_demo(demo, 1, capsys)
    _edit_transcript(demo, tail=json.dumps({**transcript[-1], "key": None}) + "\n")
    line = _one_error_line(capsys, ["report", str(demo), "--call", "0/0"])
    assert line == f"error: {demo / TRANSCRIPTS_FILE}: transcript entry 33 is corrupt: it has no call key"


@pytest.mark.parametrize("call", ["1", "1/2/3", "a/b", "1/-1", ""])
def test_report_call_with_a_malformed_key_is_one_error_line(tmp_path, capsys, call):
    demo = tmp_path / "demo"
    _run_demo(demo, 1, capsys)
    line = _one_error_line(capsys, ["report", str(demo), "--call", call])
    assert line == f"error: --call must name a call key as G/N, got {call!r}"


def test_a_run_logs_one_progress_line_per_generation(tmp_path, capsys, caplog):
    caplog.set_level(logging.INFO, logger="rtlevo.cli")
    got, _ = _run_demo(tmp_path / "demo", 1, capsys)
    assert got == DEMO_DIGESTS
    lines = [record.getMessage() for record in caplog.records if record.name == "rtlevo.cli"]
    expected = [
        "generation 0: 1/6 passed, best fitness 0.075, 6 drafts, 0 critiques",
        "generation 1: 3/6 passed, best fitness 0.26, 6 drafts, 4 critiques",
        "generation 2: 6/6 passed, best fitness 0.425, 6 drafts, 4 critiques",
        "generation 3: 6/6 passed, best fitness 0.425, 6 drafts, 2 critiques",
    ]
    assert len(lines) == len(expected)
    for line, counts in zip(lines, expected):
        assert re.fullmatch(re.escape(counts) + r", \d+\.\d\d s elapsed", line), line
    # the counts are the records': passes, best fitness and critiques
    for line, record in zip(lines, read_generations(tmp_path / "demo")):
        assert f" {record.success_count}/{len(record.population)} passed" in line
        assert f"best fitness {record.best_so_far.fitness:.6g}," in line
        assert f" {len(record.critiques)} critiques" in line


def test_report_on_an_earlier_schema_is_one_error_line(tmp_path, capsys):
    main(["run", "--config", str(write_setup(tmp_path))])
    path = tmp_path / "run" / "generations.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({"schema_version": 3})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(tmp_path / "run")]) == EXIT_ABORT
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "unsupported schema_version 3" in err[0]
    assert captured.out == ""


def test_report_on_a_dangling_reference_is_one_error_line(tmp_path, capsys):
    main(["run", "--config", str(write_setup(tmp_path))])
    path = tmp_path / "run" / "generations.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    last = json.loads(lines[-1])
    last["population"][1] = {"id": 99}
    path.write_text("\n".join([*lines[:-1], json.dumps(last)]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(tmp_path / "run")]) == EXIT_ABORT
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "generation record 2 is corrupt: population[1]: no earlier entry defines individual 99" in err[0]
