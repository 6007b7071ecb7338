"""End-to-end command line behavior, run in-process via main(argv)."""
from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
import yaml

from rtlevo.cli import EXIT_ABORT, EXIT_FOUND, EXIT_NOT_FOUND, main
from rtlevo.config import load_config
from rtlevo.evolution import PLACEHOLDER_CODE, EvolutionEngine
from rtlevo.reporting import read_generations

SCRIPT_OK = """\
- match: strategy:initial
  response:
    thought: two half adders chained
    code: |
      module add2(input [1:0] a, input [1:0] b, output [2:0] s);
        assign s = a + b;
      endmodule
      // PPA: power=0.9 area=95 period=1.0
  repeat: true
- match: strategy:fix
  response: {thought: patch, code: "module add2; endmodule\\n// PPA: power=0.8 area=90 period=1.0"}
  repeat: true
- match: strategy:simplify
  response: {thought: shrink, code: "module add2; endmodule\\n// PPA: power=0.7 area=80 period=1.0"}
  repeat: true
- match: strategy:explore
  response: {thought: wild, code: "module add2; endmodule\\n// PPA: power=0.95 area=99 period=1.0"}
  repeat: true
- match: strategy:refactor
  response: {thought: rewrite, code: "module add2; endmodule\\n// PPA: power=0.85 area=92 period=1.0"}
  repeat: true
- match: strategy:improve
  response: {thought: tune, code: "module add2; endmodule\\n// PPA: power=0.5 area=50 period=1.0"}
  repeat: true
- match: strategy:fusion
  response: {thought: merge, code: "module add2; endmodule\\n// PPA: power=0.4 area=40 period=1.0"}
  repeat: true
- match: purpose:feedback
  response: consider a carry-save structure
  repeat: true
"""

SCRIPT_ALL_FAIL = """\
- match: "purpose:generate"
  response: "## Thought\\nbroken\\n\\n## Code\\n```verilog\\nmodule add2; endmodule // BUG\\n```"
  repeat: true
- match: "purpose:feedback"
  response: still broken
  repeat: true
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
    lines = (tmp_path / "run" / "transcripts.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
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
    "snapshot", ["problem: [unclosed\n", "problem: {reference_ppa: {power: no}}\n", "[]\n"]
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
    "key, value", [("simulator_command", "echo {bogus}"), ("pass_pattern", "(unclosed")]
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
        # bool() would read any non-empty string as true
        ({"keep_artifacts": "no"}, "keep_artifacts"),
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
    ],
)
def test_bad_value_is_one_error_line(tmp_path, capsys, overrides, key):
    config = write_setup(tmp_path, config_overrides=overrides)
    assert main(["validate-config", "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: ") and key in lines[0]


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


def test_parallel_toolchain_run_makes_one_scratch_directory(tmp_path, monkeypatch):
    made = []
    mkdtemp = tempfile.mkdtemp

    def slow_mkdtemp(*args, **kwargs):
        # widen the window in which a second lane could make its own
        time.sleep(0.05)
        made.append(mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", slow_mkdtemp)
    overrides = {
        **_toolchain(tmp_path),
        "evolution.population_size": 4,
        "evolution.offspring_count": 4,
        "evolution.max_parallel_evaluations": 4,
    }
    config = write_setup(tmp_path, config_overrides=overrides)
    assert main(["run", "--config", str(config)]) == EXIT_FOUND
    assert len(made) == 1 and Path(made[0]).name.startswith("rtlevo-")
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


@pytest.mark.parametrize(
    "script, key",
    [
        ("- {response: hi}\n", "entry 0.match is required"),
        ("[]\n", "non-empty list"),
        ("- match: [unclosed\n", "not valid YAML"),
        ("- {match: 'purpose:feedback', response: hi, repeat: 'no'}\n", "entry 0.repeat"),
    ],
)
@pytest.mark.parametrize("command", ["run", "validate-config"])
def test_bad_script_is_one_error_line(tmp_path, capsys, script, key, command):
    config = write_setup(tmp_path, script=script)
    assert main([command, "--config", str(config)]) == EXIT_ABORT
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: script file ") and key in lines[0]
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
    "generations.jsonl": "f47f93d3c00d230a6492c0fa6f55a225f8d3d22545ff90f041a856273a0589d7",
    "transcripts.jsonl": "ad0fbf0a818eecf7cf91e8833275b3386d818b331178d8d7a12cdead2591f0f6",
    "final_report.json": "ded93be4684818290129caaefe3a613d094fb94f8a3660595c34dff120d9d20d",
    "report": "b4ab1ca3e08aab9fb06aa8a05c6bc21abcd0b5473e675e75bb5380f97c8226da",
    "config_snapshot.yaml": "b167ceff9f16c2330c34e8e2a62be6fae108b384deb386bca9765981d4e28708",
}


def test_demo_outputs_are_pinned(tmp_path, capsys):
    demo = Path(__file__).resolve().parents[1] / "demo" / "config.yaml"
    out = tmp_path / "demo"
    assert main(["run", "--config", str(demo), "--out", str(out)]) == EXIT_FOUND
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
    assert got == DEMO_DIGESTS


def test_report_on_an_earlier_schema_is_one_error_line(tmp_path, capsys):
    main(["run", "--config", str(write_setup(tmp_path))])
    path = tmp_path / "run" / "generations.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({"schema_version": 2})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(tmp_path / "run")]) == EXIT_ABORT
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "unsupported schema_version 2" in err[0]
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
