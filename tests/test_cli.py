"""End-to-end command line behavior, run in-process via main(argv)."""
from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
import yaml

from rtlevo.cli import EXIT_ABORT, EXIT_FOUND, EXIT_NOT_FOUND, main
from rtlevo.config import load_config
from rtlevo.evolution import PLACEHOLDER_CODE
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
    "http": {"kind": "http", "endpoint_url": "https://example.invalid/v1"},
    "synthetic": {"kind": "synthetic"},
    "toolchain": {
        "kind": "toolchain",
        "simulator_command": "echo all tests passed",
        "synthesizer_command": "cat {code_file}",
    },
}


@pytest.mark.parametrize("evaluator", ["synthetic", "toolchain"])
@pytest.mark.parametrize("provider", ["scripted", "http"])
def test_validate_config_ok(tmp_path, capsys, provider, evaluator):
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


def test_ref_ppa_missing_design_aborts(tmp_path, capsys):
    config = write_setup(tmp_path)
    code = main(["ref-ppa", str(tmp_path / "ghost.v"), "--config", str(config)])
    assert code == EXIT_ABORT
    assert "ghost.v" in capsys.readouterr().err


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
    monkeypatch.delenv("RTLEVO_CLI_KEY", raising=False)
    config = write_setup(
        tmp_path,
        config_overrides={
            "provider": {
                "kind": "http",
                "endpoint_url": "http://127.0.0.1:9/v1",
                "api_key_env_var": "RTLEVO_CLI_KEY",
                "feedback_temperature": 0.3,
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
    # the run aborts at its first provider call (no API key), after the
    # snapshot is written
    assert main(["run", "--config", str(config)]) == EXIT_ABORT
    cfg = load_config(config)
    assert cfg.evaluator.liberty_path == ""
    reloaded = load_config(tmp_path / "run" / "config_snapshot.yaml")
    assert reloaded == _with_resolved_weights(cfg)
    assert reloaded.provider.feedback_temperature == 0.3
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
        (
            {"provider": {"kind": "http", "endpoint_url": "http://x/v1", "feedback_temperature": -5}},
            "provider.feedback_temperature",
        ),
        (
            {"provider": {"kind": "http", "endpoint_url": "http://x/v1", "feedback_top_p": 7}},
            "provider.feedback_top_p",
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


def test_run_that_cannot_start_keeps_the_previous_run(tmp_path, capsys):
    config = write_setup(tmp_path)
    assert main(["run", "--config", str(config)]) == EXIT_FOUND
    run_dir = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    capsys.readouterr()
    broken = write_setup(
        tmp_path,
        config_overrides={
            "evaluator": {"kind": "toolchain", "simulator_command": "rtlevo-no-such-sim {code_file}"}
        },
    )
    assert main(["run", "--config", str(broken)]) == EXIT_ABORT
    assert "rtlevo-no-such-sim" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before
    assert main(["report", str(run_dir)]) == EXIT_FOUND


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


# sha256 of the demo's deterministic outputs, of its `rtlevo report` text and
# of its config_snapshot.yaml with the two paths in it masked; a change to any
# of them changes the behaviour the demo pins down
DEMO_DIGESTS = {
    "generations.jsonl": "e994ddf3c9d175719119ebf0f1d38b935d2f6db7aaa6926623809bc3a78ca220",
    "transcripts.jsonl": "ad0fbf0a818eecf7cf91e8833275b3386d818b331178d8d7a12cdead2591f0f6",
    "final_report.json": "f84f0bee184ba9787c4384b1c7e707a0b80e43288315c31ce367cdc0ceea241e",
    "report": "b4ab1ca3e08aab9fb06aa8a05c6bc21abcd0b5473e675e75bb5380f97c8226da",
    "config_snapshot.yaml": "3deec6eb182461f82622de71b67768cfcd586002ef738ec2e7dca268a6ed4a74",
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
