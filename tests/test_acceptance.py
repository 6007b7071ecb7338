"""Acceptance gate: one test per shipped guarantee, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` to see one line per criterion;
criterion 10 is skipped where no RTL toolchain is installed.
"""
from __future__ import annotations

import math
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rtlevo.bandit import (
    BanditState,
    StrategyStats,
    record_reward,
    select_strategy,
    softmax,
    ucb_score,
)
from rtlevo.evaluate import (
    SyntheticEvaluator,
    ToolchainConfig,
    ToolchainEvaluator,
)
from rtlevo.evolution import (
    EvolutionConfig,
    EvolutionEngine,
    offspring_quota,
    survivor_select,
)
from rtlevo.fitness import SYNTH_FAIL_FITNESS, FitnessWeights, compute_fitness
from rtlevo.llm import ScriptedProvider
from rtlevo.model import CircuitKind, PpaMetrics, ProblemSpec
from rtlevo.prompts import FALLBACK_THOUGHT, ParseError, parse_llm_response, render_response

from closed_world import ClosedWorld
from support import (
    REF,
    SPEC,
    demo_script,
    fail_ind,
    oracle_survivors,
    run_at_one_and_four_workers,
    success_ind,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


# --- 1: fitness formula exactness -------------------------------------------


def test_criterion_01_fitness_formula_exactness():
    def oracle(gen: PpaMetrics, ref: PpaMetrics, w: FitnessWeights) -> float:
        # written independently: per-term products joined by exact summation
        return math.fsum(
            [
                w.alpha * (ref.power - gen.power) / ref.power,
                w.beta * (ref.area - gen.area) / ref.area,
                w.gamma
                * (ref.effective_clock_period - gen.effective_clock_period)
                / ref.effective_clock_period,
            ]
        )

    started = time.perf_counter()
    rng = random.Random(2024)

    def field():
        return 10 ** rng.uniform(0.0, 4.0)  # log-uniform over [1, 1e4]

    worst = 0.0
    for _ in range(100):
        ref = PpaMetrics(field(), field(), field())
        gen = PpaMetrics(field(), field(), field())
        weights = FitnessWeights(rng.random(), rng.random(), rng.random())
        diff = abs(compute_fitness(gen, ref, weights) - oracle(gen, ref, weights))
        worst = max(worst, diff)
        assert diff <= 1e-12

    identical = PpaMetrics(3.7, 512.0, 0.42)
    assert compute_fitness(identical, identical, FitnessWeights(0.5, 0.5, 0.0)) == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(1, f"100 randomized triples within 1e-12 (worst {worst:.2e}), identity exact, {elapsed:.3f}s")


# --- 2: offspring quota ------------------------------------------------------


def test_criterion_02_offspring_quota_split():
    assert offspring_quota(7, 3, 10) == (7, 3)
    rng = random.Random(99)
    for _ in range(10_000):
        fail = rng.randrange(0, 30)
        success = rng.randrange(0, 30)
        if fail + success == 0:
            continue
        budget = rng.randrange(1, 40)
        qf, qs = offspring_quota(fail, success, budget)
        assert qf + qs == budget
        total = fail + success
        if fail and success:
            assert abs(qf - budget * fail / total) < 1.0
            assert abs(qs - budget * success / total) < 1.0
    ok(2, "(7,3,10)->(7,3); 10^4 random splits sum to budget, each side within 1 of exact")


# --- 3: bandit math ----------------------------------------------------------


def test_criterion_03_bandit_math():
    # (a) Q is the exact running mean
    rng = random.Random(5)
    for _ in range(200):
        state = BanditState.for_strategies(["s"])
        rewards = [rng.uniform(0, 1) for _ in range(rng.randrange(1, 30))]
        for r in rewards:
            record_reward(state, "s", r)
        assert abs(state.strategies["s"].q_value - math.fsum(rewards) / len(rewards)) <= 1e-12

    # (b) closed-form score
    score = ucb_score(StrategyStats(q_value=0.5, pull_count=4), total_pulls=10, exploration_c=2.0)
    assert abs(score - 2.017427) <= 1e-5

    # (c) softmax normalization and shift invariance
    for _ in range(200):
        scores = [rng.uniform(-5, 5) for _ in range(rng.randrange(2, 8))]
        tau = rng.uniform(0.2, 3.0)
        probs = softmax(scores, tau)
        assert abs(sum(probs) - 1.0) <= 1e-9
        shifted = softmax([s + 11.5 for s in scores], tau)
        for p, q in zip(probs, shifted):
            assert abs(p - q) <= 1e-12

    # (d) empirical frequency at scores [1, 0], tau=1
    state = BanditState({"hi": StrategyStats(1.0, 1), "lo": StrategyStats(0.0, 1)})
    draw_rng = random.Random(123)
    draws = 100_000
    hits = sum(1 for _ in range(draws) if select_strategy(state, draw_rng, 0.0, 1.0) == "hi")
    freq = hits / draws
    assert abs(freq - 0.7311) <= 0.01
    ok(3, f"Q exact mean; UCB 2.017427 +/- 1e-5; softmax stable; P(first)={freq:.4f}")


# --- 4: bandit adaptation ----------------------------------------------------


def test_criterion_04_bandit_adaptation():
    started = time.perf_counter()
    names = ["fix", "simplify", "explore", "refactor", "improve"]
    state = BanditState.for_strategies(names)
    rng = random.Random(7)
    for _ in range(200):
        name = select_strategy(state, rng, 2.0, 1.0)
        p_success = 0.9 if name == "fix" else 0.1
        record_reward(state, name, 1.0 if rng.random() < p_success else 0.0)
    assert state.total_pulls == 200
    scores = [ucb_score(state.strategies[n], state.total_pulls, 2.0) for n in names]
    probs = dict(zip(names, softmax(scores, 1.0)))
    for name in names[1:]:
        assert probs["fix"] > probs[name], probs
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(4, f"after 200 pulls the 0.9-success strategy leads (P={probs['fix']:.3f}), {elapsed:.2f}s")


# --- 5: selection and elitism -------------------------------------------------


def test_criterion_05_selection_and_elitism():
    rng = random.Random(404)
    for trial in range(1000):
        pop_size = rng.randrange(3, 10)
        elite_n = rng.randrange(0, pop_size // 3 + 1)
        next_id = iter(range(10_000))

        def rand_ind(gen):
            shape = rng.randrange(3)
            i = next(next_id)
            if shape == 0:
                return fail_ind(i, gen)
            if shape == 1:
                return success_ind(i, SYNTH_FAIL_FITNESS, None, gen)
            ppa = PpaMetrics(
                round(rng.uniform(0.1, 2.0), 1),
                round(rng.uniform(10, 200), 0),
                round(rng.uniform(0.1, 2.0), 1),
            )
            return success_ind(i, round(rng.uniform(-1, 1), 1), ppa, gen)

        parents = [rand_ind(rng.randrange(0, 3)) for _ in range(pop_size)]
        offspring = [rand_ind(rng.randrange(1, 4)) for _ in range(rng.randrange(0, 8))]
        cfg = EvolutionConfig(
            population_size=pop_size, offspring_count=4, max_generations=1,
            elite_per_metric=elite_n, rng_seed=0,
        )
        got = survivor_select(parents, offspring, cfg)
        # size preserved
        assert len(got) == pop_size
        # per-metric best synthesized parents preserved (up to dedup)
        synthesized = [p for p in parents if p.outcome.ppa is not None]
        if elite_n > 0 and synthesized:
            got_ids = {ind.id for ind in got}
            for metric in ("power", "area", "effective_clock_period"):
                champ = min(
                    synthesized,
                    key=lambda p: (getattr(p.outcome.ppa, metric), -p.fitness, p.id),
                )
                assert champ.id in got_ids, f"trial {trial} lost {metric} champion"
        # full agreement with the brute-force oracle
        want = oracle_survivors(parents, offspring, elite_n, pop_size)
        assert [i.id for i in got] == [i.id for i in want], f"trial {trial}"

    # best-so-far never decreases over a scripted 20-generation run
    cfg = EvolutionConfig(
        population_size=6, offspring_count=6, max_generations=20,
        elite_per_metric=1, rng_seed=7,
    )
    provider = ScriptedProvider(demo_script())
    result = EvolutionEngine(SPEC, cfg, provider, SyntheticEvaluator()).run()
    assert len(result.history) == 21
    last = float("-inf")
    for record in result.history:
        assert record.best_so_far.fitness >= last
        last = record.best_so_far.fitness
    ok(5, "10^3 random populations match the brute-force oracle; 20-generation best is monotone")


# --- 6: determinism of the shipped demo --------------------------------------


def test_criterion_06_scripted_demo_determinism(tmp_path):
    config = ROOT / "demo" / "config.yaml"
    assert config.is_file()

    def run_once(out_dir: Path) -> dict[str, bytes]:
        proc = subprocess.run(
            [
                sys.executable, "-m", "rtlevo.cli", "run",
                "--config", str(config), "--out", str(out_dir),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout
        files = {
            name: (out_dir / name).read_bytes()
            for name in ("generations.jsonl", "transcripts.jsonl", "final_report.json")
        }
        # the snapshot repeats apart from output_dir, which follows --out
        snapshot = (out_dir / "config_snapshot.yaml").read_text(encoding="utf-8")
        assert str(out_dir) in snapshot
        files["config_snapshot.yaml"] = snapshot.replace(str(out_dir), "OUT").encode()
        return files

    first = run_once(tmp_path / "one")
    second = run_once(tmp_path / "two")
    for name, data in first.items():
        assert len(data) > 0, name
        assert data == second[name], f"{name} differs between two demo runs"
    sizes = ", ".join(f"{name} {len(data)} B" for name, data in first.items())
    ok(6, f"two demo executions wrote byte-identical run directories ({sizes})")


# --- 7 and 8: the closed world ---------------------------------------------


@pytest.mark.scheduling
def test_criterion_07_pass_rate_lift():
    started = time.perf_counter()
    initial_rates = []
    final_rates = []
    for trial in range(20):
        cfg = EvolutionConfig(
            population_size=10, offspring_count=10, max_generations=10,
            elite_per_metric=1, rng_seed=trial,
        )
        history = run_at_one_and_four_workers(cfg, lambda: ClosedWorld(1000 + trial))[0].history
        initial_rates.append(history[0].success_count / 10.0)
        final_rates.append(history[-1].success_count / 10.0)
    mean_initial = sum(initial_rates) / len(initial_rates)
    mean_final = sum(final_rates) / len(final_rates)
    lift = (mean_final - mean_initial) * 100.0
    elapsed = time.perf_counter() - started
    assert lift >= 20.0, (mean_initial, mean_final)
    assert elapsed < 30.0
    ok(7, f"mean pass rate {mean_initial:.0%} -> {mean_final:.0%} (+{lift:.0f}pp) over 20 runs "
          f"at 1 and at 4 workers, {elapsed:.1f}s")


@pytest.mark.scheduling
def test_criterion_08_evolution_beats_sampling():
    wins = 0
    for trial in range(20):
        evo_cfg = EvolutionConfig(
            population_size=10, offspring_count=10, max_generations=9,
            elite_per_metric=1, rng_seed=trial,
        )  # 10 + 9 x 10 = 100 evaluations
        evolved = run_at_one_and_four_workers(evo_cfg, lambda: ClosedWorld(2000 + trial))[0].history
        sample_cfg = EvolutionConfig(
            population_size=100, offspring_count=1, max_generations=1,
            elite_per_metric=0, rng_seed=trial,
        )
        # 100 independent first-draft evaluations
        [record] = run_at_one_and_four_workers(
            sample_cfg, lambda: ClosedWorld(3000 + trial), initialize_only=True
        )[0].history
        sample_best = max(ind.fitness for ind in record.population)
        if evolved[-1].best_so_far.fitness > sample_best:
            wins += 1
    assert wins >= 15, wins
    ok(8, f"evolution beat 100 independent samples in {wins}/20 trials at equal budget, "
          "at 1 and at 4 workers")


# --- 9: parsing robustness ----------------------------------------------------


def test_criterion_09_response_parsing():
    rng = random.Random(88)
    snippets = [
        "assign y = a & b;",
        "always @(posedge clk) q <= d;",
        "wire [3:0] partial;\n  assign partial = x ^ y;",
    ]
    for i in range(50):
        thought = f"variant {i}: " + " ".join(
            rng.choice(["balance", "reuse", "pipeline", "flatten", "share"])
            for _ in range(rng.randrange(2, 6))
        )
        code = f"module m_{i}(input a, b, output y);\n  {rng.choice(snippets)}\nendmodule"
        language = rng.choice(["verilog", "systemverilog", ""])
        text = render_response(thought, code, language=language)
        if rng.random() < 0.4:
            text += "\nSome trailing commentary the model added."
        thought_back, code_back = parse_llm_response(text)
        assert thought_back == thought
        assert code_back == code

    with pytest.raises(ParseError, match="no fenced code block"):
        parse_llm_response("I think the design should use a ripple carry.")

    with pytest.raises(ParseError, match="code block is empty"):
        parse_llm_response("## Thought\nok\n\n## Code\n```verilog\n\n```\n")

    # missing thought section degrades instead of failing
    thought, code = parse_llm_response("```verilog\nmodule t; endmodule\n```")
    assert code == "module t; endmodule"
    assert thought == FALLBACK_THOUGHT
    ok(9, "50 round-trips exact; no_code and empty_code raised; missing thought degraded")


# --- 10: real toolchain integration ------------------------------------------

_TOOLS_PRESENT = all(shutil.which(t) for t in ("iverilog", "vvp", "yosys"))


@pytest.mark.skipif(
    not _TOOLS_PRESENT,
    reason="iverilog/vvp/yosys not installed; RTL toolchain integration not runnable here",
)
def test_criterion_10_real_toolchain_integration(tmp_path):
    golden = (FIXTURES / "add2.v").read_text(encoding="utf-8")
    testbench = (FIXTURES / "tb_add2.v").read_text(encoding="utf-8")
    liberty = FIXTURES / "toy.lib"
    clock = 1.0

    spec = ProblemSpec(
        name="add2",
        description="a two bit adder",
        testbench=testbench,
        reference_ppa=REF,
        circuit_kind=CircuitKind.COMBINATIONAL,
        target_clock_period=clock,
    )
    synth = (
        'yosys -p "read_verilog {code_file}; synth; '
        "dfflibmap -liberty {liberty}; abc -liberty {liberty}; "
        'write_verilog {out_netlist}; stat -liberty {liberty}" > {out_report} 2>&1'
        " && echo \"Total power: $(grep -cE 'NAND2|NOR2|INV|DFF' {out_netlist}).0e-3\""
        " >> {out_report}"
        ' && echo "Worst slack: 0.25" >> {out_report}'
    )
    cfg = ToolchainConfig(
        synthesizer_command=synth,
        liberty_path=str(liberty),
        per_stage_timeout=60.0,
    )
    evaluator = ToolchainEvaluator(cfg, artifacts_dir=tmp_path)
    outcome = evaluator.outcome_for(golden, spec, individual_id=0)
    assert outcome.sim_passed, outcome.sim_log
    assert outcome.synth_succeeded, outcome.synth_log
    assert outcome.ppa is not None, outcome.synth_log
    assert outcome.ppa.area > 0
    assert outcome.ppa.power > 0
    slack_match = re.search(cfg.slack_pattern, outcome.synth_log)
    assert slack_match is not None
    slack = float(slack_match.group(1))
    assert abs(outcome.ppa.effective_clock_period - (clock - slack)) <= 1e-6
    ok(10, "golden adder flowed through iverilog+yosys; PPA positive; period = clock - slack")
