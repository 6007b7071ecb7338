"""One workload run in a fresh process, so that its set-up time and peak
memory belong to it alone.

    PYTHONPATH=src python3 bench/child.py SPEC_JSON

SPEC_JSON names the workload, its seeds and sizes, and an output directory.
The child optionally installs tracing, runs the workload through
`rtlevo run` (cli.main, in this process), times the engine itself, checks
the run directory it wrote, and writes result.json (plus spans.jsonl when
traced) into the output directory. Start-up ends at the first provider call; for an
HTTP run the stub in the parent process sees that call, so the child
reports only what it can see itself.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import io
import json
import logging
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import yaml
from rtlevo import cli, reporting
from rtlevo.evaluate import SyntheticEvaluator
from rtlevo.evolution import PLACEHOLDER_CODE, EvolutionEngine
from rtlevo.llm import CompletionResult

import tracing
from world import World, token_count

PROBLEM = {
    "name": "add2",
    "description": (
        "Design a 2-bit unsigned adder named add2 with ports a[1:0], b[1:0] and "
        "sum[2:0]; sum must equal a + b for all 16 input combinations."
    ),
    "circuit_kind": "combinational",
    "target_clock_period": 0.01,
    "reference_ppa": {"power": 1.0, "area": 100.0, "effective_clock_period": 1.0},
}


class WorldProvider:
    """In-process provider answering from a World with zero latency."""

    def __init__(self, world: World):
        self.world = world
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0
        self.first_call: float | None = None

    def complete(self, bundle) -> CompletionResult:
        if self.first_call is None:
            self.first_call = time.monotonic()
        reply = self.world.reply(bundle.system_text, bundle.user_text)
        usage = {
            "prompt_tokens": token_count(bundle.system_text) + token_count(bundle.user_text),
            "completion_tokens": token_count(reply.text),
        }
        usage["total_tokens"] = usage["prompt_tokens"] + usage["completion_tokens"]
        self.calls += 1
        self.prompt_tokens += usage["prompt_tokens"]
        self.completion_tokens += usage["completion_tokens"]
        return CompletionResult(text=reply.text, usage=usage)


class LogEvaluator:
    """SyntheticEvaluator verdicts and PPA, with its sim and synth logs
    padded to `log_bytes` each, as a real simulator's and synthesizer's
    transcripts would be."""

    def __init__(self, log_bytes: int):
        self._inner = SyntheticEvaluator()
        self._log_bytes = log_bytes

    def _pad(self, head: str, code: str) -> str:
        if not self._log_bytes:
            return head
        tag = hashlib.sha256(code.encode()).hexdigest()[:12]
        lines = [head]
        size = len(head)
        cycle = 0
        while size < self._log_bytes:
            line = f"{cycle:06d} {tag} a={cycle & 3} b={(cycle >> 2) & 3} sum={(cycle & 3) + ((cycle >> 2) & 3)} ok"
            lines.append(line)
            size += len(line) + 1
            cycle += 1
        return "\n".join(lines)

    # simulate and synthesize are methods of their own so that a traced
    # run times them as the sim and synth stages
    def simulate(self, log: str, code: str) -> str:
        return self._pad(log, code)

    def synthesize(self, log: str, code: str) -> str:
        return self._pad(log, code)

    def outcome_for(self, code, spec, individual_id=0):
        base = self._inner.outcome_for(code, spec, individual_id)
        sim_log = self.simulate(base.sim_log, code)
        synth_log = self.synthesize(base.synth_log, code) if base.sim_passed else base.synth_log
        return dataclasses.replace(base, sim_log=sim_log, synth_log=synth_log)

    def reference_ppa(self, code):
        return self._inner.reference_ppa(code)


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def _report_digest_without_timings(path: Path) -> str | None:
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("timings", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _check_records(run_dir: Path, n: int, lam: int, g: int) -> list[str]:
    """Problems with the history read back, or [] when it is sound."""
    records = reporting.read_generations(run_dir)
    problems = []
    if len(records) != g + 1:
        problems.append(f"{len(records)} generation records, expected {g + 1}")
    created = list(records[0].population) + [i for r in records[1:] for i in r.offspring]
    ids = [ind.id for ind in created]
    if len(set(ids)) != len(ids) or len(ids) != n + g * lam:
        problems.append(f"{len(set(ids))} unique ids over {len(ids)} individuals, expected {n + g * lam}")
    if any(ind.outcome is None or ind.fitness is None for ind in created):
        problems.append("an individual was never evaluated")
    return problems


def _history_distinct_ratio(path: Path) -> float:
    """Bytes of each individual serialized once, over the history's bytes."""
    seen: dict[int, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            record = json.loads(line)
            for ind in [*record["population"], *record["offspring"], record["best_so_far"]]:
                if ind is not None and ind["id"] not in seen:
                    seen[ind["id"]] = len(json.dumps(ind, sort_keys=True).encode())
    return sum(seen.values()) / path.stat().st_size


def _summarize(run_dir: Path, history, engine_s, generations_s) -> dict:
    created = list(history[0].population) + [i for r in history[1:] for i in r.offspring]
    evaluated = [ind for ind in created if ind.code != PLACEHOLDER_CODE]
    n = len(history[0].population)
    best = history[-1].best_so_far
    return {
        "individuals": len(created),
        "evaluated": len(evaluated),
        "passed": sum(1 for ind in evaluated if ind.outcome.sim_passed),
        "tool_stages": len(evaluated) + sum(1 for ind in evaluated if ind.outcome.sim_passed),
        "tool_stages_failed": sum(
            1
            for ind in evaluated
            if "TIMEOUT:" in ind.outcome.sim_log
            or (ind.outcome.sim_passed and not ind.outcome.synth_succeeded)
        ),
        "best_fitness": best.fitness if best is not None else None,
        "initial_pass_rate": history[0].success_count / n,
        "final_pass_rate": history[-1].success_count / n,
        "engine_s": engine_s,
        "generations_s": generations_s,
        "digests": {
            "generations": _digest(run_dir / reporting.GENERATIONS_FILE),
            "transcripts": _digest(run_dir / reporting.TRANSCRIPTS_FILE),
            "final_report": _digest(run_dir / reporting.FINAL_REPORT_FILE),
            "final_report_without_timings": _report_digest_without_timings(
                run_dir / reporting.FINAL_REPORT_FILE
            ),
        },
    }


def _transcript_errors(run_dir: Path) -> tuple[int, int]:
    entries = errors = 0
    path = run_dir / reporting.TRANSCRIPTS_FILE
    if path.is_file():
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                entries += 1
                errors += json.loads(line).get("error") is not None
    return entries, errors


def _report(run_dir: Path) -> float:
    """Time of one `rtlevo report RUN_DIR` call, discarding its text."""
    started = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = cli.main(["report", str(run_dir)])
    elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"rtlevo report exited {code}")
    return elapsed


class EngineClock:
    """Times EvolutionEngine.initialize and run_generation, and keeps what
    EvolutionEngine.result returns, whoever drives the engine."""

    def __init__(self):
        self.calls: list[tuple[float, float]] = []
        self.result = None
        for attr in ("initialize", "run_generation", "result"):
            self._wrap(attr)

    def _wrap(self, attr: str) -> None:
        original = getattr(EvolutionEngine, attr)
        clock = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            value = original(*args, **kwargs)
            if attr == "result":
                clock.result = value
            else:
                clock.calls.append((started, time.perf_counter()))
            return value

        setattr(EvolutionEngine, attr, timed)

    def take(self):
        """(result, engine_s, generations_s) of the run since the last take.
        engine_s runs from the start of initialize to the end of the last
        generation."""
        calls, result = self.calls, self.result
        self.calls, self.result = [], None
        return result, calls[-1][1] - calls[0][0], [end - start for start, end in calls[1:]]


def _config_text(spec: dict, seed: int, run_dir: Path) -> str:
    raw = {
        "problem": PROBLEM,
        "evolution": {
            "population_size": spec["population"],
            "offspring_count": spec["population"],
            "max_generations": spec["generations"],
            "rng_seed": seed,
            "max_parallel_evaluations": spec["lanes"],
        },
        "output_dir": str(run_dir),
    }
    if spec["workload"] == "wait_bound":
        raw["provider"] = {
            "kind": "http",
            "endpoint_url": spec["endpoint"],
            "model_name": "bench-stub",
            "api_key_env_var": "RTLEVO_BENCH_API_KEY",
            "max_parallel_requests": spec["lanes"],
            "request_timeout": 30,
        }
        raw["evaluator"] = spec["toolchain"]
    else:
        raw["provider"] = {"kind": "scripted", "script_file": "unused-script.yaml"}
        raw["evaluator"] = {"kind": "synthetic"}
    return yaml.safe_dump(raw, sort_keys=True)


def run_workload(spec: dict, seed: int, out: Path, clock: EngineClock) -> dict:
    """`rtlevo run` through cli.main, then `rtlevo report`. Off wait_bound
    the scripted provider is a WorldProvider and the evaluator a
    LogEvaluator, swapped in at the names cmd_run looks up; cmd_run still
    wraps the provider in its own TranscriptingProvider."""
    run_dir = out / f"run-{seed}"
    config_path = out / f"config-{seed}.yaml"
    config_path.write_text(_config_text(spec, seed, run_dir), encoding="utf-8")
    service = None
    if spec["workload"] != "wait_bound":
        (out / "unused-script.yaml").write_text("- {match: 'purpose:none', response: unused}\n")
        service = WorldProvider(World(seed, spec["malformed"], spec["unchanged"]))
        cli.ScriptedProvider.from_file = staticmethod(lambda path: service)
        cli._build_evaluator = lambda cfg, workdir_root: LogEvaluator(spec["log_bytes"])
    exit_code = cli.main(["run", "--config", str(config_path)])
    if exit_code == cli.EXIT_ABORT:
        raise RuntimeError("rtlevo run aborted; see the error above")
    result, engine_s, generations_s = clock.take()
    run = _summarize(run_dir, result.history, engine_s, generations_s)
    run["exit_code"] = exit_code
    if service is not None:
        run.update(
            first_call=service.first_call,
            llm_calls=service.calls,
            prompt_tokens=service.prompt_tokens,
            completion_tokens=service.completion_tokens,
            shares=service.world.shares(),
        )
    del result
    gc.collect()
    run["run_dir_bytes"] = sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
    run["transcript_entries"], run["provider_failed"] = _transcript_errors(run_dir)
    run["generations_bytes"] = (run_dir / reporting.GENERATIONS_FILE).stat().st_size
    run["transcripts_bytes"] = (run_dir / reporting.TRANSCRIPTS_FILE).stat().st_size
    if spec["check_records"]:
        run["problems"] = _check_records(
            run_dir, spec["population"], spec["population"], spec["generations"]
        )
    if spec["trace"]:
        run["history_distinct_ratio"] = _history_distinct_ratio(
            run_dir / reporting.GENERATIONS_FILE
        )
    run["report_s"] = _report(run_dir)
    return run


def main() -> int:
    spec = json.loads(sys.argv[1])
    out = Path(spec["out"])
    # installed before the tracer, so that a traced generation span encloses it
    clock = EngineClock()
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        tracing.install(tracer, LogEvaluator, WorldProvider)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    runs = []
    for seed in spec["seeds"]:
        if tracer is not None:
            tracer.run_id = f"{out.name}/run-{seed}"
        runs.append(run_workload(spec, seed, out, clock))
    result = {"runs": runs, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.write(out / "spans.jsonl")
        result["layers"] = tracing.layer_totals(tracer.spans, spec["lanes"])
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
