"""Span tracing installed from outside the program, and per-layer metrics.

`install` replaces functions at the names their callers look up (module
globals such as `rtlevo.evolution.evaluate`, and class attributes such as
`HttpChatProvider.complete`) with wrappers that record one span per call.
Spans carry a name, start, end, parent span, thread and run id; they stay
in memory until `write` dumps them as JSON lines at the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        # set by the caller before each run; spans of one run share it
        self.run_id = ""
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[dict] = []

    def _stack(self) -> list[dict]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a pool worker's first span belongs to whatever the engine thread is
        # blocked in, which is the generation that fanned the work out
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "name": name,
            "run": self.run_id,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
            "error": None,
        }
        stack.append(record)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner, attr: str, name, describe=None) -> None:
        """Trace every call of `owner.attr`. `name` is a span name or a
        function of the call's arguments; `describe(args, result)` returns
        extra fields for the span."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name(args) if callable(name) else name) as record:
                result = original(*args, **kwargs)
                if describe is not None:
                    record.update(describe(args, result))
                return result

        setattr(owner, attr, traced)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _llm_name(args) -> str:
    return "llm.draft" if args[1].purpose == "generate" else "llm.feedback"


def _llm_fields(args, result) -> dict:
    bundle = args[1]
    return {
        "prompt_chars": len(bundle.system_text) + len(bundle.user_text),
        "attempts": result.attempt_count,
    }


def _outcome_fields(args, result) -> dict:
    code = args[1]
    return {
        "code_sha": hashlib.sha256(code.encode()).hexdigest()[:16],
        "log_bytes": len(result.sim_log.encode()) + len(result.synth_log.encode()),
    }


def install(tracer: Tracer, bench_evaluator, bench_provider) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    # `rtlevo.evaluate` and friends are shadowed by the package's re-exported
    # functions, so fetch the modules themselves
    cli, config, evaluate, evolution, llm, reporting = (
        importlib.import_module(f"rtlevo.{name}")
        for name in ("cli", "config", "evaluate", "evolution", "llm", "reporting")
    )

    for attr in ("initialize", "run_generation"):
        tracer.wrap(evolution.EvolutionEngine, attr, "evolution.generation")
    for attr in ("build_initial_prompt", "build_evolutionary_prompt"):
        tracer.wrap(evolution, attr, "prompts.build")
    tracer.wrap(evolution, "parse_llm_response", "prompts.parse")
    tracer.wrap(evolution, "select_strategy", "bandit.select")
    tracer.wrap(evolution, "record_reward", "bandit.reward")
    tracer.wrap(evolution, "evaluate", "evaluate.slot")
    tracer.wrap(evolution, "survivor_select", "evolution.survivor_select")
    tracer.wrap(evaluate, "simulate", "evaluate.sim")
    tracer.wrap(evaluate, "synthesize", "evaluate.synth")
    tracer.wrap(evaluate, "generate_feedback", "evaluate.feedback")
    tracer.wrap(evaluate, "fitness_of", "fitness")
    for evaluator_cls in (evaluate.ToolchainEvaluator, bench_evaluator):
        tracer.wrap(evaluator_cls, "__init__", "evaluate.setup")
        tracer.wrap(evaluator_cls, "outcome_for", "evaluate.outcome", _outcome_fields)
    tracer.wrap(bench_evaluator, "simulate", "evaluate.sim")
    tracer.wrap(bench_evaluator, "synthesize", "evaluate.synth")
    for provider_cls in (llm.HttpChatProvider, llm.TranscriptingProvider):
        tracer.wrap(provider_cls, "complete", _llm_name, _llm_fields)
    tracer.wrap(bench_provider, "complete", "llm.service")
    tracer.wrap(llm.TranscriptWriter, "record", "reporting.transcript")
    for module in (cli, reporting):
        tracer.wrap(module, "append_generation", "reporting.append")
    tracer.wrap(cli, "read_generations", "reporting.read")
    tracer.wrap(cli, "render_report", "reporting.render")
    for module in (cli, config):
        tracer.wrap(module, "load_config", "config.load")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        inside = [
            (max(a, s["start"]), min(b, s["end"]))
            for a, b in children.get(s["id"], ())
            if b > s["start"] and a < s["end"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - _union_length(inside)
    return out


def layer_totals(spans: list[dict], lanes: int) -> dict[str, float]:
    """Totals over one process's spans; the caller divides by run count.

    `lanes` is the configured evaluation concurrency. Generation wall time
    is accounted as the engine thread's self time plus, for the evaluation
    fan-out, (worker self time + barrier idle) / lanes.
    """
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def generation_of(span):
        while span is not None and span["name"] != "evolution.generation":
            span = by_id.get(span["parent"])
        return span

    t: dict[str, float] = {}

    def add(key, value):
        t[key] = t.get(key, 0.0) + value

    slots: dict[int, list[dict]] = {}
    serial: dict[int, float] = {}
    parallel: dict[int, float] = {}
    code_shas = []
    for s in spans:
        name = s["name"]
        duration = s["end"] - s["start"]
        add(f"{name}.calls", 1)
        add(f"{name}.busy_s", duration)
        add(f"{name}.self_s", own[s["id"]])
        if s["error"]:
            add(f"{name}.failed", 1)
        if name in ("llm.draft", "llm.feedback"):
            # a call that raised carries no fields; it made at least one attempt
            add("llm.attempts", s.get("attempts", 1))
            add("prompts.prompt_chars", s.get("prompt_chars", 0))
        if name == "evaluate.outcome":
            code_shas.append(s["code_sha"])
            add("evaluate.log_bytes", s["log_bytes"])
        gen = generation_of(s)
        if gen is None:
            continue
        if s["thread"] == gen["thread"]:
            serial[gen["id"]] = serial.get(gen["id"], 0.0) + own[s["id"]]
        else:
            parallel[gen["id"]] = parallel.get(gen["id"], 0.0) + own[s["id"]]
            if name == "evaluate.slot":
                slots.setdefault(gen["id"], []).append(s)

    idle_total = accounted = 0.0
    for gen in (s for s in spans if s["name"] == "evolution.generation"):
        idle = 0.0
        fanned = slots.get(gen["id"])
        if fanned:
            phase_end = max(s["end"] for s in fanned)
            phase_start = min(s["start"] for s in fanned)
            last_end: dict[int, float] = {}
            for s in fanned:
                last_end[s["thread"]] = max(last_end.get(s["thread"], 0.0), s["end"])
            idle = sum(phase_end - end for end in last_end.values())
            idle += max(lanes - len(last_end), 0) * (phase_end - phase_start)
        idle_total += idle
        accounted += serial.get(gen["id"], 0.0)
        accounted += (parallel.get(gen["id"], 0.0) + idle) / (lanes if fanned else 1)
    t["evolution.barrier_idle_s"] = idle_total
    t["trace.accounted_s"] = accounted
    t["evaluate.codes"] = len(code_shas)
    t["evaluate.distinct_codes"] = len(set(code_shas))
    return t
