"""rtlevo benchmark: one command per workload, end-to-end or per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/` and
`bench/`); it needs nothing built or installed beyond the program's own
dependencies. Each workload run happens in a fresh child process
(bench/child.py), repeated until S seconds have passed, and every input is
derived from --seed. The last line of standard output is one JSON object:
with --trace 0 it carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The lines above it print every metric
with its unit, the work each run did, and the output checks. See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from stub import ChatStub  # noqa: E402
from world import World  # noqa: E402

CHILD_TIMEOUT_S = 150.0
# Stop starting repeats once the run has used this much of its 180 s limit.
HARD_LIMIT_S = 120.0
PASS_RATE_LIFT_MIN = 0.20
# set-up samples whose median is setup_s
MIN_SETUPS = 5


@dataclass(frozen=True)
class Workload:
    why: str
    population: int
    generations: int
    lanes: int
    seeds_per_child: int
    # repeats every run makes at least, however long they take
    min_repeats: int = 3
    log_bytes: int = 0
    malformed: float = 0.0
    unchanged: float = 0.0
    # a fresh seed per repeat (True) or the same inputs in every repeat
    fresh_seed_per_repeat: bool = False
    http: bool = False


WORKLOADS = {
    "wait_bound": Workload(
        why="rtlevo run over HTTP and stub tools with modelled latency: waits dominate",
        population=10,
        generations=19,
        lanes=2,
        seeds_per_child=1,
        min_repeats=1,
        malformed=0.05,
        # assumed, not measured: no cache gain can be claimed from this share
        unchanged=0.15,
        fresh_seed_per_repeat=True,
        http=True,
    ),
    "history_heavy": Workload(
        why="zero latency, N=50 for 50 generations, 24 KB of logs per individual",
        population=50,
        generations=50,
        lanes=1,
        seeds_per_child=1,
        log_bytes=12 * 1024,
    ),
    "search_quality": Workload(
        why="20 seeds of the closed world at N=10, G=9: search quality per LLM call",
        population=10,
        generations=9,
        lanes=1,
        seeds_per_child=20,
    ),
}

# name -> (unit, better). Printed for every workload; metrics that cannot
# exist on a workload are printed as n/a with the reason.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "individuals_per_s": ("1/s", "higher"),
    "generation_s_p50": ("s", "lower"),
    "generation_s_p90": ("s", "lower"),
    "critical_path_efficiency": ("ratio", "higher"),
    "report_s": ("s", "lower"),
    "run_dir_bytes": ("bytes", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "best_fitness_mean": ("fitness", "higher"),
    "final_pass_rate_mean": ("ratio", "higher"),
    "llm_calls_per_run": ("count", "lower"),
    "llm_tokens_per_run": ("tokens", "lower"),
    "ops_failed_ratio": ("ratio", "lower"),
}
# Reported in the result line. The other three are printed only (see
# bench/README.md): critical_path_efficiency exists only with modelled
# latency, ops_failed_ratio is zero by design, and report_s of a few ms on
# wait_bound swings with the host's CPU speed beyond any bound.
GATED = [
    name
    for name in END_TO_END
    if name not in ("critical_path_efficiency", "ops_failed_ratio", "report_s")
]

PER_LAYER = {
    "llm.draft.calls": "count",
    "llm.feedback.calls": "count",
    "llm.draft.busy_s": "s",
    "llm.feedback.busy_s": "s",
    "llm.queue_s": "s",
    "llm.in_flight_mean": "count",
    "llm.prompt_tokens": "tokens",
    "llm.completion_tokens": "tokens",
    "llm.attempts": "count",
    "llm.failed": "count",
    "prompts.build.self_s": "s",
    "prompts.parse.self_s": "s",
    "prompts.parse_failed_ratio": "ratio",
    "prompts.prompt_chars_mean": "chars",
    "evaluate.sim.calls": "count",
    "evaluate.sim.busy_s": "s",
    "evaluate.synth.calls": "count",
    "evaluate.synth.busy_s": "s",
    "evaluate.in_flight_mean": "count",
    "evaluate.distinct_code_ratio": "ratio",
    "evaluate.log_bytes": "bytes",
    "evaluate.feedback.self_s": "s",
    "evaluate.preflight_s": "s",
    "fitness.self_s": "s",
    "bandit.self_s": "s",
    "evolution.self_s": "s",
    "evolution.survivor_select.self_s": "s",
    "evolution.barrier_idle_s": "s",
    "reporting.append.busy_s": "s",
    "reporting.append.bytes": "bytes",
    "reporting.transcript.busy_s": "s",
    "reporting.transcript.bytes": "bytes",
    "reporting.history_distinct_ratio": "ratio",
    "reporting.read.busy_s": "s",
    "reporting.render.busy_s": "s",
    "config.load_s": "s",
    "world.malformed_share": "ratio",
    "world.unchanged_share": "ratio",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_individuals_per_s": "1/s",
}


def derive_seed(*parts) -> int:
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _toolchain(out: Path) -> dict:
    stage_log = shlex.quote(str(out / "stages.log"))
    sim = shlex.quote(str(BENCH_DIR / "sim.sh"))
    synth = shlex.quote(str(BENCH_DIR / "synth.sh"))
    return {
        "kind": "toolchain",
        "simulator_command": f"sh {sim} {{code_file}} {stage_log}",
        "synthesizer_command": f"sh {synth} {{code_file}} {{out_report}} {stage_log}",
        "workdir_root": str(out / "work"),
        "per_stage_timeout": 30,
    }


def _launch(root: Path, out: Path, spec: dict, stub: ChatStub | None, world: World | None):
    """Start one workload repeat in a fresh process in its own session.
    Returns the process, its launch time and its open log file."""
    out.mkdir(parents=True)
    (out / "tmp").mkdir()
    spec = {**spec, "out": str(out)}
    if stub is not None:
        stub.reset(world)
        spec["endpoint"] = stub.url
        spec["toolchain"] = _toolchain(out)
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")])),
        RTLEVO_BENCH_API_KEY="stub-key",
        NO_PROXY="127.0.0.1,localhost",
        TMPDIR=str(out / "tmp"),
    )
    log = (out / "child.log").open("wb")
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        cwd=root,
        env=env,
        stdout=log,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    return proc, launched, log


def _stop(proc: subprocess.Popen) -> None:
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def run_child(root: Path, out: Path, spec: dict, stub: ChatStub | None, world: World | None) -> dict:
    """Run one workload repeat in a fresh process and return its result,
    with set-up time and stub records added. The last traced repeat's spans
    are kept as spans.jsonl next to `out`; `out` itself is removed."""
    proc, launched, log = _launch(root, out, spec, stub, world)
    with log:
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _stop(proc)
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = (out / "child.log").read_text(errors="replace")[-3000:]
        raise RuntimeError(f"workload child failed (exit {proc.returncode}):\n{tail}")
    result = json.loads(result_path.read_text())
    if stub is not None:
        records = stub.records()
        result["stub"] = records
        result["shares"] = world.shares()
        result["setup_s"] = min(r["arrived"] for r in records) - launched
        stages = (out / "stages.log").read_text().split()
        result["stages"] = {"sim": [], "synth": []}
        for kind, micros in zip(stages[::2], stages[1::2]):
            result["stages"][kind].append(int(micros) / 1e6)
    else:
        result["setup_s"] = result["runs"][0]["first_call"] - launched
        result["shares"] = result["runs"][0]["shares"]
    spans = out / "spans.jsonl"
    if spans.is_file():
        spans.replace(out.parent / "spans.jsonl")
    # removed before the next repeat, so that the dirty pages of one run's
    # files never reach the kernel's writeback thresholds and slow the next
    shutil.rmtree(out)
    return result


def probe_setup(root: Path, out: Path, spec: dict, stub: ChatStub, world: World) -> float:
    """Set-up time of a repeat that is stopped as soon as its first
    provider call reaches the stub."""
    proc, launched, log = _launch(root, out, spec, stub, world)
    with log:
        arrived = stub.first_arrival(CHILD_TIMEOUT_S)
        exit_code = proc.poll()
        _stop(proc)
    if arrived is None:
        tail = (out / "child.log").read_text(errors="replace")[-3000:]
        raise RuntimeError(f"set-up probe made no provider call (exit {exit_code}):\n{tail}")
    shutil.rmtree(out)
    return arrived - launched


def _spec(args, workload: Workload, seeds: list[int], traced: bool, check_records: bool) -> dict:
    return {
        "workload": args.workload,
        "seeds": seeds,
        "population": workload.population,
        "generations": workload.generations,
        "lanes": workload.lanes,
        "log_bytes": workload.log_bytes,
        "malformed": workload.malformed,
        "unchanged": workload.unchanged,
        "trace": traced,
        "check_records": check_records,
    }


def measure(args, workload: Workload, root: Path, scratch: Path) -> tuple[list[dict], list[float]]:
    """(repeats, set-up times). With the stub, probes add set-up samples
    until there are MIN_SETUPS, since a wait_bound repeat is too long to
    fit several into one run."""
    started = time.monotonic()
    repeats = []
    # a traced run alternates traced and untraced repeats
    min_repeats = 2 if args.trace else workload.min_repeats
    with ChatStub() if workload.http else contextlib.nullcontext() as stub:
        while True:
            k = len(repeats)
            traced = bool(args.trace) and k % 2 == 0
            index = k // 2 if args.trace else k
            seeds = [
                derive_seed(args.seed, args.workload, index if workload.fresh_seed_per_repeat else 0, i)
                for i in range(workload.seeds_per_child)
            ]
            spec = _spec(args, workload, seeds, traced, workload.fresh_seed_per_repeat or k < 2)
            world = World(seeds[0], workload.malformed, workload.unchanged) if stub else None
            result = run_child(root, scratch / f"repeat-{k:03d}", spec, stub, world)
            result["traced"] = traced
            repeats.append(result)
            elapsed = time.monotonic() - started
            per_repeat = elapsed / len(repeats)
            if len(repeats) >= min_repeats and elapsed + per_repeat > args.seconds:
                break
            if elapsed + per_repeat > HARD_LIMIT_S:
                break
        setups = [r["setup_s"] for r in repeats]
        while stub is not None and len(setups) < MIN_SETUPS:
            seed = derive_seed(args.seed, args.workload, "probe", len(setups))
            world = World(seed, workload.malformed, workload.unchanged)
            spec = _spec(args, workload, [seed], False, False)
            setups.append(probe_setup(root, scratch / f"probe-{len(setups):03d}", spec, stub, world))
    return repeats, setups


def _ops(repeat: dict) -> tuple[int, int]:
    """(attempted, failed) provider calls, tool stages and runs. A run that
    aborts stops the benchmark in the child, so runs here never failed."""
    attempted = failed = 0
    for run in repeat["runs"]:
        attempted += 1 + run["transcript_entries"] + run["tool_stages"]
        failed += run["provider_failed"] + run["tool_stages_failed"]
    return attempted, failed


def _llm_counts(repeat: dict) -> tuple[int, int]:
    """(calls, tokens) summed over the repeat's runs."""
    if "stub" in repeat:
        records = repeat["stub"]
        return len(records), sum(r["total_tokens"] for r in records)
    runs = repeat["runs"]
    return (
        sum(r["llm_calls"] for r in runs),
        sum(r["prompt_tokens"] + r["completion_tokens"] for r in runs),
    )


def end_to_end(workload: Workload, repeats: list[dict], setups: list[float]) -> tuple[dict, int, int, int]:
    """(metrics, ops attempted, ops failed, generation samples).

    Timings are medians over untraced repeats. Counts and quality come from
    the first untraced repeat, whose inputs every run of this seed shares:
    wait_bound takes a new seed per repeat, so a faster program that fits
    in more repeats still reports quality over the same inputs."""
    plain = [r for r in repeats if not r["traced"]]
    quality_runs = plain[0]["runs"]
    llm_calls, llm_tokens = _llm_counts(plain[0])
    generation_s = [g for r in plain for run in r["runs"] for g in run["generations_s"]]
    m = {
        "setup_s": statistics.median(setups),
        "individuals_per_s": statistics.median(
            sum(run["individuals"] for run in r["runs"]) / sum(run["engine_s"] for run in r["runs"])
            for r in plain
        ),
        "generation_s_p50": statistics.median(generation_s),
        "generation_s_p90": statistics.quantiles(generation_s, n=10, method="inclusive")[-1],
        "report_s": statistics.median(
            statistics.mean(run["report_s"] for run in r["runs"]) for r in plain
        ),
        "run_dir_bytes": statistics.median(
            statistics.mean(run["run_dir_bytes"] for run in r["runs"]) for r in plain
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "best_fitness_mean": statistics.mean(run["best_fitness"] for run in quality_runs),
        "final_pass_rate_mean": statistics.mean(run["final_pass_rate"] for run in quality_runs),
        "llm_calls_per_run": llm_calls / len(quality_runs),
        "llm_tokens_per_run": llm_tokens / len(quality_runs),
    }
    if workload.http:
        # lower bound on any schedule of the modelled calls at the configured
        # concurrency, ignoring the generation barrier and slot order
        m["critical_path_efficiency"] = statistics.median(
            (sum(x["modelled_s"] for x in r["stub"]) + sum(r["stages"]["sim"]) + sum(r["stages"]["synth"]))
            / workload.lanes
            / sum(run["engine_s"] for run in r["runs"])
            for r in plain
        )
    attempted = sum(_ops(r)[0] for r in repeats)
    failed = sum(_ops(r)[1] for r in repeats)
    m["ops_failed_ratio"] = failed / attempted
    return m, attempted, failed, len(generation_s)


def per_layer(workload: Workload, repeats: list[dict]) -> dict:
    """Per-run means over the traced repeats."""
    traced = [r for r in repeats if r["traced"]]
    plain = [r for r in repeats if not r["traced"]]
    runs = sum(len(r["runs"]) for r in traced)
    t: dict[str, float] = {}
    for r in traced:
        for key, value in r["layers"].items():
            t[key] = t.get(key, 0.0) + value
    generation_wall = t.get("evolution.generation.busy_s", 0.0)
    client_s = t.get("llm.draft.busy_s", 0.0) + t.get("llm.feedback.busy_s", 0.0)
    if workload.http:
        service_s = sum(x["ended"] - x["arrived"] for r in traced for x in r["stub"])
        prompt_tokens = sum(x["prompt_tokens"] for r in traced for x in r["stub"])
        completion_tokens = sum(x["completion_tokens"] for r in traced for x in r["stub"])
    else:
        service_s = t.get("llm.service.busy_s", 0.0)
        prompt_tokens = sum(run["prompt_tokens"] for r in traced for run in r["runs"])
        completion_tokens = sum(run["completion_tokens"] for r in traced for run in r["runs"])
    parses = t.get("prompts.parse.calls", 0.0)
    draft_calls = t.get("llm.draft.calls", 0.0)
    feedback_calls = t.get("llm.feedback.calls", 0.0)

    def ips(rs):
        return statistics.median(
            sum(run["individuals"] for run in r["runs"]) / sum(run["engine_s"] for run in r["runs"])
            for r in rs
        )

    layer_sum = {
        "llm.draft.calls": draft_calls,
        "llm.feedback.calls": feedback_calls,
        "llm.draft.busy_s": t.get("llm.draft.busy_s", 0.0),
        "llm.feedback.busy_s": t.get("llm.feedback.busy_s", 0.0),
        "llm.queue_s": client_s - service_s,
        "llm.prompt_tokens": prompt_tokens,
        "llm.completion_tokens": completion_tokens,
        "llm.attempts": t.get("llm.attempts", 0.0),
        "llm.failed": t.get("llm.draft.failed", 0.0) + t.get("llm.feedback.failed", 0.0),
        "prompts.build.self_s": t.get("prompts.build.self_s", 0.0),
        "prompts.parse.self_s": t.get("prompts.parse.self_s", 0.0),
        "evaluate.sim.calls": t.get("evaluate.sim.calls", 0.0),
        "evaluate.sim.busy_s": t.get("evaluate.sim.busy_s", 0.0),
        "evaluate.synth.calls": t.get("evaluate.synth.calls", 0.0),
        "evaluate.synth.busy_s": t.get("evaluate.synth.busy_s", 0.0),
        "evaluate.log_bytes": t.get("evaluate.log_bytes", 0.0),
        "evaluate.feedback.self_s": t.get("evaluate.feedback.self_s", 0.0),
        "evaluate.preflight_s": t.get("evaluate.setup.busy_s", 0.0),
        "fitness.self_s": t.get("fitness.self_s", 0.0),
        "bandit.self_s": t.get("bandit.select.self_s", 0.0) + t.get("bandit.reward.self_s", 0.0),
        "evolution.self_s": t.get("evolution.generation.self_s", 0.0),
        "evolution.survivor_select.self_s": t.get("evolution.survivor_select.self_s", 0.0),
        "evolution.barrier_idle_s": t.get("evolution.barrier_idle_s", 0.0),
        "reporting.append.busy_s": t.get("reporting.append.busy_s", 0.0),
        "reporting.append.bytes": sum(run["generations_bytes"] for r in traced for run in r["runs"]),
        "reporting.transcript.busy_s": t.get("reporting.transcript.busy_s", 0.0),
        "reporting.transcript.bytes": sum(run["transcripts_bytes"] for r in traced for run in r["runs"]),
        "config.load_s": t.get("config.load.busy_s", 0.0),
    }
    m = {key: value / runs for key, value in layer_sum.items()}
    m["llm.in_flight_mean"] = service_s / generation_wall
    m["prompts.parse_failed_ratio"] = t.get("prompts.parse.failed", 0.0) / parses
    m["prompts.prompt_chars_mean"] = t.get("prompts.prompt_chars", 0.0) / (draft_calls + feedback_calls)
    # per `rtlevo report` call
    for name in ("reporting.read", "reporting.render"):
        m[f"{name}.busy_s"] = t[f"{name}.busy_s"] / t[f"{name}.calls"]
    m["evaluate.in_flight_mean"] = t.get("evaluate.slot.busy_s", 0.0) / generation_wall
    m["evaluate.distinct_code_ratio"] = t["evaluate.distinct_codes"] / t["evaluate.codes"]
    m["reporting.history_distinct_ratio"] = statistics.mean(
        run["history_distinct_ratio"] for r in traced for run in r["runs"]
    )
    shares = [r["shares"] for r in traced]
    m["world.malformed_share"] = statistics.mean(s["malformed"] for s in shares)
    m["world.unchanged_share"] = statistics.mean(s["unchanged"] for s in shares)
    m["trace.accounted_ratio"] = t["trace.accounted_s"] / generation_wall
    m["trace.overhead_individuals_per_s"] = ips(traced) - ips(plain)
    return m


def checks(workload: Workload, repeats: list[dict]) -> tuple[list[str], list[str]]:
    """(problems, notes). Any problem makes the result incorrect."""
    problems, notes = [], []
    for k, r in enumerate(repeats):
        for run in r["runs"]:
            if run["exit_code"] != 0:
                problems.append(f"repeat {k}: exit code {run['exit_code']}, expected 0")
            problems.extend(f"repeat {k}: {p}" for p in run.get("problems", []))
    if not workload.fresh_seed_per_repeat:
        def distinct(name):
            return len({tuple(run["digests"][name] for run in r["runs"]) for r in repeats})

        for name in ("generations", "transcripts"):
            if distinct(name) != 1:
                problems.append(f"{name}.jsonl differs across repeats of the same inputs")
        if distinct("final_report_without_timings") != 1:
            problems.append("final_report.json differs across repeats beyond its timings")
        elif distinct("final_report") != 1:
            notes.append(
                "final_report.json differs across repeats only in its wall-clock "
                "`timings` (ROADMAP item 4)"
            )
    if workload.seeds_per_child > 1:
        runs = repeats[0]["runs"]
        lift = statistics.mean(run["final_pass_rate"] - run["initial_pass_rate"] for run in runs)
        notes.append(f"pass-rate lift {lift * 100:.1f} pp over {len(runs)} seeds")
        if lift < PASS_RATE_LIFT_MIN:
            problems.append(f"pass-rate lift {lift * 100:.1f} pp is below 20 pp")
    if workload.http:
        peak = max(x["in_flight"] for r in repeats for x in r["stub"])
        notes.append(f"peak requests in flight at the stub: {peak}")
        if peak > workload.lanes:
            problems.append(f"{peak} requests in flight exceeds max_parallel_requests={workload.lanes}")
    return problems, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "rtlevo" / "__init__.py").is_file():
        print(f"error: {root} has no src/rtlevo; run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scratch = root / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        repeats, setups = measure(args, workload, root, scratch)
        e2e, attempted, failed, samples = end_to_end(workload, repeats, setups)
        problems, notes = checks(workload, repeats)
        if args.trace:
            kept = root / ".bench_runs" / f"spans-{args.workload}-{args.seed}.jsonl"
            shutil.copyfile(scratch / "spans.jsonl", kept)
            layers = per_layer(workload, repeats)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload}: {workload.why}")
    for k, r in enumerate(repeats):
        runs = r["runs"]
        print(
            f"  repeat {k}{' traced' if r['traced'] else ''}: {len(runs)} run(s): "
            f"individuals={sum(run['individuals'] for run in runs)} "
            f"evaluated={sum(run['evaluated'] for run in runs)} "
            f"passed={sum(run['passed'] for run in runs)} "
            f"exit codes={sorted({run['exit_code'] for run in r['runs']})} "
            f"engine individuals/s={sum(run['individuals'] for run in runs) / sum(run['engine_s'] for run in runs):.4g}"
        )
    print(
        f"end-to-end ({len(repeats)} repeats, {len(setups)} set-ups, "
        f"{samples} generation samples):"
    )
    for name, (unit, better) in END_TO_END.items():
        value = e2e.get(name)
        shown = "n/a (no modelled latency)" if value is None else f"{value:.6g}"
        print(f"  {name:<26} {shown:>14} {unit:<8} {better} is better")
    if args.trace:
        print(f"per-layer (per run, traced repeats; spans in {kept.relative_to(root)}):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<34} {layers[name]:>14.6g} {unit}")
    shares = repeats[0]["shares"]
    notes.append(
        f"world replies: malformed share {shares['malformed']:.3f}, "
        f"unchanged-parent share {shares['unchanged']:.3f}"
    )
    for note in notes:
        print(f"note: {note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    chosen = PER_LAYER if args.trace else {name: END_TO_END[name][0] for name in GATED}
    values = layers if args.trace else e2e
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
