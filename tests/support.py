"""What the test modules share: the two-bit adder problem, individuals of
each population, an evaluator of one fixed outcome, the brute-force
survivor oracle, the reward oracle, the scripted demo world, a provider
whose chosen draft calls fail, a local chat endpoint, the one harness that
checks an engine run does not depend on thread scheduling, and the
readers of a transcript."""
from __future__ import annotations

import dataclasses
import json
import random
import sys
import tempfile
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from rtlevo.bandit import record_reward
from rtlevo.evaluate import SyntheticEvaluator
from rtlevo.evolution import EvolutionEngine
from rtlevo.llm import ProviderError, ScriptEntry
from rtlevo.model import (
    NEG_INF,
    CircuitKind,
    EvalOutcome,
    GenerationRecord,
    Individual,
    PopulationLabel,
    PpaMetrics,
    ProblemSpec,
    classify,
)
from rtlevo.prompts import render_response, system_texts, user_templates
from rtlevo.reporting import (
    GENERATIONS_FILE,
    HistoryWriter,
    RunPrompts,
    append_generation,
    read_generations,
)

REF = PpaMetrics(power=1.0, area=100.0, effective_clock_period=1.0)

SPEC = ProblemSpec(
    name="add2",
    description="a two bit adder named add2 with carry out",
    testbench="",
    reference_ppa=REF,
    circuit_kind=CircuitKind.COMBINATIONAL,
    target_clock_period=0.01,
)


def fail_ind(id, gen=0):
    return Individual(
        id=id, thought="t", code=f"// broken {id}", feedback="fb",
        outcome=EvalOutcome(False, False, None, sim_log="failed"),
        fitness=NEG_INF, generation_born=gen,
    )


def success_ind(id, fitness, ppa=None, gen=0):
    return Individual(
        id=id, thought="t", code=f"// works {id}", feedback="fb",
        outcome=EvalOutcome(True, ppa is not None, ppa, sim_log="all tests passed"),
        fitness=fitness, generation_born=gen,
    )


class FixedOutcome:
    """An evaluator whose every outcome is the given one."""

    def __init__(self, outcome):
        self.outcome = outcome

    def outcome_for(self, code, spec, individual_id=0):
        return self.outcome

    def reference_ppa(self, code, spec):
        raise AssertionError("not used")


def oracle_survivors(parents, offspring, elite_n, pop_size):
    """Survivor selection restated by brute force: each metric's elites by
    repeated minimum search over the synthesized parents, then the rest by
    rank over parents and offspring together."""

    def metric_key(ind, metric):
        return (getattr(ind.outcome.ppa, metric), -ind.fitness, ind.id)

    def rank_key(ind):
        return (-ind.fitness, -ind.generation_born, ind.id)

    elites = []
    if elite_n > 0:
        for metric in ("power", "area", "effective_clock_period"):
            pool = [p for p in parents if p.outcome is not None and p.outcome.ppa is not None]
            for _ in range(min(elite_n, len(pool))):
                best = min(pool, key=lambda p: metric_key(p, metric))
                pool.remove(best)
                if best.id not in [e.id for e in elites]:
                    elites.append(best)
    taken = {e.id for e in elites}
    rest = sorted(
        (i for i in list(parents) + list(offspring) if i.id not in taken), key=rank_key
    )
    return elites + rest[: pop_size - len(elites)]


def expected_reward(child, parents):
    """The reward restated: the parents' simulation verdict names the
    population the child's slot drew from; a Fail-population child earns
    1.0 by passing simulation, a Success-population child by beating its
    best parent's fitness, and any other child 0.0."""
    if classify(parents[0]) is PopulationLabel.FAIL:
        improved = child.outcome.sim_passed
    else:
        improved = child.fitness > max(p.fitness for p in parents)
    return 1.0 if improved else 0.0


def derived_rewards(last, record):
    """(population label, strategy, reward) for each offspring of `record`,
    in offspring order, its parents read from `last`, the record before."""
    by_id = {ind.id: ind for ind in last.population}
    for child in record.offspring:
        parents = [by_id[pid] for pid in child.parent_ids]
        yield classify(parents[0]).value, child.strategy, expected_reward(child, parents)


def replay_rewards(last, record):
    """`last`'s bandit states with `record`'s derived rewards credited, in
    offspring order, to copies of them."""
    states = {label: state.copy() for label, state in last.bandit_states.items()}
    for label, strategy, reward in derived_rewards(last, record):
        record_reward(states[label], strategy, reward)
    return states


def reply(thought, code, ppa=None, bug=False):
    body = code
    if bug:
        body += "\n// BUG"
    if ppa:
        power, area, period = ppa
        body += f"\n// PPA: power={power} area={area} period={period}"
    return render_response(thought, body)


def demo_script():
    """Small closed world: generation 0's first two drafts pass, the rest
    fail, operators have fixed outcomes so every run is predictable."""
    return [
        ScriptEntry("call:0/0", reply("seed a", "module add2; endmodule", (0.9, 95, 1.0))),
        ScriptEntry("call:0/1", reply("seed b", "module add2; endmodule", (0.95, 98, 1.0))),
        ScriptEntry("strategy:initial", reply("seed bad", "module add2; endmodule", bug=True)),
        ScriptEntry("strategy:fix", reply("patch", "module add2; endmodule", (0.8, 90, 1.0))),
        ScriptEntry("strategy:simplify", reply("shrink", "module add2; endmodule", (0.7, 80, 1.0))),
        ScriptEntry("strategy:explore", reply("wild", "module add2; endmodule", bug=True)),
        ScriptEntry("strategy:refactor", reply("rewrite", "module add2; endmodule", (1.2, 120, 1.0))),
        ScriptEntry("strategy:improve", reply("tune", "module add2; endmodule", (0.5, 50, 1.0))),
        ScriptEntry("strategy:fusion", reply("merge", "module add2; endmodule", (0.4, 40, 1.0))),
        ScriptEntry("purpose:feedback", "fb"),
    ]


# --- one worker against four --------------------------------------------------

# Four workers switch threads this often, and each of their calls and
# evaluations first sleeps up to this long, so that they reach the
# provider and the evaluator out of slot order. A longer sleep reorders no
# more runs than half a millisecond does, and only slows the suite.
SWITCH_INTERVAL = 1e-5
JITTER_SECONDS = 0.0005
# A run that has not ended by then is taken to hang.
RUN_TIMEOUT = 60.0


class FailingDrafts:
    """Fails the draft calls whose key `fails` accepts with a ProviderError
    of `kind`, as the http provider does once its retries are spent, and
    passes every other call on."""

    def __init__(self, inner, fails, kind="transient"):
        self.inner = inner
        self.fails = fails
        self.kind = kind

    def complete(self, bundle):
        if bundle.purpose == "generate" and self.fails(bundle.key):
            raise ProviderError(self.kind, "endpoint is down", attempt_count=4)
        return self.inner.complete(bundle)


class KeyedJitter:
    """Wraps a provider or an evaluator: each call first sleeps for a time
    drawn from (seed, call key, purpose), each evaluation for one drawn
    from (seed, individual id). The order concurrent slots arrive in then
    changes with the seed, but not from one run to the next."""

    def __init__(self, inner, seed):
        self.inner = inner
        self.seed = seed

    def _sleep(self, *key):
        draw = random.Random("/".join(map(str, (self.seed, *key))))
        time.sleep(draw.uniform(0.0, JITTER_SECONDS))

    def complete(self, bundle):
        self._sleep(bundle.key, bundle.purpose)
        return self.inner.complete(bundle)

    def outcome_for(self, code, spec, individual_id=0):
        self._sleep(individual_id)
        return self.inner.outcome_for(code, spec, individual_id)

    def reference_ppa(self, code, spec):
        return self.inner.reference_ppa(code, spec)


@dataclass
class Run:
    """One engine run: its history, the generations.jsonl it wrote, and the
    provider and evaluator it ran over, without their jitter."""

    history: list[GenerationRecord]
    written: bytes
    provider: object
    evaluator: object


def _within(seconds, call):
    """call()'s result, from a daemon thread, so that a call that hangs
    fails the test with a TimeoutError in place of hanging it."""
    done: Future = Future()

    def target():
        try:
            done.set_result(call())
        except BaseException as exc:
            done.set_exception(exc)

    threading.Thread(target=target, daemon=True).start()
    return done.result(timeout=seconds)


def _run(cfg, provider, evaluator, initialize_only, jitter=None):
    """One run, writing its history to a generations.jsonl, with the
    provider and evaluator under KeyedJitter seeded by `jitter` if given."""
    if jitter is None:
        calls, evaluations = provider, evaluator
    else:
        calls, evaluations = KeyedJitter(provider, jitter), KeyedJitter(evaluator, jitter)
    with tempfile.TemporaryDirectory() as run_dir:
        with HistoryWriter(Path(run_dir) / GENERATIONS_FILE) as writer:
            engine = EvolutionEngine(
                SPEC, cfg, calls, evaluations,
                record_sink=lambda record: append_generation(writer, record),
            )
            history = _within(
                RUN_TIMEOUT, lambda: [engine.initialize()] if initialize_only else engine.run().history
            )
        return Run(history, (Path(run_dir) / GENERATIONS_FILE).read_bytes(), provider, evaluator)


def run_at_one_and_four_workers(cfg, provider, evaluator=SyntheticEvaluator, *, jitter_seed=0,
                                initialize_only=False, workers=4):
    """Runs an engine for `cfg` over a fresh `provider()` and `evaluator()`
    at one worker, and again at `workers` (four unless a test names another
    count) under KeyedJitter and a short switch interval. Asserts that both
    runs made the same history and wrote the same generations.jsonl, byte
    for byte, and that the file reads back as the history. Returns both
    runs, one worker's first. `initialize_only` stops each run after
    generation 0."""
    one = _run(
        dataclasses.replace(cfg, max_parallel_evaluations=1), provider(), evaluator(),
        initialize_only,
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        four = _run(
            dataclasses.replace(cfg, max_parallel_evaluations=workers), provider(), evaluator(),
            initialize_only, jitter=f"{cfg.rng_seed}/{jitter_seed}",
        )
    finally:
        sys.setswitchinterval(interval)
    assert four.history == one.history, f"{workers} workers wrote another history than one"
    assert four.written == one.written
    with tempfile.TemporaryDirectory() as run_dir:
        (Path(run_dir) / GENERATIONS_FILE).write_bytes(one.written)
        # each record was written as it was made, so no later generation changed it
        assert read_generations(run_dir) == one.history
    return one, four


# --- a local chat endpoint ---------------------------------------------------

# each call purpose's system prompt, as a transcript header holds them
SYSTEMS = system_texts()
# the keys of every transcript entry
ENTRY_KEYS = {
    "key", "purpose", "strategy", "parent_ids", "response", "usage", "latency",
    "attempt_count", "error", "user_sha256",
}


class FakeEndpoint:
    """Local chat-completion server driven by a canned queue of (status,
    body) or (status, body, headers) replies.

    By default it speaks HTTP/1.0 and closes every connection after its
    response. `keep_alive` makes it speak HTTP/1.1 and keep them open;
    `drop` makes it speak HTTP/1.1 but close each connection after its
    response without saying so, as a server that drops idle connections
    does, and release `dropped` once the socket is closed.
    """

    def __init__(self, plan, keep_alive=False, drop=False):
        self.plan = list(plan)
        self.requests = []
        self.dropped = threading.Semaphore(0)
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive or drop else "HTTP/1.0"

            def do_POST(self):
                size = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(size)) if size else None
                outer.requests.append(
                    {
                        "payload": payload,
                        "auth": self.headers.get("Authorization"),
                        "path": self.path,
                        "client": self.client_address,
                        "headers": dict(self.headers),
                    }
                )
                status, body, *headers = (
                    outer.plan.pop(0) if outer.plan else (200, completion_body("fallback"))
                )
                data = body.encode("utf-8")
                self.send_response(status)
                for name, value in (headers[0] if headers else {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                if drop:
                    self.close_connection = True

            def do_CONNECT(self):
                # a proxy that refuses every tunnel
                outer.requests.append({"path": self.path, "headers": dict(self.headers)})
                self.send_response(502)
                self.end_headers()

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            def shutdown_request(self, request):
                super().shutdown_request(request)
                outer.dropped.release()

        self.server = Server(("127.0.0.1", 0), Handler)
        # shutdown() waits out one poll of serve_forever, 0.5 s by default
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.server_port}/v1/chat/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def completion_body(text):
    """The body of a chat completion whose one message is `text`."""
    return json.dumps({"choices": [{"message": {"content": text}}]})


def transcript_entries(source):
    """The entries of a transcript, its path or its bytes, after checking
    that its first line is the schema-3 header holding each call purpose's
    system prompt (`system_texts()`) and the text of every user-prompt
    template (`user_templates()`)."""
    data = source if isinstance(source, bytes) else source.read_bytes()
    header, *lines = data.decode("utf-8").splitlines()
    assert json.loads(header) == {
        "schema_version": 3, "system_text": SYSTEMS, "templates": user_templates()
    }
    return [json.loads(line) for line in lines]


def rebuild_every_prompt(run_dir):
    """Rebuilds the prompt of every entry of a run's transcript from the run
    directory, each checked against its digest (a mismatch raises
    RunDirError), and returns the prompts by call key."""
    prompts = RunPrompts(run_dir)
    return {key: prompts.text(key) for key in prompts.entries}
