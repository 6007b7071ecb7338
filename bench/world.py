"""Closed-world design double: the benchmark's stand-in for an LLM.

It answers draft and feedback prompts for the 2-bit adder problem with the
odds of the acceptance suite's StochasticWorld: an initial draft fails with
p=0.7, Fix repairs with p=0.5, and an operator on a passing parent perturbs
the parent's `// PPA:` marker multiplicatively (Fusion starts from the
element-wise minimum of both parents).

Every reply depends only on the seed, the prompt content and how many times
that exact content was seen before, never on a global call counter. Under
concurrency only calls with identical prompts can therefore swap replies.
The same draw also fixes the modelled service latency of the call.
"""

from __future__ import annotations

import hashlib
import random
import re
import threading
from collections import Counter
from dataclasses import dataclass

P_INITIAL_FAIL = 0.7
P_FIX_REPAIR = 0.5

# Modelled service times in seconds. The ratios are assumptions, not
# measured traces: a draft about 3x a feedback critique.
DRAFT_LATENCY_S = 0.060
FEEDBACK_LATENCY_S = 0.020
# About one call in TAIL_EVERY runs TAIL_FACTOR times slower.
TAIL_EVERY = 10
TAIL_FACTOR = 3.0

PPA_RE = re.compile(r"// PPA: power=([0-9.]+) area=([0-9.]+) period=([0-9.]+)")
_OBJECTIVE_RE = re.compile(r"^Objective \((\w+)\)", re.MULTILINE)
_PARENT_CODE_RE = re.compile(
    r"^(?:First )?[Pp]arent code:\n(.*?)\n\n(?:First )?[Pp]arent feedback:",
    re.MULTILINE | re.DOTALL,
)
_FEEDBACK_PREFIX = "A Verilog design "

# Reply kinds, as counted in World.kinds.
DRAFT = "draft"
UNCHANGED = "unchanged"
MALFORMED = "malformed"
FEEDBACK = "feedback"


@dataclass(frozen=True)
class Reply:
    text: str
    kind: str
    latency_s: float


def modelled_latency(base_s: float, rng: random.Random) -> float:
    """`base_s` times a jitter in [0.8, 1.2], times TAIL_FACTOR for about
    one call in TAIL_EVERY."""
    factor = rng.uniform(0.8, 1.2)
    if rng.randrange(TAIL_EVERY) == 0:
        factor *= TAIL_FACTOR
    return base_s * factor


def token_count(text: str) -> int:
    """Token estimate of about four characters per token."""
    return (len(text) + 3) // 4


def _render(thought: str, code: str) -> str:
    return f"## Thought\n{thought}\n\n## Code\n```verilog\n{code}\n```\n"


def _design(tag: str, ppa: tuple[float, float, float] | None) -> str:
    code = (
        f"module add2_{tag}(input [1:0] a, input [1:0] b, output [2:0] sum);\n"
        "  assign sum = a + b;\nendmodule"
    )
    if ppa is None:
        return code + "\n// BUG: carry out dropped"
    power, area, period = ppa
    return code + f"\n// PPA: power={power:.6f} area={area:.6f} period={period:.6f}"


class World:
    """Thread-safe reply source. `malformed` and `unchanged` are the shares
    of draft replies that carry no code block, or that return the first
    parent's code verbatim."""

    def __init__(self, seed: int, malformed: float = 0.0, unchanged: float = 0.0):
        self.seed = seed
        self.malformed = malformed
        self.unchanged = unchanged
        self.kinds: Counter[str] = Counter()
        self._seen: Counter[bytes] = Counter()
        self._lock = threading.Lock()

    def _rng_for(self, system_text: str, user_text: str) -> random.Random:
        content = hashlib.sha256(f"{system_text}\0{user_text}".encode()).digest()
        with self._lock:
            occurrence = self._seen[content]
            self._seen[content] += 1
        return random.Random(f"{self.seed}/{occurrence}/{content.hex()}")

    def reply(self, system_text: str, user_text: str) -> Reply:
        rng = self._rng_for(system_text, user_text)
        if user_text.startswith(_FEEDBACK_PREFIX):
            latency = modelled_latency(FEEDBACK_LATENCY_S, rng)
            verdict = "passes" if "passed its testbench" in user_text[:60] else "fails"
            text = (
                f"The design {verdict} its checks. Share the carry logic and "
                f"register only what timing needs (critique {rng.getrandbits(32):08x})."
            )
            return self._count(Reply(text, FEEDBACK, latency))
        latency = modelled_latency(DRAFT_LATENCY_S, rng)
        if rng.random() < self.malformed:
            text = "## Thought\nI would use a ripple-carry chain; code to follow.\n"
            return self._count(Reply(text, MALFORMED, latency))
        objective = _OBJECTIVE_RE.search(user_text)
        parent_code = _PARENT_CODE_RE.search(user_text)
        if parent_code and rng.random() < self.unchanged:
            text = _render("The parent is already adequate.", parent_code.group(1))
            return self._count(Reply(text, UNCHANGED, latency))
        tag = f"{rng.getrandbits(48):012x}"
        thought, ppa = self._draft(objective.group(1).lower() if objective else None,
                                   user_text, rng)
        return self._count(Reply(_render(thought, _design(tag, ppa)), DRAFT, latency))

    @staticmethod
    def _draft(strategy, user_text, rng):
        def fresh():
            return (rng.uniform(0.8, 1.2), rng.uniform(80.0, 120.0), 1.0)

        def perturb(base):
            return (base[0] * rng.uniform(0.85, 1.05), base[1] * rng.uniform(0.85, 1.05), base[2])

        if strategy is None:
            if rng.random() < P_INITIAL_FAIL:
                return "seed", None
            return "seed", fresh()
        if strategy == "fix":
            if rng.random() < P_FIX_REPAIR:
                return "fixed", fresh()
            return "still broken", None
        markers = [tuple(map(float, m)) for m in PPA_RE.findall(user_text)]
        if strategy == "fusion" and markers:
            base = tuple(min(v[i] for v in markers[:2]) for i in range(3))
            return "merged", perturb(base)
        if not markers:
            return "no insight", None
        return "tweaked", perturb(markers[0])

    def _count(self, reply: Reply) -> Reply:
        with self._lock:
            self.kinds[reply.kind] += 1
        return reply

    def shares(self) -> dict[str, float]:
        """Measured shares of malformed and unchanged-parent draft replies."""
        with self._lock:
            drafts = sum(n for kind, n in self.kinds.items() if kind != FEEDBACK)
            return {
                "malformed": self.kinds[MALFORMED] / drafts if drafts else 0.0,
                "unchanged": self.kinds[UNCHANGED] / drafts if drafts else 0.0,
            }
