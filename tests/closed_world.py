"""The closed world: a test double for the LLM on the two-bit adder problem.

An initial draft fails with probability `p_initial_fail`, Fix repairs with
probability `p_fix_repair`, any other operator perturbs its passing
parent's `// PPA:` marker multiplicatively (Fusion starts from the
element-wise minimum of both parents), and a draft is unparsable with
probability `p_malformed`. Every reply draws from a stream seeded by
(seed, call key, prompt), so it does not depend on the order in which
concurrent calls arrive: a run writes the same history at any worker count.
"""
from __future__ import annotations

import random
import re
import threading

from rtlevo.llm import CompletionResult
from rtlevo.prompts import PromptStrategy, render_response

_PPA_MARKER = "// PPA: power={:.6f} area={:.6f} period={:.6f}"
_PPA_IN_PROMPT = re.compile(r"// PPA: power=([0-9.]+) area=([0-9.]+) period=([0-9.]+)")


def _fresh(rng):
    return (rng.uniform(0.8, 1.2), rng.uniform(80.0, 120.0), 1.0)


def _perturb(base, rng):
    return (base[0] * rng.uniform(0.85, 1.05), base[1] * rng.uniform(0.85, 1.05), base[2])


class ClosedWorld:
    """Names each module by its call key and each critique by its call, so
    every parsable draft and every critique is a distinct text. Keeps the
    draft and the critique prompts, each in arrival order, under `lock`."""

    def __init__(self, seed, p_initial_fail=0.7, p_fix_repair=0.5, p_malformed=0.0):
        self.seed = seed
        self.p_initial_fail = p_initial_fail
        self.p_fix_repair = p_fix_repair
        self.p_malformed = p_malformed
        self.drafts = []
        self.critiques = []
        self.lock = threading.Lock()

    def complete(self, bundle):
        generation, n = bundle.key
        with self.lock:
            if bundle.purpose == "feedback":
                self.critiques.append(bundle)
                return CompletionResult(text=f"critique of call {generation}/{n}")
            self.drafts.append(bundle)
        rng = random.Random(f"{self.seed}/{generation}/{n}/{bundle.user_text}")
        if rng.random() < self.p_malformed:
            return CompletionResult(text="no code block in this reply")
        thought, ppa = self._design(bundle, rng)
        marker = "// BUG" if ppa is None else _PPA_MARKER.format(*ppa)
        code = f"module add2_{generation}_{n}; endmodule\n{marker}"
        return CompletionResult(text=render_response(thought, code))

    def _design(self, bundle, rng):
        """The draft's thought and PPA, None for a failing design."""
        if bundle.strategy is None:
            return "seed", None if rng.random() < self.p_initial_fail else _fresh(rng)
        if bundle.strategy is PromptStrategy.FIX:
            repaired = rng.random() < self.p_fix_repair
            return ("fixed", _fresh(rng)) if repaired else ("still broken", None)
        markers = [tuple(map(float, m)) for m in _PPA_IN_PROMPT.findall(bundle.user_text)]
        if bundle.strategy is PromptStrategy.FUSION:
            return "merged", _perturb(tuple(map(min, zip(*markers[:2]))), rng)
        if not markers:
            return "no insight", None
        return "tweaked", _perturb(markers[0], rng)
