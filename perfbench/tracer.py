"""In-process tracer for squashkit's layers.

Spans are kept in memory as (name, start, end, parent) and written out by
the caller once the run ends.  A layer's self time is the duration of its
spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Public functions traced in each module.  squash, povm, protocol and cli
#: bind several of them with ``from ... import``, so each one is replaced
#: at every module attribute that refers to it, not only at its home.
TRACED = {
    "symfock": ("lift_gate", "lift_gate_oracle"),
    "squash": (
        "apply_channel",
        "build_squash",
        "verify_completeness",
        "verify_hadamard_invariance",
    ),
    "povm": ("actual_povm", "virtual_povm", "verify_povm_equivalence"),
    "protocol": ("attack_from_dict", "eve_state", "run_simulation"),
}


class Tracer:
    """Records nested spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        """`fn`, recording a span named `name` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, self.spans[index][3])

        return traced

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called `name`, in the order they opened."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def summary(self) -> tuple[Counter, dict]:
        """Calls and self time (seconds) per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
        return calls, self_s


@contextmanager
def traced_bindings(tracer: Tracer):
    """Replace every binding of the TRACED functions with a traced wrapper."""
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if name == "squashkit" or name.startswith("squashkit.")
    ]
    patches = []
    for layer, names in TRACED.items():
        home = importlib.import_module(f"squashkit.{layer}")
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(f"{layer}.{fn_name}", original)
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, original in patches:
            setattr(mod, attr, original)
