"""Span tracer that wraps cellpilot's public functions from outside the package.

Each span name is "<module>.<function>" or "<module>.<Class>.<method>",
relative to the cellpilot package. Patching replaces every binding of the
original object across the package namespace and all of its submodules
(``from .x import f`` copies a name into the importing module) and puts the
original back on unpatch. A span whose function no longer exists is
reported as absent instead of failing.

A stack of open spans gives each span its parent and its self time: the
span's duration minus the time covered by the spans it opened directly.
"""

from __future__ import annotations

import functools
import importlib
import math
import pkgutil
import time
from collections import Counter
from dataclasses import dataclass, field

SPANS = (
    "scenario.drop_users",
    "scenario.ScenarioBundle.build",
    "contamination.pairwise_cost_matrix",
    "contamination.total_costs",
    "contamination.extended_user_costs",
    "channel.covariance",
    "assignment.exhaustive_search",
    "assignment.random_assignment",
    "assignment.spr_like_assignment",
    "env.make_env",
    "env.calibrate_thresholds",
    "env.PilotEnv.step",
    "env.encode_state",
    "qnn.train",
    "qnn.act",
    "qnn.forward",
    "qnn.backward",
    "qnn.td_targets",
    "qnn.rmsprop_step",
    "qnn.ReplayBuffer.sample",
    "rate.min_rate",
    "harness.run_experiment",
)

ROOT_SPAN = "harness.run_experiment"


def _count_applied(counters, args, kwargs, result):
    if result is True:
        counters["qnn.rmsprop_step.applied"] += 1


def _count_realizations(counters, args, kwargs, result):
    n_mc = getattr(result, "n_mc", None)
    if n_mc is not None:
        counters["rate.min_rate.realizations"] += int(n_mc)


def _count_candidates(counters, args, kwargs, result):
    bundle = args[0] if args else kwargs["bundle"]
    L, K = bundle.drop.shape
    counters["assignment.exhaustive_search.candidates"] += \
        math.factorial(K) ** (L - 1)


# Work counts read from a span's arguments or result once it returns. They
# only read attributes, so tracing draws no random numbers.
COUNTERS = {
    "qnn.rmsprop_step": _count_applied,
    "rate.min_rate": _count_realizations,
    "assignment.exhaustive_search": _count_candidates,
}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """In-memory spans: per-name call counts, self time and durations."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}          # span name -> SpanStats
        self.parents = Counter()  # (parent name or None, span name) -> calls
        self.counters = Counter()
        self.absent = []         # span names whose function was not found
        self._stack = []         # open spans: [name, start, child seconds]
        self._patches = []       # (owner, attribute, original object)

    def wrap(self, name, fn, on_return=None):
        """fn with its calls recorded as span `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, self.clock(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - frame[1]
                self._stack.pop()
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[2] += duration
                self._record(name, parent[0] if parent else None,
                             duration, duration - frame[2])
            if on_return is not None:
                on_return(self.counters, args, kwargs, result)
            return result

        return traced

    def _record(self, name, parent, duration, self_s):
        st = self.stats.setdefault(name, SpanStats())
        st.calls += 1
        st.self_s += self_s
        st.durations.append(duration)
        self.parents[(parent, name)] += 1

    def patch(self, package, spans=SPANS):
        """Wrap every binding of each span's function in `package`."""
        if self._patches:
            raise RuntimeError("already patched")
        self.absent = []
        modules = {"": package}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(
                f"{package.__name__}.{info.name}")
        for name in spans:
            module_name, *path = name.split(".")
            owner = modules.get(module_name)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(path[-1])
            if original is None:
                self.absent.append(name)
                continue
            on_return = COUNTERS.get(name)
            if len(path) > 1:
                # a method: patch the descriptor on its class
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(
                        self.wrap(name, original.__func__, on_return))
                else:
                    wrapped = self.wrap(name, original, on_return)
                self._set(owner, path[-1], wrapped)
                continue
            wrapped = self.wrap(name, original, on_return)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unpatch(self):
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# Tail percentiles tried, highest first, as the share of samples beyond them
# in parts per thousand; the tail is the highest one that leaves at least
# TAIL_MIN_BEYOND samples beyond it.
TAIL_BEYOND_PER_MILLE = (1, 10, 50, 100, 250, 500)
TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest listed percentile with >= TAIL_MIN_BEYOND of n samples beyond it.

    Below 2 * TAIL_MIN_BEYOND samples no listed percentile qualifies and the
    tail is the maximum (100).
    """
    for per_mille in TAIL_BEYOND_PER_MILLE:
        if n * per_mille >= TAIL_MIN_BEYOND * 1000:
            return 100.0 - per_mille / 10.0
    return 100.0
