"""Layer tracing for the benchmark: spans around calls into usctransfer.

The benchmark wraps the public functions of every usctransfer module from
the outside (no source under ``src/`` is touched) and records one span per
call.  Spans are aggregated as they close instead of being stored, because
the stepper calls ``values()`` tens of thousands of times per propagation:
for each span name the tracer keeps the call count, the inclusive time, the
self time (inclusive time minus the time covered by child spans) and the
number of times the call entered its layer from another layer.

Spans opened inside pool workers are lost with the worker process; the sweep
layer is therefore measured from the records the workers send back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

# Layers, in the order their modules are instrumented.  The span name of a
# function is "<layer>.<function name>".
LAYERS = ("model", "pulses", "dynamics", "metrics", "qoc", "sweep", "formats", "cli")

# Public functions left unwrapped: they run once per ``values()`` call, whose
# span already covers them, and wrapping them would triple the stepper's
# tracing cost.
UNWRAPPED = {"pulses.gaussian_value", "pulses.pw_value"}

# Model functions that build operators, as opposed to states and indices.
MODEL_OPERATORS = (
    "annihilation",
    "creation",
    "number_operator",
    "qubit_lowering",
    "qubit_raising",
    "drift_hamiltonian",
    "coupling_operator",
    "build_rabi",
    "build_rwa",
    "effective_hamiltonian",
    "excitation_operator",
    "parity_operator",
)


def layer_of(name: str | None) -> str | None:
    return None if name is None else name.split(".", 1)[0]


@dataclass
class SpanStats:
    layer: str | None = None
    calls: int = 0
    entries: int = 0  # calls made from another layer (or from outside)
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Stack of open spans plus per-name aggregates.

    ``keep`` names the spans whose individual durations are stored (for
    percentiles).  ``nested`` maps a counter name to a (span, ancestor) pair:
    the counter counts calls of ``span`` made while ``ancestor`` is open.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep: tuple[str, ...] = (),
        nested: dict[str, tuple[str, str]] | None = None,
    ):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.durations: dict[str, list[float]] = {name: [] for name in keep}
        self.counters: dict[str, float] = {}
        self._nested = dict(nested or {})
        self._stack: list[list] = []  # [name, stats, start, time covered by children]
        self._open: dict[str, int] = {}

    def enter(self, name: str) -> None:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats(layer_of(name))
        stats.calls += 1
        if not self._stack or self._stack[-1][1].layer != stats.layer:
            stats.entries += 1
        for counter, (span, ancestor) in self._nested.items():
            if span == name and self._open.get(ancestor, 0) > 0:
                self.add(counter, 1)
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, stats, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span and return its duration."""
        name, stats, start, covered = self._stack.pop()
        duration = self.clock() - start
        self._open[name] -= 1
        stats.total_s += duration
        stats.self_s += duration - covered
        if self._stack:
            self._stack[-1][3] += duration
        if name in self.durations:
            self.durations[name].append(duration)
        return duration

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for s in self.stats.values() if s.layer == layer)


Hook = Callable[[Tracer, tuple, dict, object, float], None]


def _wrap(tracer: Tracer, name: str, fn: Callable, hook: Hook | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
        if hook is not None:
            hook(tracer, args, kwargs, result, duration)
        return result

    return wrapper


class Instrumentation:
    """Wraps the public functions of the usctransfer modules; ``undo`` restores them.

    A function imported by name into another module (``from .dynamics import
    propagate``) is replaced there too, so every call path is seen.
    """

    def __init__(self, tracer: Tracer, package: ModuleType, hooks: dict[str, Hook] | None = None):
        hooks = hooks or {}
        self._patches: list[tuple[object, str, object]] = []
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        namespaces = [package, *modules]
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and name not in UNWRAPPED:
                    wrapper = _wrap(tracer, name, fn, hooks.get(name))
                    for namespace in namespaces:
                        for key, value in list(vars(namespace).items()):
                            if value is fn:
                                self._patch(namespace, key, wrapper)
                elif inspect.isclass(fn) and inspect.isfunction(vars(fn).get("values")):
                    # schedule classes: the stepper calls schedule.values(t)
                    method = vars(fn)["values"]
                    self._patch(fn, "values", _wrap(tracer, f"{layer}.values", method, None))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
