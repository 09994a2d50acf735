"""Spans recorded from outside the library, at the names its modules look up.

`harness` binds `sequence_propagator`, `quantum_discord`, `load_pulse` and
`robust_fidelity` at import time, and `grape` binds `batched_unitary_exp`
and `segment_hamiltonians` the same way, so wrapping only the defining
module would miss every call. `TRACED` therefore lists each (module,
attribute) pair where a call is looked up, with the span name it records.
Nothing is patched unless a `Tracer` is entered, so untraced runs pay
nothing.
"""

from __future__ import annotations

import functools
import threading
import time

from ddgrape import cli, dd, discord, grape, grover, harness

# (module, attribute, span name). The span name is the defining module's.
# `core.batched_unitary_exp` is counted where `grape` calls it; inside
# `nmr.sequence_propagator` it is part of that span.
TRACED = [
    (grape, "batched_unitary_exp", "core.batched_unitary_exp"),
    (grape, "segment_hamiltonians", "nmr.segment_hamiltonians"),
    (grape, "robust_fidelity", "grape.robust_fidelity"),
    (grape, "optimize", "grape.optimize"),
    (harness, "robust_fidelity", "grape.robust_fidelity"),
    (harness, "sequence_propagator", "nmr.sequence_propagator"),
    (harness, "load_pulse", "nmr.load_pulse"),
    (harness, "quantum_discord", "discord.quantum_discord"),
    (discord, "quantum_discord", "discord.quantum_discord"),
    (harness, "build_protected_gates", "harness.build_protected_gates"),
    (harness, "robustness_sweep", "harness.robustness_sweep"),
    (harness, "run_trajectory", "harness.run_trajectory"),
    (harness, "ideal_records", "harness.ideal_records"),
    (harness, "rms_deviation", "harness.rms_deviation"),
    # Layers with well under 1 ms of work per run: only their calls count.
    (dd, "place_dd", "dd.place_dd"),
    (dd, "freeze_into", "dd.freeze_into"),
    (harness, "place_dd", "dd.place_dd"),
    (harness, "freeze_into", "dd.freeze_into"),
    (grover, "ideal_trajectory", "grover.ideal_trajectory"),
    (harness, "ideal_trajectory", "grover.ideal_trajectory"),
    (grover, "oracle_unitary", "grover.oracle_unitary"),
    (grover, "diffusion_unitary", "grover.diffusion_unitary"),
    (harness, "oracle_unitary", "grover.oracle_unitary"),
    (harness, "diffusion_unitary", "grover.diffusion_unitary"),
    (harness, "marked_probability", "grover.marked_probability"),
    (cli, "main", "cli.main"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "index")

    def __init__(self, name, parent, thread, index):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.thread = thread
        self.index = index

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
        }


class Tracer:
    """In-memory span recorder; entering it patches every `TRACED` name.

    A span opened on a thread with no open span of its own (a sweep pool
    worker) takes as parent the innermost span open on the main thread,
    which is the call that handed it the work.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._saved = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span = Span(name, parent, threading.get_ident(), len(self.spans))
                self.spans.append(span)
            stack.append(span.index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# -- summaries over a slice of `Tracer.spans` --------------------------------


def calls(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def busy_s(spans, name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def self_s(spans, name: str) -> float:
    """Span time of `name` minus the time its direct child spans cover."""
    own = {s.index for s in spans if s.name == name}
    return busy_s(spans, name) - sum(s.end - s.start for s in spans if s.parent in own)


def within(spans, name: str, outer: str) -> list[Span]:
    """Spans of `name`, on any thread, that lie inside a span of `outer`."""
    windows = [(s.start, s.end) for s in spans if s.name == outer]
    return [s for s in spans if s.name == name and any(a <= s.start and s.end <= b for a, b in windows)]
