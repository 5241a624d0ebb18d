"""Per-layer tracing by wrapping the program's public functions.

Nothing under ``src/`` is edited: :class:`Tracer` replaces a function or
method attribute with a timing wrapper for the duration of a traced
pass and puts the original back afterwards.  Each wrapper records, per
metric key, the number of calls, their wall time, their self time (wall
minus the time spent in wrapped calls nested inside it on the same
thread) and, where asked, the calling thread's CPU time.  Self time is
summed per layer, so a layer's share of the run does not count the
layers it calls into.

The aggregates live in memory and are read once the pass ends.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    """Aggregate of every call recorded under one metric key."""

    layer: str
    entered: int = 0
    calls: int = 0
    counted: int = 0
    wall: float = 0.0
    self_wall: float = 0.0
    cpu: float = 0.0
    nbytes: int = 0
    inflight: int = 0


class Tracer:
    """Installs timing wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._tls = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------------
    def wrap(
        self,
        target: str,
        key: str,
        layer: str,
        cpu: bool = False,
        nbytes: Callable[[tuple, object], int] | None = None,
        count_if: Callable[[tuple], bool] | None = None,
    ) -> None:
        """Time every call to ``target`` (``"pkg.module:Attr.attr"``).

        ``nbytes(args, result)`` adds a byte count per call;
        ``count_if(args)`` decides whether a call adds to ``counted``
        (every call does when it is omitted).
        """
        module_name, _, path = target.partition(":")
        owner: object = importlib.import_module(module_name)
        *parents, name = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        static = inspect.getattr_static(owner, name)
        classmeth = isinstance(static, classmethod)
        # a classmethod is wrapped bound to its class, then re-installed
        # as a staticmethod so that the class is not passed twice
        func = getattr(owner, name) if classmeth else static
        span = self.spans.setdefault(key, Span(layer))
        wrapper = self._make_wrapper(func, span, cpu, nbytes, count_if)
        self._undo.append((owner, name, static))
        setattr(owner, name, staticmethod(wrapper) if classmeth else wrapper)

    def _make_wrapper(self, func, span, cpu, nbytes, count_if):
        tls = self._tls
        lock = self._lock
        idle = self._idle
        clock = time.perf_counter
        thread_clock = time.thread_time

        def wrapper(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            frame = [0.0]
            stack.append(frame)
            with lock:
                span.entered += 1
                span.inflight += 1
            c0 = thread_clock() if cpu else 0.0
            t0 = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                wall = clock() - t0
                spent = thread_clock() - c0 if cpu else 0.0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                moved = nbytes(args, result) if nbytes is not None else 0
                counts = count_if is None or count_if(args)
                with lock:
                    span.calls += 1
                    span.counted += counts
                    span.wall += wall
                    span.self_wall += wall - frame[0]
                    span.cpu += spent
                    span.nbytes += moved
                    span.inflight -= 1
                    if span.inflight == 0:
                        idle.notify_all()

        wrapper.__wrapped__ = func
        return wrapper

    def uninstall(self) -> None:
        """Put every original attribute back (last wrapped first)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- reading -----------------------------------------------------------
    def quiesce(self, timeout: float = 10.0) -> None:
        """Wait until no wrapped call is running on any thread.

        Server handler threads finish their bookkeeping after the sink
        has stored a payload; counts read before they return would
        depend on scheduling.
        """
        deadline = time.monotonic() + timeout
        with self._idle:
            while any(s.inflight for s in self.spans.values()):
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("wrapped calls still running")
                self._idle.wait(left)

    def snapshot(self) -> dict[str, Span]:
        """A copy of every aggregate, taken under the lock."""
        with self._lock:
            return {
                key: Span(**vars(span)) for key, span in self.spans.items()
            }

    def layer_self_time(self) -> dict[str, float]:
        """Self wall seconds per layer, summed over threads."""
        out: dict[str, float] = {}
        with self._lock:
            for span in self.spans.values():
                out[span.layer] = out.get(span.layer, 0.0) + span.self_wall
        return out


def mean_us(span: Span) -> float:
    return 1e6 * span.wall / span.calls if span.calls else 0.0


def mean_ms(span: Span) -> float:
    return 1e3 * span.wall / span.calls if span.calls else 0.0


def mb_per_s(span: Span) -> float:
    return span.nbytes / span.wall / 1e6 if span.wall > 0 else 0.0
