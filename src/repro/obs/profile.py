"""Sampling stack profiler: where is the event loop actually spending time.

A :class:`SamplingProfiler` runs one daemon thread that wakes ``hz``
times a second, grabs every other thread's current frame via
``sys._current_frames()``, collapses each stack into the standard
semicolon-joined flamegraph form (outermost frame first), and appends
the collapsed strings to a bounded ring — so a capture is at most
``capacity`` samples however long it runs, and :meth:`snapshot`
aggregates the ring into ``{collapsed_stack: count}``.

Zero cost when off: construction allocates a deque and nothing else; no
thread exists until :meth:`start`, and :meth:`stop` joins it.  The
profiler observes wall-clock scheduling only — it never touches broker
state, so the byte-identity contract is untouched by profiling a live
server.

Exposed as ``GET /profile?seconds=`` on the admin planes (capture for N
seconds, return the aggregated stacks) and rendered offline by
``engine flamegraph``, which emits ``stack count`` lines any flamegraph
tool ingests.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter, deque
from pathlib import PurePath

from ..errors import ModelError

#: Default sampling frequency.  Deliberately off the 100 Hz beat most
#: periodic work runs at, so the sampler does not alias against it.
DEFAULT_PROFILE_HZ = 97
#: Default ring size: ~40s of one busy thread at the default rate.
DEFAULT_PROFILE_CAPACITY = 4096

#: Stdlib threading internals that appear above every sampled frame of a
#: worker thread started through threading.Thread — noise, dropped.
_BOOTSTRAP = frozenset(("_bootstrap", "_bootstrap_inner"))


#: Code object -> rendered ``file:func`` label.  Code objects are
#: immutable and long-lived (one per function definition), so the cache
#: saves a PurePath build per frame per sample on the hot sampling path.
_FRAME_LABELS: dict = {}


def _frame_label(code) -> str:
    label = _FRAME_LABELS.get(code)
    if label is None:
        label = f"{PurePath(code.co_filename).stem}:{code.co_name}"
        _FRAME_LABELS[code] = label
    return label


def collapse_frame(frame) -> str:
    """One thread's stack as ``file:func;file:func;...``, root first."""
    parts: list[str] = []
    while frame is not None:
        code = frame.f_code
        if code.co_name not in _BOOTSTRAP:
            parts.append(_frame_label(code))
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Thread-based statistical profiler over ``sys._current_frames``."""

    def __init__(
        self,
        hz: float = DEFAULT_PROFILE_HZ,
        capacity: int = DEFAULT_PROFILE_CAPACITY,
    ):
        if hz <= 0:
            raise ModelError("profiler hz must be > 0")
        if capacity < 1:
            raise ModelError("profiler capacity must be >= 1")
        self.hz = float(hz)
        self.capacity = int(capacity)
        self.samples = 0
        self._ring: deque[str] = deque(maxlen=self.capacity)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> None:
        """Begin sampling; a no-op when already running."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and join the sampler thread; idempotent."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None

    def _run(self) -> None:
        me = threading.get_ident()
        interval = 1.0 / self.hz
        # Event.wait is the clock here: each timeout is one sampling
        # period, and a set() from stop() ends the run immediately.
        while not self._stop.wait(interval):
            frames = sys._current_frames()
            for ident, frame in frames.items():
                if ident == me:
                    continue
                self._ring.append(collapse_frame(frame))
                self.samples += 1

    def snapshot(self) -> dict:
        """The ring aggregated: ``{"stacks": {collapsed: count}, ...}``.

        ``samples`` counts everything ever sampled; ``retained`` is what
        the bounded ring still holds (== samples until it wraps).
        Callable while running — the ring is append-only from the
        sampler side, and ``Counter`` over a snapshot list is safe.
        """
        stacks = Counter(list(self._ring))
        return {
            "hz": self.hz,
            "capacity": self.capacity,
            "samples": self.samples,
            "retained": sum(stacks.values()),
            "running": self.running,
            "stacks": dict(
                sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))
            ),
        }

    def clear(self) -> None:
        """Drop all retained samples (a fresh capture window)."""
        self._ring.clear()
        self.samples = 0


def render_collapsed(capture: dict) -> str:
    """``stack count`` lines from a :meth:`SamplingProfiler.snapshot`.

    The Brendan Gregg collapsed-stack format — pipe it into any
    flamegraph renderer, or read it directly: one line per distinct
    stack, heaviest first.
    """
    stacks = capture.get("stacks") or {}
    ordered = sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))
    return "\n".join(
        f"{stack} {count}" for stack, count in ordered
    ) + ("\n" if ordered else "")
