"""Runtime lock-order watchdog (the dynamic side of the concurrency pass).

The static rules (REP008–REP012) see lexical structure; this module
sees what the threads actually do.  :func:`instrument_locks` patches
``threading.Lock``/``RLock``/``Condition`` so every lock *constructed
inside the context* reports to a :class:`LockWatch`, which

- keeps a per-thread stack of held locks,
- maintains the observed lock-order graph (edges keyed by the locks'
  construction sites, so every per-tenant lock made at one line is one
  graph node — the same role-based identity REP009 uses),
- records an **inversion** the moment a new edge closes a cycle — the
  AB/BA pattern that deadlocks two threads taking opposite routes —
  with both threads' acquisition stacks for diagnosis, and
- records **long holds** (a lock held longer than ``long_hold_s``),
  the runtime signature of REP010's blocking-call-under-lock.

Locks created *before* entering the context are invisible — the
watchdog observes construction, not acquisition, so wrap the code
under test (a pytest session, ``repro serve``) from the start.

Opt-in hooks: ``REPRO_LOCKWATCH=1`` turns :func:`maybe_instrument`
into a real instrumentation context (the shared pytest fixture in
``tests/conftest.py`` and the ``repro serve`` CLI both use it), and
``REPRO_LOCKWATCH_REPORT=path.json`` asks them to persist
:meth:`LockWatch.report` for the CI artifact.
"""

from __future__ import annotations

import _thread
import json
import os
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.resilience.atomic import atomic_write_text

#: set to ``1`` to activate :func:`maybe_instrument`
ENV_FLAG = "REPRO_LOCKWATCH"
#: where :func:`maybe_instrument` users persist the report
ENV_REPORT = "REPRO_LOCKWATCH_REPORT"

#: per-category cap on stored diagnostic records (counters keep counting)
_MAX_RECORDS = 50


class LockInversionError(AssertionError):
    """Raised by :meth:`LockWatch.assert_clean` when cycles were observed."""


def lockwatch_enabled() -> bool:
    """True when the ``REPRO_LOCKWATCH`` env hook asks for instrumentation."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def _caller_site() -> str:
    """``file.py:lineno`` of the nearest frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    return (f"{os.path.basename(frame.f_code.co_filename)}"
            f":{frame.f_lineno}")


def _acquisition_stack(limit: int = 10) -> List[str]:
    """Trimmed ``file.py:line:function`` frames outside this module."""
    frames: List[str] = []
    frame = sys._getframe(1)
    while frame is not None and len(frames) < limit:
        code = frame.f_code
        if code.co_filename != __file__:
            frames.append(f"{os.path.basename(code.co_filename)}"
                          f":{frame.f_lineno}:{code.co_name}")
        frame = frame.f_back
    return frames


#: every watch alive, so a forked child can renew their meta locks
_WATCHES: "weakref.WeakSet[LockWatch]" = weakref.WeakSet()


class LockWatch:
    """Observed lock-order graph + per-thread held stacks.

    Internal state is guarded by a raw ``_thread`` lock so the watch
    never recurses into its own instrumentation.
    """

    def __init__(self, long_hold_s: float = 0.5):
        self.long_hold_s = float(long_hold_s)
        self._meta = _thread.allocate_lock()
        _WATCHES.add(self)
        self._tls = threading.local()
        self.locks_created = 0
        self.acquisitions = 0
        #: (holder_site, acquired_site) -> {"count", "stack", "thread"}
        self.edges: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.inversions: List[Dict[str, Any]] = []
        self.inversion_count = 0
        self.long_holds: List[Dict[str, Any]] = []
        self.long_hold_count = 0

    # -- registration / per-thread stack -------------------------------
    def register(self, site: str) -> str:
        """Account a lock constructed at ``site``; the site is the label."""
        with self._meta:
            self.locks_created += 1
        return site

    def _stack(self) -> List[Tuple[str, int, float]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def held(self) -> List[str]:
        """Labels of locks the calling thread holds, outermost first."""
        return [label for label, _lock_id, _t0 in self._stack()]

    # -- instrumentation callbacks -------------------------------------
    def note_acquired(self, label: str, lock_id: int,
                      blocking: bool = True) -> None:
        stack = self._stack()
        # thread name resolved before taking _meta: current_thread() may
        # construct objects through the patched factories, which would
        # re-enter register() and deadlock on the raw meta lock
        thread_name = threading.current_thread().name if stack else ""
        with self._meta:
            self.acquisitions += 1
            # a non-blocking acquire can never deadlock, so it adds no
            # *acquired-side* edge (close-once latches use this); the
            # lock still joins the held stack — another thread may block
            # on it, so it remains a valid *holder* for later edges
            if blocking:
                for held_label, held_id, _t0 in stack:
                    if held_id == lock_id:
                        continue   # reentrant hold of the same object
                    key = (held_label, label)
                    info = self.edges.get(key)
                    if info is None:
                        info = {"count": 0,
                                "thread": thread_name,
                                "stack": _acquisition_stack()}
                        self.edges[key] = info
                        self._record_cycle(held_label, label, thread_name)
                    info["count"] += 1
        stack.append((label, lock_id, time.monotonic()))

    def note_released(self, label: str, lock_id: int) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][1] == lock_id:
                _label, _lock_id, t0 = stack.pop(index)
                held_s = time.monotonic() - t0
                if held_s >= self.long_hold_s:
                    thread_name = threading.current_thread().name
                    with self._meta:
                        self.long_hold_count += 1
                        if len(self.long_holds) < _MAX_RECORDS:
                            self.long_holds.append({
                                "lock": label,
                                "held_s": round(held_s, 4),
                                "thread": thread_name,
                                "stack": _acquisition_stack(),
                            })
                return
        # released by a thread that never acquired it (legal for Lock,
        # e.g. a close-once guard handed across threads) — nothing held

    # -- graph analysis (caller holds self._meta) ----------------------
    def _record_cycle(self, holder: str, acquired: str,
                      thread_name: str) -> None:
        """The edge (holder → acquired) was just added; look for a way back."""
        path = self._path(acquired, holder)
        if path is None:
            return
        self.inversion_count += 1
        if len(self.inversions) >= _MAX_RECORDS:
            return
        reverse = self.edges.get((path[0], path[1])) if len(path) > 1 else None
        self.inversions.append({
            "holding": holder,
            "acquiring": acquired,
            "cycle": [holder] + path,
            "thread": thread_name,
            "stack": _acquisition_stack(),
            "prior_thread": reverse["thread"] if reverse else None,
            "prior_stack": reverse["stack"] if reverse else None,
        })

    def _path(self, start: str, goal: str) -> Optional[List[str]]:
        stack = [[start]]
        seen = {start}
        while stack:
            path = stack.pop()
            node = path[-1]
            if node == goal:
                return path
            for held_label, acquired_label in self.edges:
                if held_label == node and acquired_label not in seen:
                    seen.add(acquired_label)
                    stack.append(path + [acquired_label])
        return None

    # -- reporting -----------------------------------------------------
    def report(self) -> Dict[str, Any]:
        with self._meta:
            return {
                "format": "repro.lockwatch_report",
                "version": 1,
                "locks_created": self.locks_created,
                "acquisitions": self.acquisitions,
                "long_hold_s": self.long_hold_s,
                "edges": [{"from": a, "to": b, "count": info["count"]}
                          for (a, b), info in sorted(self.edges.items())],
                "inversion_count": self.inversion_count,
                "inversions": [dict(record) for record in self.inversions],
                "long_hold_count": self.long_hold_count,
                "long_holds": [dict(record) for record in self.long_holds],
            }

    def write_report(self, path: str) -> None:
        atomic_write_text(path, json.dumps(self.report(), indent=2))

    def assert_clean(self, long_holds: bool = False) -> None:
        """Raise :class:`LockInversionError` if inversions were observed.

        Long holds are warnings by default — batch adaptation
        legitimately exceeds any fixed threshold — pass
        ``long_holds=True`` to treat them as failures too.
        """
        problems: List[str] = []
        with self._meta:
            for record in self.inversions:
                problems.append(
                    f"lock-order inversion: {' -> '.join(record['cycle'])} "
                    f"(thread {record['thread']}, "
                    f"at {'; '.join(record['stack'][:3])})")
            if self.inversion_count > len(self.inversions):
                problems.append(f"... and "
                                f"{self.inversion_count - len(self.inversions)}"
                                " more inversion(s)")
            if long_holds:
                for record in self.long_holds:
                    problems.append(
                        f"long hold: {record['lock']} held "
                        f"{record['held_s']}s by {record['thread']}")
        if problems:
            raise LockInversionError(
                f"lockwatch: {len(problems)} problem(s)\n" +
                "\n".join(problems))


class InstrumentedLock:
    """Drop-in ``threading.Lock`` reporting to a :class:`LockWatch`."""

    def __init__(self, watch: LockWatch, label: str):
        self._real = _thread.allocate_lock()
        self._watch = watch
        self._label = label

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._real.acquire(blocking, timeout)
        if acquired:
            self._watch.note_acquired(self._label, id(self),
                                      blocking=blocking)
        return acquired

    def release(self) -> None:
        self._real.release()
        self._watch.note_released(self._label, id(self))

    def locked(self) -> bool:
        return self._real.locked()

    def _at_fork_reinit(self) -> None:
        # what the stdlib's at-fork hooks (logging's) call in a child
        self._real._at_fork_reinit()

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "locked" if self._real.locked() else "unlocked"
        return f"<InstrumentedLock {self._label} {state}>"


class InstrumentedRLock:
    """Drop-in ``threading.RLock``; only the outermost hold is reported."""

    def __init__(self, watch: LockWatch, label: str):
        self._real = _thread.RLock()
        self._watch = watch
        self._label = label
        self._depth = 0            # mutated only while the lock is held

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._real.acquire(blocking, timeout)
        if acquired:
            self._depth += 1
            if self._depth == 1:
                self._watch.note_acquired(self._label, id(self),
                                          blocking=blocking)
        return acquired

    def release(self) -> None:
        outermost = self._depth == 1
        self._depth -= 1
        self._real.release()
        if outermost:
            self._watch.note_released(self._label, id(self))

    def __enter__(self) -> "InstrumentedRLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def _is_owned(self) -> bool:
        return self._real._is_owned()

    def _at_fork_reinit(self) -> None:
        # what the stdlib's at-fork hooks (logging's) call in a child
        self._real._at_fork_reinit()
        self._depth = 0

    def __repr__(self) -> str:
        return f"<InstrumentedRLock {self._label} depth={self._depth}>"


#: innermost-last stack of active watches (nested instrument_locks works;
#: each level restores the factories it replaced)
_ACTIVE: List[LockWatch] = []
_PATCH_LOCK = _thread.allocate_lock()


def _renew_meta_locks() -> None:
    # a forked child keeps only the forking thread: a meta lock another
    # thread held at the fork would never be released there, and the
    # child's next instrumented acquire would wait on it for good
    _PATCH_LOCK._at_fork_reinit()
    for watch in list(_WATCHES):
        watch._meta._at_fork_reinit()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_meta_locks)


def active_watch() -> Optional[LockWatch]:
    """The innermost active :class:`LockWatch`, or None."""
    with _PATCH_LOCK:
        return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def instrument_locks(long_hold_s: float = 0.5) -> Iterator[LockWatch]:
    """Patch ``threading`` lock constructors; yield the observing watch.

    Only locks *constructed* inside the context are instrumented;
    ``threading.Event`` (and anything else resolving the module
    globals) picks the patched constructors up automatically.
    """
    watch = LockWatch(long_hold_s=long_hold_s)

    def make_lock() -> InstrumentedLock:
        return InstrumentedLock(watch, watch.register(_caller_site()))

    def make_rlock() -> InstrumentedRLock:
        return InstrumentedRLock(watch, watch.register(_caller_site()))

    original_condition = threading.Condition

    def make_condition(lock: Optional[object] = None):
        return original_condition(lock if lock is not None else make_lock())

    with _PATCH_LOCK:
        saved = (threading.Lock, threading.RLock, threading.Condition)
        threading.Lock = make_lock          # type: ignore[assignment]
        threading.RLock = make_rlock        # type: ignore[assignment]
        threading.Condition = make_condition  # type: ignore[assignment]
        _ACTIVE.append(watch)
    try:
        yield watch
    finally:
        with _PATCH_LOCK:
            threading.Lock, threading.RLock, threading.Condition = saved
            _ACTIVE.remove(watch)


@contextmanager
def maybe_instrument(long_hold_s: float = 0.5
                     ) -> Iterator[Optional[LockWatch]]:
    """:func:`instrument_locks` when ``REPRO_LOCKWATCH=1``, else a no-op."""
    if not lockwatch_enabled():
        yield None
        return
    with instrument_locks(long_hold_s=long_hold_s) as watch:
        yield watch


def finish_watch(watch: Optional[LockWatch]) -> None:
    """Shared epilogue for env-hook users: persist + assert clean.

    Writes the report to ``REPRO_LOCKWATCH_REPORT`` (when set) before
    raising, so CI can upload the artifact from a failed run.
    """
    if watch is None:
        return
    report_path = os.environ.get(ENV_REPORT, "")
    if report_path:
        watch.write_report(report_path)
    watch.assert_clean()
