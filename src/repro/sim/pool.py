"""``WorkerPool``: the one worker pool of the engine and the daemon.

``"process"`` workers are probed with one spawn up front; where they
cannot spawn (sandboxes, ``RLIMIT_NPROC``) the pool uses threads and
records why.  Shutdown leaves no orphans, and children of a killed parent
exit on their own.

Dying workers
=============

A dying worker (an OOM kill, a segfault, an injected ``worker.job:kill``)
breaks its process pool and fails every call on it.  The pool is rebuilt,
its calls are re-queued first, and calls run one at a time until one
finishes, so the next break names its call.  A call that breaks a pool
running alone re-runs alone once more; if it breaks that pool too, it
is held until the next call run alone settles it:

* that call finishes: the held call is a job that kills its worker, and
  its future fails with ``BrokenProcessPool`` (the daemon's retry budget
  and quarantine take over; the engine raises);
* that call kills its worker too: workers die whatever they run, so the
  pool falls back to threads for good and both calls re-run there;
* no call comes within :data:`VERDICT_WAIT_S`: the held call fails.

So a job that keeps killing its worker never runs in the caller's
process, unless a *different* job kills its worker alone right after it.
The injected ``kill`` fault is inert outside worker children, so a
schedule that kills every job completes on threads.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, InvalidStateError, \
    ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Deque, Dict, Optional, Set

_log = logging.getLogger(__name__)

#: How often a pool worker checks that its parent process is still alive.
_PARENT_POLL_S = 0.5

#: How long a call that killed its worker alone waits for another call
#: to run alone before it is failed as the killer.
VERDICT_WAIT_S = 1.0


def _exit_when_orphaned(parent: int) -> None:
    while True:
        time.sleep(_PARENT_POLL_S)
        if os.getppid() != parent:
            os._exit(1)


def exit_with_parent() -> None:
    """Process-pool ``initializer``: end this worker once its parent dies.

    A SIGKILLed daemon or engine never shuts its pool down, and its
    workers would otherwise idle on forever, reparented.  A daemon thread
    polls :func:`os.getppid` and exits the worker as soon as it changes.
    (``PR_SET_PDEATHSIG`` is no substitute: it fires when the *thread*
    that spawned the worker exits, not the process.)
    """
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="repro-parent-watch", daemon=True).start()


def _settle(future: "Future[Any]", result: Any = None,
            error: Optional[BaseException] = None) -> None:
    try:
        if error is None:
            future.set_result(result)
        else:
            future.set_exception(error)
    except InvalidStateError:
        pass  # shut down meanwhile


class WorkerPool:
    """``workers`` simulation workers of ``kind`` ``"process"`` or
    ``"thread"``; at most ``workers`` calls are on them at a time, the
    rest wait in submission order."""

    def __init__(self, workers: int, kind: str = "process") -> None:
        self.workers = max(1, int(workers))
        self.kind = kind
        #: Why process workers were replaced by threads (or ``None``).
        self.fallback_reason: Optional[str] = None
        #: Broken process pools replaced (rebuilt, or swapped for threads).
        self.failovers = 0
        self._lock = threading.Lock()
        self._closed = False
        #: Calls waiting for a worker, ``(future, fn, args)``, oldest first.
        self._queue: Deque[tuple] = deque()
        #: Calls on an executor: the caller's future -> ``(fn, args,
        #: executor)``.
        self._running: Dict["Future[Any]", tuple] = {}
        #: After a break, calls run one at a time until one finishes.
        self._alone = False
        #: Futures of calls that broke a pool running alone once.
        self._struck: Set["Future[Any]"] = set()
        #: A call that broke a pool running alone twice, awaiting its
        #: verdict.
        self._killer: Optional[tuple] = None
        self._verdict_at = 0.0
        self._pumping = self._pump_again = False
        self._executor = self._build()

    def _build(self):
        if self.kind == "process":
            executor = ProcessPoolExecutor(max_workers=self.workers,
                                           initializer=exit_with_parent)
            try:
                executor.submit(os.getpid).result()
                return executor
            except OSError as exc:
                executor.shutdown(wait=False)
                self._fall_back(f"process workers unavailable ({exc})")
        return ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="repro-worker")

    def _fall_back(self, reason: str) -> None:
        self.kind = "thread"
        self.fallback_reason = reason
        _log.warning("%s; using thread workers", reason)

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Run ``fn(*args)`` on a worker.  The future fails with ``fn``'s
        own exception, or with ``BrokenProcessPool`` if the call kills
        its worker (see the module docstring).  Raises ``RuntimeError``
        once the pool is shut down."""
        future: "Future[Any]" = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "cannot schedule new futures after shutdown")
            self._queue.append((future, fn, args))
        self._pump()
        return future

    def _pump(self) -> None:
        """Start calls while workers are free.  One thread pumps at a
        time; a pump asked for meanwhile (a call that finished at once,
        another submitter) makes it go round again instead of nesting."""
        with self._lock:
            self._pump_again = True
            if self._pumping:
                return
            self._pumping = True
        try:
            while True:
                with self._lock:
                    if not self._pump_again:
                        self._pumping = False
                        return
                    self._pump_again = False
                self._start_calls()
        except BaseException:
            with self._lock:
                self._pumping = False
            raise

    def _start_calls(self) -> None:
        started, stale, killer = [], None, None
        with self._lock:
            alone = self._alone or self._killer is not None
            while not self._closed and self._queue and len(
                    self._running) < (1 if alone else self.workers):
                future, fn, args = self._queue[0]
                if not (future.running()
                        or future.set_running_or_notify_cancel()):
                    self._queue.popleft()  # cancelled while waiting
                    continue
                executor = self._executor
                try:
                    attempt = executor.submit(fn, *args)
                except BrokenProcessPool:
                    if any(on is executor for *_, on
                           in self._running.values()):
                        break  # its running calls' callbacks recover it
                    stale = self._replace(executor)  # an idle worker died
                    continue
                self._queue.popleft()
                self._running[future] = (fn, args, executor)
                started.append((future, executor, attempt))
            if self._killer is not None and not self._running \
                    and not self._queue \
                    and time.monotonic() >= self._verdict_at:
                killer, self._killer = self._killer[0], None
                self._struck.discard(killer)
        if stale is not None:
            stale.shutdown(wait=False, cancel_futures=True)
        for future, executor, attempt in started:
            attempt.add_done_callback(
                lambda done, future=future, executor=executor:
                self._done(future, executor, done))
        if killer is not None:
            self._convict(killer)

    def _done(self, future: "Future[Any]", executor: Any,
              attempt: "Future[Any]") -> None:
        error = CancelledError() if attempt.cancelled() \
            else attempt.exception()
        recover = isinstance(error, BrokenProcessPool)
        killer = stale = None
        with self._lock:
            if self._running.get(future, (None,) * 3)[2] is not executor:
                return  # re-queued when its pool broke under another call
            if recover and not self._closed:
                stale = self._broke(executor)
            else:
                recover = False
                del self._running[future]
                self._struck.discard(future)
                self._alone = False
                if self._killer is not None:
                    # A call ran alone and its worker lived: the held
                    # call is a job that kills its worker.
                    killer, self._killer = self._killer[0], None
                    self._struck.discard(killer)
        if stale is not None:
            stale.shutdown(wait=False, cancel_futures=True)
        if not recover:
            _settle(future, None if error else attempt.result(), error)
        if killer is not None:
            self._convict(killer)
        self._pump()

    def _broke(self, executor: Any) -> Any:
        """``executor`` broke: re-queue its calls, hold a call that broke
        a pool alone twice, or fall back; then replace it.  Caller holds
        the lock; returns the executor to shut down."""
        victims = [(future, fn, args) for future, (fn, args, on)
                   in self._running.items() if on is executor]
        for future, *_ in victims:
            del self._running[future]
        self._alone = True
        lone = victims[0] if len(victims) == 1 else None
        if lone is not None and self._killer is not None:
            self._queue.extendleft([lone, self._killer])
            self._killer, self._alone = None, False
            self._fall_back("process workers keep dying (two jobs in a "
                            "row killed their worker running alone)")
        elif lone is not None and lone[0] in self._struck:
            self._killer = lone
            self._verdict_at = time.monotonic() + VERDICT_WAIT_S
            timer = threading.Timer(VERDICT_WAIT_S, self._pump)
            timer.daemon = True
            timer.start()
        else:
            if lone is not None:
                self._struck.add(lone[0])
            self._queue.extendleft(reversed(victims))
        return self._replace(executor)

    def _replace(self, executor: Any) -> Any:
        """Swap a broken ``executor`` for a new one (threads after a
        fallback).  Caller holds the lock; returns what to shut down."""
        if executor is not self._executor:
            return None
        self.failovers += 1
        if self.kind == "process":
            _log.warning("worker pool broke; rebuilding")
        self._executor = self._build()
        return executor

    @staticmethod
    def _convict(future: "Future[Any]") -> None:
        _settle(future, error=BrokenProcessPool(
            "the job's worker process died each time it ran the job"))

    def describe(self) -> Dict[str, Any]:
        """The pool as ``stats()`` reports it."""
        processes = getattr(self._executor, "_processes", None)
        return {"type": self.kind, "workers": self.workers,
                "children": sorted(processes) if processes else [],
                "fallback_reason": self.fallback_reason,
                "failovers": self.failovers}

    def shutdown(self, wait: bool = True, timeout: float = 10.0) -> None:
        """Cancel waiting calls and stop the workers; running calls get
        ``timeout`` seconds (0.5 without ``wait``), then any child still
        alive is terminated, then killed.  Idempotent."""
        with self._lock:
            self._closed = True
            executor = self._executor
            waiting = [future for future, *_ in self._queue]
            if self._killer is not None:
                waiting.append(self._killer[0])
            self._queue.clear()
            self._killer = None
        for future in waiting:
            if not future.cancel():  # a re-run is already running
                _settle(future, error=CancelledError())
        if not isinstance(executor, ProcessPoolExecutor):
            executor.shutdown(wait=wait, cancel_futures=True)
            return
        children = list((getattr(executor, "_processes", None)
                         or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        deadline = time.time() + (timeout if wait else 0.5)
        for child in children:
            child.join(max(0.0, deadline - time.time()))
        survivors = [child for child in children if child.is_alive()]
        for child in survivors:
            child.terminate()
        deadline = time.time() + 1.0
        for child in survivors:
            child.join(max(0.0, deadline - time.time()))
            if child.is_alive():
                child.kill()
