"""The order-preserving scheduler core, independent of any transport.

Every concurrent map in the harness is ``Scheduler(transport).map``
(:func:`repro.api.run.executor_for` builds the one a context asks for).
The :class:`Scheduler` owns

* **pacing** — at most ``slots * PREFETCH_FACTOR`` *incomplete*
  submissions in flight (input is pulled and pickled only as earlier
  items complete, never the whole grid up front), with completed
  results awaiting their in-order turn releasing those slots up to
  ``slots * MAX_UNYIELDED_FACTOR`` total unyielded submissions, so a
  slow queue head cannot starve the workers behind it while buffered
  results stay bounded;
* **in-order delivery** — results yield in submission order whatever
  order the transport completes them, which is what keeps CSV
  checkpoints and aggregation deterministic;
* **failure propagation** — an item failure surfaces in submission
  order (earlier results still yield), refilling stops the moment a
  failed submission is observed, and the transport is aborted;
* **per-item retry / timeout / reassignment accounting** — a
  submission lost to a dead worker (:class:`~repro.errors.WorkerLostError`)
  is resubmitted in place up to ``max_attempts`` times, keeping its
  queue position so delivery order never changes; with a per-item
  ``timeout``, an attempt that outlives its deadline is forfeited
  (the transport abandons the assignment) and retried the same way.
  :attr:`Scheduler.stats` counts retries and timeouts.

*Where* items execute is a pluggable :class:`Transport`.  Every
transport's ``submit`` returns a :class:`concurrent.futures.Future`, and
the scheduler parks on :func:`concurrent.futures.wait` until the first
of its incomplete futures finishes (or the earliest per-item deadline
passes):

* :class:`LocalThreadTransport` — runs items inline in the calling
  thread and returns an already-completed future; the serial reference
  the scheduler's own behavior is validated against.
* :class:`LocalPoolTransport` — a ``concurrent.futures`` process pool
  on this host; its futures are the pool's own.
* ``SocketTransport`` (:mod:`repro.api.distributed`) — one coordinator
  thread per ``repro worker`` agent on any host, each completing the
  futures of the items it ships over length-prefixed frames.

Determinism contract: a transport executes each submitted item exactly
as handed (same ``fn``, same item object) and completion order is
allowed to be arbitrary — the scheduler's submission-order delivery and
the pre-spawned seed tree (:mod:`repro.api.context`) make the yielded
sequence bit-identical to a serial loop regardless of transport,
worker count, retries, or reassignment.
"""

from __future__ import annotations

import concurrent.futures as _futures
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice
from typing import Any, Protocol, TypeVar

from repro.errors import DistributedError, ExperimentError, WorkerLostError

T = TypeVar("T")
R = TypeVar("R")

# Cap on *incomplete* in-flight submissions, as a multiple of the
# transport's slot count: enough queued work that no worker idles
# between items, without pickling an entire flattened grid up front the
# way a bare pool.map would — input is only pulled as earlier items
# complete.
PREFETCH_FACTOR = 2

# Cap on *total* unyielded submissions (running + queued + completed
# results waiting their in-order turn), as a multiple of the slot
# count.  Completed results release their PREFETCH_FACTOR slot so a slow
# queue head cannot starve the workers behind it, but only up to this
# bound — past it, refilling pauses until the head yields, keeping the
# buffered-result memory and total pickled-ahead work O(slots) even when
# item 0 of a huge flattened grid is the slowest.
MAX_UNYIELDED_FACTOR = 8


class Transport(Protocol):
    """Pluggable execution substrate under the :class:`Scheduler`.

    Five verbs: ``slots`` sizes the pacing windows (the parallel
    capacity).  The scheduler calls :meth:`open` exactly once — before
    the first submission, and only when there is at least one item —
    then pairs every :meth:`submit` with eventual completion of the
    future it returns (:meth:`forfeit` completes one early), and finally
    exactly one of :meth:`close` (normal completion) or :meth:`abort`
    (failure or abandonment).
    """

    @property
    def slots(self) -> int: ...

    def open(self, fn: Callable[[Any], Any], head_size: int) -> None:
        """Bind the map function and start the session.

        ``fn`` is the dispatch target every subsequent item is applied
        to — transports that ship work to other processes require it to
        be a picklable module-level function (reprolint REP201 checks
        call sites statically; remote transports also verify at open).
        ``head_size`` is the size of the initial submission window
        (transports may size worker startup to it).
        """
        ...

    def submit(self, item: Any) -> _futures.Future[Any]:
        """Start ``fn(item)``; the future completes with its outcome.

        An item's own exception is set on the future, never raised here.
        """
        ...

    def forfeit(self, future: _futures.Future[Any]) -> None:
        """Abandon one in-flight submission (per-item deadline blown).

        The transport must fail ``future`` (typically with
        :class:`~repro.errors.WorkerLostError`) before returning; it may
        fail co-assigned submissions the same way (dropping the worker
        that holds them), which the scheduler's retry accounting absorbs.
        """
        ...

    def close(self) -> None: ...

    def abort(self) -> None: ...


class LocalThreadTransport:
    """Serial reference transport: items run inline in the calling thread.

    Exists so the scheduler's pacing/ordering/failure logic can be
    exercised (and trusted) without processes or sockets; one slot, so
    the pacing windows collapse to their minima.
    """

    slots = 1

    def __init__(self) -> None:
        self._fn: Callable[[Any], Any] | None = None

    def open(self, fn: Callable[[Any], Any], head_size: int) -> None:
        self._fn = fn

    def submit(self, item: Any) -> _futures.Future[Any]:
        assert self._fn is not None, "submit before open"
        future: _futures.Future[Any] = _futures.Future()
        try:
            future.set_result(self._fn(item))
        except Exception as exc:  # mirror the pool: failures are captured
            future.set_exception(exc)
        return future

    def forfeit(self, future: _futures.Future[Any]) -> None:
        raise DistributedError(
            "LocalThreadTransport cannot forfeit an inline submission"
        )

    def close(self) -> None:
        self._fn = None

    def abort(self) -> None:
        self._fn = None


class LocalPoolTransport:
    """Transport over a ``concurrent.futures`` process pool on this host.

    The pool is created at :meth:`open` (sized to the initial window) and
    its futures are the scheduler's, so input-pull pacing, in-order
    yield and cancel-on-failure are all the scheduler's.
    """

    def __init__(
        self,
        jobs: int,
        initializer: Callable[..., None] | None = None,
        initargs: tuple[Any, ...] = (),
    ) -> None:
        self.slots = jobs
        self._initializer = initializer
        self._initargs = initargs
        self._pool: _futures.ProcessPoolExecutor | None = None
        self._fn: Callable[[Any], Any] | None = None

    def open(self, fn: Callable[[Any], Any], head_size: int) -> None:
        # looked up through the module at call time so tests can swap the
        # pool class for an instant-completion fake
        self._pool = _futures.ProcessPoolExecutor(
            max_workers=min(self.slots, head_size),
            initializer=self._initializer,
            initargs=self._initargs,
        )
        self._fn = fn

    def submit(self, item: Any) -> _futures.Future[Any]:
        assert self._pool is not None and self._fn is not None, "submit before open"
        return self._pool.submit(self._fn, item)

    def forfeit(self, future: _futures.Future[Any]) -> None:
        raise DistributedError(
            "process-pool transport cannot forfeit a running submission"
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def abort(self) -> None:
        if self._pool is not None:
            # cancel queued work immediately, then join what is running
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool.shutdown(wait=True)
            self._pool = None


class _Slot:
    """Per-item scheduler accounting: the retry/timeout bookkeeping unit."""

    __slots__ = ("item", "future", "attempts", "deadline")

    def __init__(self, item: Any, future: _futures.Future[Any], deadline: float | None) -> None:
        self.item = item
        self.future = future
        self.attempts = 1
        self.deadline = deadline


class Scheduler:
    """Order-preserving map over a :class:`Transport`.

    Parameters
    ----------
    transport:
        Where items execute; its ``slots`` size the pacing windows.
    timeout:
        Per-item deadline in seconds, measured from submission (queue
        wait included).  An attempt that outlives it is forfeited via
        :meth:`Transport.forfeit` and retried like a lost-worker item.
        ``None`` (the default) disables deadline tracking entirely — no
        clock is ever read, which keeps the local transports' behavior
        byte-identical to the pre-refactor executor.
    max_attempts:
        Total tries per item (1 = no retry).  Only transport-level
        losses (:class:`~repro.errors.WorkerLostError`) are retried;
        an exception raised *by the item itself* is a real failure and
        propagates immediately — retrying it could mask nondeterminism.
    """

    def __init__(
        self,
        transport: Transport,
        timeout: float | None = None,
        max_attempts: int = 1,
    ) -> None:
        if max_attempts < 1:
            raise ExperimentError(f"max_attempts must be >= 1, got {max_attempts}")
        if timeout is not None and timeout <= 0:
            raise ExperimentError(f"timeout must be positive, got {timeout}")
        self.transport = transport
        self.timeout = timeout
        self.max_attempts = max_attempts
        #: retry/timeout accounting for the most recent (or running) map
        self.stats: dict[str, int] = {"retries": 0, "timeouts": 0}

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        """Yield ``fn(item)`` for each item, in input order."""
        self.stats["retries"] = 0
        self.stats["timeouts"] = 0
        return self._run(fn, items)

    def _run(self, fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
        transport = self.transport
        it = iter(items)
        window = transport.slots * PREFETCH_FACTOR
        max_unyielded = transport.slots * MAX_UNYIELDED_FACTOR
        head = list(islice(it, window))
        if not head:
            return
        transport.open(fn, len(head))
        try:
            pending: deque[_Slot] = deque(self._submit(item) for item in head)
            while pending:
                self._expire_overdue(pending)
                incomplete: list[_Slot] = []
                failed = False
                for slot in pending:
                    if not slot.future.done():
                        incomplete.append(slot)
                    elif slot.future.exception() is not None:
                        if self._retry(slot):
                            incomplete.append(slot)
                        else:
                            failed = True
                refill = 0 if failed else min(
                    window - len(incomplete),
                    max_unyielded - len(pending),
                )
                for item in islice(it, max(refill, 0)):
                    slot = self._submit(item)
                    pending.append(slot)
                    incomplete.append(slot)
                if not pending[0].future.done():
                    # head still running: park until *any* submission
                    # completes, then loop to refill its slot
                    _futures.wait(
                        [slot.future for slot in incomplete],
                        timeout=self._wait_timeout(incomplete),
                        return_when=_futures.FIRST_COMPLETED,
                    )
                    continue
                yield pending.popleft().future.result()
        except BaseException:
            transport.abort()
            raise
        else:
            transport.close()

    # ------------------------------------------------------------------
    # per-item accounting
    # ------------------------------------------------------------------
    def _submit(self, item: Any) -> _Slot:
        deadline = None if self.timeout is None else time.monotonic() + self.timeout
        return _Slot(item, self.transport.submit(item), deadline)

    def _retry(self, slot: _Slot) -> bool:
        """Resubmit a transport-lost item in place; False = real failure."""
        if not isinstance(slot.future.exception(), WorkerLostError):
            return False
        if slot.attempts >= self.max_attempts:
            return False
        slot.attempts += 1
        slot.future = self.transport.submit(slot.item)
        if self.timeout is not None:
            slot.deadline = time.monotonic() + self.timeout
        self.stats["retries"] += 1
        return True

    def _expire_overdue(self, pending: deque[_Slot]) -> None:
        """Forfeit every in-flight attempt past its deadline."""
        if self.timeout is None:
            return
        now = time.monotonic()
        for slot in pending:
            if (
                not slot.future.done()
                and slot.deadline is not None
                and now >= slot.deadline
            ):
                self.stats["timeouts"] += 1
                self.transport.forfeit(slot.future)

    def _wait_timeout(self, incomplete: Sequence[_Slot]) -> float | None:
        """Sleep budget for the next wait: up to the earliest deadline."""
        if self.timeout is None:
            return None
        deadlines = [
            slot.deadline for slot in incomplete if slot.deadline is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())
