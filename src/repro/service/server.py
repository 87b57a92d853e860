"""The asyncio serving front end: restoration-as-a-service.

:class:`ReproService` listens on TCP, speaks the newline-delimited JSON
protocol of :mod:`repro.service.protocol`, and dispatches compute ops
(``evaluate`` / ``restore`` / ``profile``) onto a worker executor via
``loop.run_in_executor`` — a process pool for ``jobs >= 2`` (each worker
keeps the per-process dataset/CSR/truth caches warm across requests, and
its truth-memo counters are merged back for honest stats), or a
single-thread executor for ``jobs = 1`` (in-process, zero pickling; the
GIL-bound compute still yields the event loop enough to keep progress
frames and new connections flowing).

Request lifecycle
-----------------
1. The frame is decoded and its params normalized; the normalized
   request's content address is the cache **and** coalescing key.
2. Response cache hit → answer immediately (no worker touched).
3. Miss with an identical request already in flight → *coalesce*: await
   the same computation future; every waiter gets the one result.
4. Otherwise start the computation.  While any waiter waits, the server
   emits periodic ``progress`` frames (long rewiring runs are minutes).
5. Per-request timeouts abandon the *wait*, never the computation —
   other coalesced waiters are unaffected and the result still lands in
   the cache; the timed-out client gets a ``service_timeout`` error
   frame.

Shutdown is graceful: :meth:`ReproService.drain` stops accepting,
rejects new compute requests with a ``service`` error frame, waits (up
to ``drain_timeout``) for every in-flight request to finish and flush its
terminal frame, then closes connections and the executor.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as _futures
import signal
import sys
import time

from repro.api.workers import pool_worker_init, publish_datasets
from repro.errors import ReproError, ServiceError, ServiceTimeoutError
from repro.experiments.runner import record_worker_truth_stats, truth_cache_stats
from repro.service.cache import ContentAddressedLRU
from repro.service.handlers import run_op
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    OPS,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_code,
    finite_number,
    normalize_request,
    request_key,
)

# Frames are small JSON objects; a 1 MiB line bound is far above any
# legitimate request and keeps a garbage stream from buffering unbounded.
_STREAM_LIMIT = 1 << 20

DEFAULT_PORT = 7331


class ReproService:
    """One serving instance: listener + executor + cache + metrics.

    Parameters
    ----------
    jobs:
        Worker parallelism.  ``>= 2`` runs a process pool (true
        parallelism; each worker process is initialized with an LRU
        bound of ``truth_cache_entries`` on its truth memo); ``1`` runs
        a single worker thread in process.
    cache_entries:
        Response-LRU bound (0 disables response caching).
    truth_cache_entries:
        Per-worker-process truth-memo LRU bound (process-pool mode).
    progress_interval:
        Seconds between ``progress`` frames while a request waits on its
        computation.
    default_timeout:
        Per-request time budget (seconds) when the request frame carries
        no ``timeout`` field; ``None`` waits indefinitely.
    drain_timeout:
        Upper bound on how long :meth:`drain` waits for in-flight
        requests before force-closing.
    shared_datasets:
        ``(dataset, scale)`` pairs to publish into shared memory at
        :meth:`start` (process-pool mode only): each worker attaches the
        frozen CSR snapshot zero-copy instead of rebuilding dataset +
        freeze per process, so pooled requests naming those datasets
        skip the per-worker cold start.  Responses stay byte-identical
        to a direct library call.  Ignored — harmlessly — when shared
        memory is unavailable or ``jobs == 1``.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache_entries: int = 128,
        truth_cache_entries: int = 8,
        progress_interval: float = 1.0,
        default_timeout: float | None = None,
        drain_timeout: float = 30.0,
        shared_datasets: tuple = (),
    ) -> None:
        if jobs < 1:
            raise ServiceError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._shared_datasets = tuple(shared_datasets)
        self._publication = None
        self._cache = ContentAddressedLRU(cache_entries)
        self._metrics = ServiceMetrics()
        self._inflight: dict[str, asyncio.Future] = {}
        self._progress_interval = progress_interval
        self._default_timeout = default_timeout
        self._drain_timeout = drain_timeout
        self._truth_cache_entries = truth_cache_entries
        self._executor: _futures.Executor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._active = 0
        self._idle: asyncio.Event | None = None
        self._draining = False
        self.host: str | None = None
        self.port: int | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting (``port=0`` picks an ephemeral port,
        read back from :attr:`port`)."""
        if self._server is not None:
            raise ServiceError("service already started")
        if self.jobs >= 2:
            descriptors: tuple = ()
            if self._shared_datasets:
                self._publication = publish_datasets(self._shared_datasets)
                if self._publication is not None:
                    descriptors = self._publication.descriptors
            self._executor = _futures.ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=pool_worker_init,
                initargs=(self._truth_cache_entries, descriptors),
            )
            self._executor_kind = "process"
        else:
            self._executor = _futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-service"
            )
            self._executor_kind = "thread"
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_client, host, port, limit=_STREAM_LIMIT
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start`` must have been called)."""
        if self._server is None:
            raise ServiceError("service not started")
        await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight requests, then close.

        New connections are refused (listener closed) and new compute
        requests on existing connections get a ``service`` error frame;
        requests already being handled run to completion and deliver
        their terminal frames — bounded by ``drain_timeout``, after
        which remaining connections are force-closed.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = True
        if self._idle is not None and self._active > 0:
            try:
                await asyncio.wait_for(self._idle.wait(), self._drain_timeout)
            except asyncio.TimeoutError:
                drained = False
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            # reap the per-connection tasks (they wake on the closed
            # transports) so none is left pending at loop shutdown
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self._executor is not None:
            if drained:
                self._executor.shutdown(wait=True)
            else:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._publication is not None:
            self._publication.close()
            self._publication = None

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``stats`` op's payload: counters, cache, latency, truth."""
        payload = self._metrics.snapshot()
        payload["cache"] = self._cache.stats()
        # merged view: parent-local activity plus worker deltas folded
        # back per completed computation (all-zero-from-workers bug was
        # exactly what the merged view exists to fix)
        payload["truth_cache"] = truth_cache_stats()
        payload["jobs"] = self.jobs
        payload["executor"] = getattr(self, "_executor_kind", None)
        payload["shared_datasets"] = (
            0 if self._publication is None else len(self._publication.descriptors)
        )
        payload["draining"] = self._draining
        payload["protocol_version"] = PROTOCOL_VERSION
        return payload

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # line exceeded the stream limit: not recoverable on
                    # this connection (we lost framing) — report + close
                    self._write_frame(
                        writer,
                        {
                            "id": None,
                            "event": "error",
                            "error_code": "protocol",
                            "message": "frame exceeds the line-length limit",
                        },
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_frame(line, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # swallow instead of re-raising: a cancelled stream-handler
            # task trips asyncio.streams' connection_made callback into
            # logging a spurious "exception never retrieved" traceback
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_frame(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one request frame; always writes exactly one terminal
        frame and never raises (connection errors excepted)."""
        start = time.perf_counter()
        self._active += 1
        self._idle.clear()
        request_id = None
        op = None
        known_op = None
        try:
            frame = decode_frame(line)
            request_id = frame.get("id")
            op = frame.get("op")
            # the per-op stats tables are keyed by protocol ops only, so a
            # client sending made-up op strings cannot grow them
            known_op = op if op in OPS else None
            self._metrics.record_request(known_op)
            params = normalize_request(op, frame.get("params"))
            timeout = self._request_timeout(frame)
            if op == "ping":
                result = {"ok": True, "protocol_version": PROTOCOL_VERSION}
            elif op == "stats":
                result = self.stats()
            else:
                if self._draining:
                    raise ServiceError(
                        "service is draining; compute requests are not accepted"
                    )
                result = await self._serve_compute(
                    writer, request_id, op, params, timeout, start
                )
            self._write_frame(
                writer,
                {"id": request_id, "event": "result", "op": op, "result": result},
            )
        except ReproError as exc:
            self._write_error(writer, request_id, op, error_code(exc), str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # internal fault: still answer the client
            self._write_error(writer, request_id, op, "internal", repr(exc))
        finally:
            self._metrics.record_latency(known_op, time.perf_counter() - start)
            self._active -= 1
            if self._active == 0:
                self._idle.set()
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _request_timeout(self, frame: dict) -> float | None:
        timeout = frame.get("timeout", self._default_timeout)
        if timeout is None:
            return None
        return finite_number(timeout, "timeout")

    # ------------------------------------------------------------------
    # compute path: cache -> coalesce -> executor
    # ------------------------------------------------------------------
    async def _serve_compute(
        self,
        writer: asyncio.StreamWriter,
        request_id,
        op: str,
        params: dict,
        timeout: float | None,
        start: float,
    ) -> dict:
        key = request_key(op, params)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        future = self._inflight.get(key)
        if future is None:
            future = asyncio.ensure_future(self._compute(op, key, params))
            # mark the exception retrieved even if every waiter times out
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            self._inflight[key] = future
        else:
            self._metrics.coalesced += 1
        return await self._await_with_progress(
            writer, request_id, op, future, timeout, start
        )

    async def _compute(self, op: str, key: str, params: dict) -> dict:
        """The single shared computation for one content address."""
        self._metrics.computations += 1
        loop = asyncio.get_running_loop()
        try:
            payload, truth_delta = await loop.run_in_executor(
                self._executor, run_op, op, params
            )
            if self._executor_kind == "process":
                # thread mode already bumped this process's own counters
                record_worker_truth_stats(truth_delta)
            self._cache.put(key, payload)
            return payload
        finally:
            self._inflight.pop(key, None)

    async def _await_with_progress(
        self,
        writer: asyncio.StreamWriter,
        request_id,
        op: str,
        future: asyncio.Future,
        timeout: float | None,
        start: float,
    ) -> dict:
        """Wait for the shared future, emitting periodic progress frames,
        enforcing this waiter's deadline without cancelling the shared
        computation (``asyncio.shield``)."""
        deadline = None if timeout is None else start + timeout
        while True:
            now = time.perf_counter()
            if deadline is not None and now >= deadline:
                self._metrics.timeouts += 1
                raise ServiceTimeoutError(
                    f"request exceeded its {timeout:g}s budget "
                    "(the computation continues for coalesced waiters "
                    "and will populate the cache)"
                )
            interval = self._progress_interval
            if deadline is not None:
                interval = min(interval, deadline - now)
            try:
                return await asyncio.wait_for(
                    asyncio.shield(future), max(interval, 1e-3)
                )
            except asyncio.TimeoutError:
                self._metrics.progress_frames += 1
                self._write_frame(
                    writer,
                    {
                        "id": request_id,
                        "event": "progress",
                        "op": op,
                        "state": "running",
                        "elapsed": round(time.perf_counter() - start, 3),
                    },
                )
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    # client went away: stop waiting on its behalf (the
                    # shared computation itself is untouched)
                    raise ServiceError("client disconnected mid-request") from None

    # ------------------------------------------------------------------
    # frame writing
    # ------------------------------------------------------------------
    @staticmethod
    def _write_frame(writer: asyncio.StreamWriter, frame: dict) -> None:
        if not writer.is_closing():
            writer.write(encode_frame(frame))

    def _write_error(
        self, writer: asyncio.StreamWriter, request_id, op, code: str, message: str
    ) -> None:
        self._metrics.record_error(code)
        self._write_frame(
            writer,
            {
                "id": request_id,
                "event": "error",
                "op": op,
                "error_code": code,
                "message": message,
            },
        )


async def serve(
    service: ReproService,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    announce=None,
) -> None:
    """Run ``service`` until SIGTERM/SIGINT, then drain gracefully.

    ``announce`` (a callable taking the ready line) defaults to printing
    on stderr — the CI smoke job and scripts poll for it / ping the port
    to detect readiness.
    """
    await service.start(host, port)
    if announce is None:
        def announce(text: str) -> None:
            print(text, file=sys.stderr, flush=True)
    announce(f"repro service listening on {service.host}:{service.port}")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signame in ("SIGTERM", "SIGINT"):
        try:
            loop.add_signal_handler(getattr(signal, signame), stop.set)
        except (NotImplementedError, OSError):  # non-unix event loops
            pass
    await stop.wait()
    announce("repro service draining")
    await service.drain()
    announce("repro service stopped")
