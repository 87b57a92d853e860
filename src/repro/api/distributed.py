"""Stdlib-only multi-host execution tier: socket transport + worker agent.

This is the third :class:`~repro.api.scheduler.Transport`: a coordinator
work-queue speaking length-prefixed frames over TCP to ``repro worker``
agents, so a sweep can shard across hosts while keeping the execution
contract intact — pre-spawned seeds, deterministic result order,
byte-identical ``include_timings=False`` CSVs.

Topology
--------
The coordinator (the process running the sweep) is the *server*: it
binds every distinct ``host:port`` in ``RunContext.workers`` and waits
for exactly ``len(workers)`` agents to dial in with
``repro worker --connect HOST:PORT``.  Fixed membership keeps startup
deterministic — the sweep begins only once every expected agent has
completed its handshake, and no agent may join later.

Wire format
-----------
Every frame is a 4-byte big-endian length prefix followed by a pickled
``dict`` with a ``"kind"`` key:

=========== =============================== ===========================
kind        fields                          direction
=========== =============================== ===========================
``hello``   ``wire``, ``fingerprint``       worker → coordinator
``welcome`` ``fn``                          coordinator → worker
``reject``  ``reason``                      coordinator → worker
``task``    ``seq``, ``item``               coordinator → worker
``result``  ``seq``, ``value``              worker → coordinator
``error``   ``seq``, ``exc``                worker → coordinator
``ping``    —                               coordinator → worker
``pong``    —                               worker → coordinator
``shutdown`` —                              coordinator → worker
=========== =============================== ===========================

The handshake pins two things: the wire version (:data:`WIRE_VERSION`)
and the *repo fingerprint* — a SHA-256 over every ``*.py`` source file
of the installed :mod:`repro` package.  A worker running different code
would silently break bit-identity, so it is rejected at connect time
instead.

Frames are pickled, so this transport is for **trusted networks only**
(the same trust model as ``multiprocessing`` — anyone who can connect
can execute code).  Bind to loopback or a private interface.

Coordinator threads
-------------------
After the handshake the coordinator drives each agent from one thread of
its own.  The thread takes the next submitted item from a shared queue,
ships it as a ``task`` frame, blocks on the agent's reply and completes
the item's :class:`concurrent.futures.Future`; the scheduler waits on
those futures with :func:`concurrent.futures.wait`.  Whichever agent is
free takes the next item — the bit-identity contract never depends on
*where* an item ran.  An agent left idle for one heartbeat interval is
pinged, and is lost if no ``pong`` arrives within three intervals.

Failure model
-------------
A dead worker (connection drop, or a missing pong while idle) fails the
item it holds with :class:`~repro.errors.WorkerLostError`; the scheduler
resubmits it in place, so a surviving worker runs it without perturbing
delivery order.  A per-item
timeout is enforced by the scheduler calling :meth:`SocketTransport.forfeit`,
which fails the overdue item and drops the worker holding it — there is
no remote cancel, so the stuck agent is abandoned along with its
connection, whose socket is shut down to wake the thread blocked on it.
When the last worker is gone, everything outstanding fails with
:class:`~repro.errors.DistributedError`, which is *not* retryable — the
sweep surfaces the failure instead of spinning.
"""

from __future__ import annotations

import concurrent.futures as _futures
import hashlib
import pickle
import queue
import socket
import struct
import threading
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from repro.errors import DistributedError, ExperimentError, WorkerLostError

#: Version of the frame protocol; bumped on any incompatible change and
#: checked during the handshake so mismatched coordinator/worker builds
#: fail loudly at connect time.
WIRE_VERSION = 1

_HEADER = struct.Struct(">I")
_MAX_FRAME = 1 << 30
_RECV_CHUNK = 1 << 16
_HANDSHAKE_TIMEOUT = 10.0


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``, validated."""
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ExperimentError(
            f"worker address must look like host:port, got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ExperimentError(
            f"worker address has a non-integer port: {address!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ExperimentError(f"worker port out of range 1..65535: {address!r}")
    return host, port


_fingerprint_cache: str | None = None


def repo_fingerprint() -> str:
    """SHA-256 over every ``*.py`` of the installed :mod:`repro` package.

    Computed from sorted ``(relative_path, file_digest)`` pairs, so it is
    stable across hosts that run the same source tree and differs on any
    code change — the handshake uses it to refuse workers whose code
    could produce different bytes than the coordinator's.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        acc = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            acc.update(path.relative_to(root).as_posix().encode())
            acc.update(b"\x00")
            acc.update(hashlib.sha256(path.read_bytes()).digest())
        _fingerprint_cache = acc.hexdigest()
    return _fingerprint_cache


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def send_frame(conn: socket.socket, frame: dict[str, Any]) -> None:
    """Serialize ``frame`` and write it with a length prefix."""
    payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    conn.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(conn: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on EOF at a frame boundary."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = conn.recv(min(n - got, _RECV_CHUNK))
        if not chunk:
            if got:
                raise DistributedError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(conn: socket.socket) -> dict[str, Any] | None:
    """Read one frame (blocking); ``None`` on clean EOF."""
    header = _recv_exact(conn, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        raise DistributedError(f"frame length {length} exceeds limit")
    payload = _recv_exact(conn, length)
    if payload is None:
        raise DistributedError("connection closed mid-frame")
    frame = pickle.loads(payload)
    if not isinstance(frame, dict) or "kind" not in frame:
        raise DistributedError("malformed frame: expected a dict with 'kind'")
    return frame


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
class SocketTransport:
    """Coordinator work-queue over TCP to ``repro worker`` agents.

    Parameters
    ----------
    workers:
        One ``"host:port"`` entry per expected agent.  Repeating an
        address means that many agents are expected on it; the
        coordinator binds each distinct address once.
    connect_timeout:
        Seconds to wait in :meth:`open` for the full membership to
        handshake before raising :class:`~repro.errors.DistributedError`.
    heartbeat:
        Ping interval in seconds.  An *idle* worker is pinged once per
        interval and declared lost if no pong arrives within three
        intervals; a busy worker is governed by the scheduler's per-item
        timeout instead (computation keeps a single-threaded agent from
        answering pings, so silence while busy is not evidence of death).
    """

    def __init__(
        self,
        workers: Sequence[str],
        connect_timeout: float = 30.0,
        heartbeat: float = 5.0,
    ) -> None:
        if not workers:
            raise ExperimentError("SocketTransport needs at least one worker address")
        self._addresses = tuple(parse_address(address) for address in workers)
        self._connect_timeout = connect_timeout
        self._heartbeat = heartbeat
        # submitted items, oldest first; ``None`` tells one agent thread
        # to shut its agent down
        self._queue: queue.SimpleQueue[
            tuple[int, _futures.Future[Any], Any] | None
        ] = queue.SimpleQueue()
        # guards everything below, and the completion of queued futures
        self._lock = threading.Lock()
        # future → connection of the agent running it; whoever pops an
        # entry (its agent thread, forfeit, or a lost agent's cleanup)
        # completes that future
        self._running: dict[_futures.Future[Any], socket.socket] = {}
        self._conns: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._live = 0
        self._next_seq = 0

    @property
    def slots(self) -> int:
        return len(self._addresses)

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def open(self, fn: Callable[[Any], Any], head_size: int) -> None:
        qualname = getattr(fn, "__qualname__", "")
        if "<locals>" in qualname or getattr(fn, "__name__", "") == "<lambda>":
            raise DistributedError(
                "distributed dispatch target must be a module-level function, "
                f"got {qualname or fn!r}"
            )
        try:
            pickle.dumps(fn)
        except Exception as exc:
            raise DistributedError(f"dispatch target is not picklable: {exc}") from exc
        listeners = self._bind_listeners()
        try:
            self._conns = self._accept_all(listeners, fn)
        finally:
            for listener in listeners:
                listener.close()
        self._queue = queue.SimpleQueue()
        self._live = len(self._conns)
        self._threads = [
            threading.Thread(
                target=self._drive,
                args=(index, conn),
                name=f"repro-agent-{index}",
                daemon=True,
            )
            for index, conn in enumerate(self._conns)
        ]
        for thread in self._threads:
            thread.start()

    def _bind_listeners(self) -> list[socket.socket]:
        listeners: list[socket.socket] = []
        try:
            for host, port in dict.fromkeys(self._addresses):
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                listener.bind((host, port))
                listener.listen(len(self._addresses))
                listener.settimeout(0.2)
                listeners.append(listener)
        except OSError as exc:
            for listener in listeners:
                listener.close()
            raise DistributedError(f"cannot bind coordinator listener: {exc}") from exc
        return listeners

    def _accept_all(
        self, listeners: list[socket.socket], fn: Callable[[Any], Any]
    ) -> list[socket.socket]:
        expected = len(self._addresses)
        deadline = time.monotonic() + self._connect_timeout
        conns: list[socket.socket] = []
        while len(conns) < expected:
            if time.monotonic() > deadline:
                for conn in conns:
                    conn.close()
                raise DistributedError(
                    f"only {len(conns)}/{expected} workers connected "
                    f"within {self._connect_timeout:.0f}s"
                )
            for listener in listeners:
                if len(conns) >= expected:
                    break
                try:
                    conn, _peer = listener.accept()
                except TimeoutError:
                    continue
                if self._handshake(conn, fn):
                    conns.append(conn)
        return conns

    def _handshake(self, conn: socket.socket, fn: Callable[[Any], Any]) -> bool:
        """Validate one dialing agent; True if it joined the membership."""
        conn.settimeout(_HANDSHAKE_TIMEOUT)
        try:
            hello = recv_frame(conn)
            if hello is None or hello.get("kind") != "hello":
                send_frame(conn, {"kind": "reject", "reason": "expected hello frame"})
                conn.close()
                return False
            reason = None
            if hello.get("wire") != WIRE_VERSION:
                reason = (
                    f"wire version mismatch: coordinator {WIRE_VERSION}, "
                    f"worker {hello.get('wire')}"
                )
            elif hello.get("fingerprint") != repo_fingerprint():
                reason = "repo fingerprint mismatch: worker runs different code"
            if reason is not None:
                send_frame(conn, {"kind": "reject", "reason": reason})
                conn.close()
                return False
            send_frame(conn, {"kind": "welcome", "fn": fn})
        except (OSError, DistributedError):
            conn.close()
            return False
        # a busy agent may compute for as long as an item takes; only the
        # scheduler's per-item timeout bounds that wait
        conn.settimeout(None)
        return True

    def close(self) -> None:
        """Send every agent thread its shutdown sentinel and join them all."""
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
        self._threads = []

    def abort(self) -> None:
        with self._lock:
            for future in self._drain():
                future.cancel()
        # wake every thread blocked on its agent, hung ones included; a
        # thread that took an item before the drain fails to ship it
        for conn in self._conns:
            _shut(conn)
        # the sentinels go in after the drain, which would remove them
        self.close()

    # ------------------------------------------------------------------
    # submission / completion
    # ------------------------------------------------------------------
    def submit(self, item: Any) -> _futures.Future[Any]:
        future: _futures.Future[Any] = _futures.Future()
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            if self._live:
                self._queue.put((seq, future, item))
                return future
        future.set_exception(DistributedError("no live workers to execute submission"))
        return future

    def forfeit(self, future: _futures.Future[Any]) -> None:
        with self._lock:
            if future.done():
                return
            conn = self._running.pop(future, None)
            future.set_exception(
                WorkerLostError(
                    "submission timed out before assignment"
                    if conn is None
                    else "worker lost (per-item timeout)"
                )
            )
        if conn is not None:
            # no remote cancel exists: abandon the worker with the item
            _shut(conn)

    def _drive(self, index: int, conn: socket.socket) -> None:
        """One agent's coordinator thread: ship, await the reply, complete."""
        held: _futures.Future[Any] | None = None
        reason = "shut down"
        try:
            while True:
                try:
                    entry = self._queue.get(timeout=self._heartbeat)
                except queue.Empty:
                    self._ping(conn)
                    continue
                if entry is None:
                    try:
                        send_frame(conn, {"kind": "shutdown"})
                    except OSError:
                        pass  # already gone, or shut down by abort
                    return
                seq, future, item = entry
                with self._lock:
                    if future.done():
                        continue  # forfeited while queued
                    self._running[future] = conn
                held = future
                send_frame(conn, {"kind": "task", "seq": seq, "item": item})
                reply = recv_frame(conn)
                if reply is None:
                    raise DistributedError("connection closed")
                kind = reply["kind"]
                if kind not in ("result", "error") or reply.get("seq") != seq:
                    raise DistributedError(f"unexpected {kind!r} frame for task {seq}")
                with self._lock:
                    if self._running.pop(future, None) is None:
                        return  # forfeited meanwhile: this agent is dropped
                held = None
                if kind == "result":
                    future.set_result(reply.get("value"))
                else:
                    error = reply.get("exc")
                    if not isinstance(error, BaseException):
                        error = DistributedError(f"worker {index} sent malformed error")
                    future.set_exception(error)
        except Exception as exc:  # any fault of this agent loses only this agent
            reason = str(exc) or type(exc).__name__
        finally:
            conn.close()
            self._retire(index, held, reason)

    def _ping(self, conn: socket.socket) -> None:
        """Heartbeat an idle agent; raise unless it answers in 3 intervals."""
        send_frame(conn, {"kind": "ping"})
        conn.settimeout(self._heartbeat * 3)
        try:
            reply = recv_frame(conn)
        except TimeoutError:
            raise DistributedError("heartbeat silence") from None
        finally:
            conn.settimeout(None)
        if reply is None or reply["kind"] != "pong":
            raise DistributedError("no pong to a heartbeat ping")

    def _retire(
        self, index: int, held: _futures.Future[Any] | None, reason: str
    ) -> None:
        """An agent thread ends: fail its item, and the queue if it was last."""
        message = f"worker {index} lost ({reason})"
        with self._lock:
            if held is not None and self._running.pop(held, None) is not None:
                held.set_exception(WorkerLostError(message))
            self._live -= 1
            if self._live:
                return
            failure = DistributedError(f"all workers lost; last: {message}")
            for future in self._drain():
                if not future.done():
                    future.set_exception(failure)

    def _drain(self) -> list[_futures.Future[Any]]:
        """Empty the queue (caller holds the lock); its waiting futures."""
        waiting: list[_futures.Future[Any]] = []
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                return waiting
            if entry is not None:
                waiting.append(entry[1])


def _shut(conn: socket.socket) -> None:
    """Wake a thread blocked on ``conn``: closing it from another thread
    would not, shutting it down does (and the agent sees its end)."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed by its thread


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def run_worker(
    address: str,
    connect_timeout: float = 60.0,
    chaos_mark: str | None = None,
    chaos_hang_on_task: int = 0,
) -> int:
    """The ``repro worker`` agent: dial the coordinator and serve tasks.

    Retries the TCP connect for up to ``connect_timeout`` seconds (the
    coordinator may not have bound yet), performs the version +
    fingerprint handshake, then loops: execute each ``task`` frame's
    item with the welcomed function, answer ``ping`` with ``pong``, and
    exit 0 on ``shutdown`` or coordinator EOF.  Item exceptions are
    shipped back in ``error`` frames (wrapped in
    :class:`~repro.errors.DistributedError` when unpicklable) — the
    agent itself survives them.  Serves exactly one coordinator session.

    ``chaos_mark``/``chaos_hang_on_task`` are test hooks: touch a marker
    file on the first task received, and hang (sleep) on the Nth task —
    they make the SIGKILL/timeout chaos tests deterministic.
    """
    host, port = parse_address(address)
    conn = _dial(host, port, connect_timeout)
    try:
        send_frame(
            conn,
            {"kind": "hello", "wire": WIRE_VERSION, "fingerprint": repo_fingerprint()},
        )
        greeting = recv_frame(conn)
        if greeting is None:
            raise DistributedError("coordinator hung up during handshake")
        if greeting.get("kind") == "reject":
            raise DistributedError(f"coordinator rejected worker: {greeting.get('reason')}")
        if greeting.get("kind") != "welcome":
            raise DistributedError(
                f"expected welcome frame, got {greeting.get('kind')!r}"
            )
        fn = greeting["fn"]
        conn.settimeout(None)
        return _serve(conn, fn, chaos_mark, chaos_hang_on_task)
    finally:
        conn.close()


def _dial(host: str, port: int, connect_timeout: float) -> socket.socket:
    deadline = time.monotonic() + connect_timeout
    while True:
        conn = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        conn.settimeout(_HANDSHAKE_TIMEOUT)
        try:
            conn.connect((host, port))
            return conn
        except OSError:
            conn.close()
            if time.monotonic() >= deadline:
                raise DistributedError(
                    f"could not reach coordinator at {host}:{port} "
                    f"within {connect_timeout:.0f}s"
                ) from None
            time.sleep(0.2)


def _serve(
    conn: socket.socket,
    fn: Callable[[Any], Any],
    chaos_mark: str | None,
    chaos_hang_on_task: int,
) -> int:
    tasks_seen = 0
    while True:
        frame = recv_frame(conn)
        if frame is None or frame["kind"] == "shutdown":
            return 0
        kind = frame["kind"]
        if kind == "ping":
            send_frame(conn, {"kind": "pong"})
            continue
        if kind != "task":
            raise DistributedError(f"unexpected frame kind {kind!r} from coordinator")
        tasks_seen += 1
        if chaos_mark is not None and tasks_seen == 1:
            Path(chaos_mark).touch()
        if chaos_hang_on_task and tasks_seen == chaos_hang_on_task:
            time.sleep(3600.0)
        seq = frame["seq"]
        try:
            value = fn(frame["item"])
        except Exception as exc:
            send_frame(conn, {"kind": "error", "seq": seq, "exc": _picklable(exc)})
            continue
        send_frame(conn, {"kind": "result", "seq": seq, "value": value})


def _picklable(exc: BaseException) -> BaseException:
    """The exception itself if it survives a pickle round-trip, else a wrapper."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return DistributedError(f"worker-side failure (unpicklable): {exc!r}")
