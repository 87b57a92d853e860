"""The distributed execution tier: scheduler core, socket transport, chaos.

Three layers of coverage:

* **Scheduler unit tests** over fake transports — retry/timeout
  accounting, in-order delivery, failure propagation — no sockets.
* **Wire-level tests** — frame round-trips, repo fingerprint, handshake
  rejection of mismatched workers.
* **End-to-end chaos** — real ``repro worker`` subprocesses on
  localhost: a sweep sharded over two agents must produce
  ``include_timings=False`` CSV byte-identical to the serial run, even
  when one agent is SIGKILLed mid-item or hangs past the per-item
  deadline.  The agents' ``--chaos-mark`` / ``--chaos-hang-on-task``
  hooks make both scenarios deterministic.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    RunContext,
    SerialExecutor,
    SocketExecutor,
    executor_for,
    run_sweep,
    sweep_to_csv,
)
from repro.api.distributed import (
    WIRE_VERSION,
    SocketTransport,
    decode_frames,
    parse_address,
    recv_frame,
    repo_fingerprint,
    send_frame,
)
from repro.api.scheduler import LocalThreadTransport, Scheduler
from repro.errors import DistributedError, ExperimentError, WorkerLostError
from repro.experiments.report import results_to_csv
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.sweeps import SweepGrid
from repro.metrics.suite import EvaluationConfig

FAST_EVAL = EvaluationConfig(exact_threshold=200, path_sources=32, betweenness_pivots=16)

_REPO_ROOT = Path(__file__).resolve().parents[1]


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return int(port)


def _spawn_worker(port: int, *extra: str) -> subprocess.Popen:
    """One ``repro worker`` agent subprocess dialing localhost:``port``."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_REPO_ROOT / "src"), str(_REPO_ROOT / "tests"), str(_REPO_ROOT)]
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--connect",
            f"127.0.0.1:{port}",
            *extra,
        ],
        env=env,
        cwd=str(_REPO_ROOT),
    )


def _dial(port: int, deadline_s: float = 10.0) -> socket.socket:
    """Connect to the coordinator, retrying until its listener is up."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=5.0)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.02)


def _reap(*procs: subprocess.Popen) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


def _double(x: int) -> int:
    """Module-level dispatch target (pickled to worker agents)."""
    return 2 * x


def _explode_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("boom three")
    return x


# ----------------------------------------------------------------------
# scheduler core over fake transports
# ----------------------------------------------------------------------
class _FakePending:
    def __init__(self, value=None, error=None, done=True):
        self._value = value
        self._error = error
        self._done = done

    def done(self):
        return self._done

    def exception(self):
        return self._error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value

    def fail(self, error):
        self._error = error
        self._done = True


class _FlakyTransport:
    """First attempt of a chosen item is lost to a 'dead worker'."""

    slots = 2

    def __init__(self, lose_first_attempt_of=()):
        self._lose = set(lose_first_attempt_of)
        self.attempts: dict[object, int] = {}
        self.closed = self.aborted = False
        self._fn = None

    def open(self, fn, head_size):
        self._fn = fn

    def submit(self, item):
        self.attempts[item] = self.attempts.get(item, 0) + 1
        if item in self._lose and self.attempts[item] == 1:
            return _FakePending(error=WorkerLostError("worker died"))
        try:
            return _FakePending(self._fn(item))
        except Exception as exc:
            return _FakePending(error=exc)

    def wait(self, pending, timeout=None):
        return

    def forfeit(self, pending):
        raise AssertionError("no deadlines in this test")

    def close(self):
        self.closed = True

    def abort(self):
        self.aborted = True


class _StallTransport:
    """Item 0's first attempt never completes; everything else instant."""

    slots = 1

    def __init__(self):
        self.attempts: dict[object, int] = {}
        self.forfeits = 0
        self._fn = None

    def open(self, fn, head_size):
        self._fn = fn

    def submit(self, item):
        self.attempts[item] = self.attempts.get(item, 0) + 1
        if item == 0 and self.attempts[0] == 1:
            return _FakePending(done=False)
        return _FakePending(self._fn(item))

    def wait(self, pending, timeout=None):
        time.sleep(min(timeout if timeout is not None else 0.005, 0.005))

    def forfeit(self, pending):
        self.forfeits += 1
        pending.fail(WorkerLostError("deadline blown"))

    def close(self):
        pass

    def abort(self):
        pass


class TestSchedulerCore:
    def test_local_thread_transport_matches_serial(self):
        scheduler = Scheduler(LocalThreadTransport())
        assert list(scheduler.map(_double, range(9))) == [2 * x for x in range(9)]
        assert scheduler.stats == {"retries": 0, "timeouts": 0}

    def test_local_thread_transport_propagates_failures(self):
        scheduler = Scheduler(LocalThreadTransport())
        out = []
        with pytest.raises(ValueError, match="boom three"):
            for value in scheduler.map(_explode_on_three, range(6)):
                out.append(value)
        assert out == [0, 1, 2]  # earlier results still yielded, in order

    def test_worker_loss_is_retried_in_place(self):
        transport = _FlakyTransport(lose_first_attempt_of={3})
        scheduler = Scheduler(transport, max_attempts=3)
        assert list(scheduler.map(_double, range(8))) == [2 * x for x in range(8)]
        assert scheduler.stats["retries"] == 1
        assert transport.attempts[3] == 2
        assert transport.closed and not transport.aborted

    def test_worker_loss_beyond_max_attempts_is_fatal(self):
        class _AlwaysLost(_FlakyTransport):
            def submit(self, item):
                self.attempts[item] = self.attempts.get(item, 0) + 1
                return _FakePending(error=WorkerLostError("worker died"))

        transport = _AlwaysLost()
        scheduler = Scheduler(transport, max_attempts=2)
        with pytest.raises(WorkerLostError):
            list(scheduler.map(_double, range(4)))
        assert transport.attempts[0] == 2  # retried once, then surfaced
        assert transport.aborted

    def test_item_errors_are_never_retried(self):
        transport = _FlakyTransport()
        scheduler = Scheduler(transport, max_attempts=5)
        with pytest.raises(ValueError, match="boom three"):
            list(scheduler.map(_explode_on_three, range(6)))
        assert transport.attempts[3] == 1  # a real failure is not re-run

    def test_per_item_timeout_forfeits_and_retries(self):
        transport = _StallTransport()
        scheduler = Scheduler(transport, timeout=0.05, max_attempts=2)
        assert list(scheduler.map(_double, range(3))) == [0, 2, 4]
        assert transport.forfeits == 1
        assert scheduler.stats["timeouts"] == 1
        assert scheduler.stats["retries"] == 1
        assert transport.attempts[0] == 2

    def test_scheduler_validates_knobs(self):
        with pytest.raises(ExperimentError):
            Scheduler(LocalThreadTransport(), max_attempts=0)
        with pytest.raises(ExperimentError):
            Scheduler(LocalThreadTransport(), timeout=0.0)


# ----------------------------------------------------------------------
# wire level
# ----------------------------------------------------------------------
class TestWire:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"kind": "task", "seq": 7, "item": (1, "x")})
            frame = recv_frame(b)
            assert frame == {"kind": "task", "seq": 7, "item": (1, "x")}
        finally:
            a.close()
            b.close()

    def test_decode_frames_handles_partials_and_batches(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"kind": "ping"})
            send_frame(a, {"kind": "pong"})
            raw = b.recv(1 << 16)
        finally:
            a.close()
            b.close()
        first_end = 4 + int.from_bytes(raw[:4], "big")
        cut = first_end + 2  # one whole frame plus a sliver of the next
        buffer = bytearray(raw[:cut])
        assert decode_frames(buffer) == [{"kind": "ping"}]
        buffer.extend(raw[cut:])
        assert decode_frames(buffer) == [{"kind": "pong"}]
        assert not buffer

    def test_repo_fingerprint_is_stable(self):
        assert repo_fingerprint() == repo_fingerprint()
        assert len(repo_fingerprint()) == 64

    def test_parse_address(self):
        assert parse_address("10.0.0.5:9000") == ("10.0.0.5", 9000)
        for bad in ("localhost", "host:", ":9000", "host:abc", "host:0", "host:70000"):
            with pytest.raises(ExperimentError):
                parse_address(bad)

    def test_open_rejects_non_module_level_dispatch(self):
        transport = SocketTransport([f"127.0.0.1:{_free_port()}"])
        with pytest.raises(DistributedError, match="module-level"):
            transport.open(lambda x: x, 2)  # reprolint: disable=REP201 rejection under test

    def test_open_times_out_without_workers(self):
        transport = SocketTransport(
            [f"127.0.0.1:{_free_port()}"], connect_timeout=0.4
        )
        with pytest.raises(DistributedError, match="0/1 workers"):
            transport.open(_double, 2)

    def test_handshake_rejects_stale_worker(self):
        """A worker with the wrong wire version or fingerprint is turned
        away with a reject frame; a compliant worker then joins."""
        port = _free_port()
        transport = SocketTransport([f"127.0.0.1:{port}"], connect_timeout=10.0)
        opened = threading.Thread(target=transport.open, args=(_double, 2))
        opened.start()
        try:
            rejections = []
            for hello in (
                {"kind": "hello", "wire": WIRE_VERSION + 9, "fingerprint": repo_fingerprint()},
                {"kind": "hello", "wire": WIRE_VERSION, "fingerprint": "f" * 64},
            ):
                conn = _dial(port)
                try:
                    send_frame(conn, hello)
                    reply = recv_frame(conn)
                    assert reply is not None and reply["kind"] == "reject"
                    rejections.append(reply["reason"])
                finally:
                    conn.close()
            assert "wire version" in rejections[0]
            assert "fingerprint" in rejections[1]
            good = _dial(port)
            try:
                send_frame(
                    good,
                    {
                        "kind": "hello",
                        "wire": WIRE_VERSION,
                        "fingerprint": repo_fingerprint(),
                    },
                )
                welcome = recv_frame(good)
                assert welcome is not None and welcome["kind"] == "welcome"
                assert welcome["fn"] is _double
            finally:
                opened.join(timeout=10.0)
                transport.close()
                good.close()
        finally:
            if opened.is_alive():  # pragma: no cover - diagnostics only
                opened.join(timeout=1.0)

    def test_worker_cli_exits_nonzero_on_reject(self):
        port = _free_port()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", port))
        listener.listen(1)
        listener.settimeout(30.0)
        proc = _spawn_worker(port)
        try:
            conn, _peer = listener.accept()
            try:
                hello = recv_frame(conn)
                assert hello is not None and hello["kind"] == "hello"
                assert hello["wire"] == WIRE_VERSION
                assert hello["fingerprint"] == repo_fingerprint()
                send_frame(conn, {"kind": "reject", "reason": "testing rejection"})
            finally:
                conn.close()
            assert proc.wait(timeout=30) == 1
        finally:
            listener.close()
            _reap(proc)


# ----------------------------------------------------------------------
# context / dispatch plumbing
# ----------------------------------------------------------------------
class TestContextPlumbing:
    def test_executor_for_dispatches_to_socket_executor(self):
        executor = executor_for(RunContext(workers=("127.0.0.1:9000",) * 2))
        assert isinstance(executor, SocketExecutor)
        assert executor.jobs == 2

    def test_workers_validation(self):
        with pytest.raises(ExperimentError):
            RunContext(workers=("nonsense",))
        with pytest.raises(ExperimentError):
            RunContext(workers=())
        with pytest.raises(ExperimentError):
            RunContext(workers=("127.0.0.1:9000",), jobs=2)

    def test_workers_normalize_to_tuple(self):
        ctx = RunContext(workers=["127.0.0.1:9000", "127.0.0.1:9001"])
        assert ctx.workers == ("127.0.0.1:9000", "127.0.0.1:9001")

    def test_parallelism(self):
        assert RunContext(workers=("127.0.0.1:9000",) * 3).parallelism == 3
        assert RunContext(jobs=3).parallelism == 3
        assert RunContext().parallelism == 1

    def test_items_carry_no_context(self, monkeypatch):
        """Every work-item is one ``(ExperimentConfig, run_seed)`` pair: no
        RunContext rides along, so no worker can open a nested pool or its
        own coordinator.  Cells of uneven ``runs`` still regroup into the
        aggregates their serial in-process loops produce."""
        import repro.api.run as run_module

        seen = []

        class RecordingExecutor(SerialExecutor):
            def map(self, fn, items):
                items = list(items)
                seen.extend(items)
                return super().map(fn, items)

        monkeypatch.setattr(
            run_module, "executor_for", lambda context, *init: RecordingExecutor()
        )
        context = RunContext(workers=("127.0.0.1:9000",) * 2, seed=11)
        cells = context.materialize(
            ExperimentConfig(
                dataset="anybeat", fraction=fraction, runs=runs,
                methods=("rw",), rc=3.0, scale=0.12, evaluation=FAST_EVAL,
            )
            for fraction, runs in ((0.1, 1), (0.2, 2))
        )
        pooled = list(run_module.map_cells(cells, context))

        assert len(seen) == 3  # Σ runs over the cells
        for config, run_seed in seen:  # exactly a pair: nothing else rides along
            assert type(config) is ExperimentConfig and type(run_seed) is int
        serial = [run_experiment(cell) for cell in cells]
        for pooled_cell, serial_cell in zip(pooled, serial, strict=True):
            assert results_to_csv(
                {"cell": pooled_cell}, include_timings=False
            ) == results_to_csv({"cell": serial_cell}, include_timings=False)


# ----------------------------------------------------------------------
# end to end on localhost agents
# ----------------------------------------------------------------------
_SWEEP_GRID = SweepGrid(
    datasets=("anybeat",),
    fractions=(0.1, 0.15, 0.2),
    rcs=(3.0,),
    runs=1,
    methods=("rw", "proposed"),
    scale=0.12,
    evaluation=FAST_EVAL,
)


def _serial_sweep_csv() -> str:
    return sweep_to_csv(
        run_sweep(_SWEEP_GRID, context=RunContext(seed=5)), include_timings=False
    )


class TestEndToEnd:
    def test_socket_executor_maps_in_order(self):
        port = _free_port()
        workers = [_spawn_worker(port), _spawn_worker(port)]
        try:
            executor = SocketExecutor([f"127.0.0.1:{port}"] * 2)
            assert list(executor.map(_double, range(20))) == [2 * x for x in range(20)]
            assert executor.stats == {"retries": 0, "timeouts": 0}
        finally:
            _reap(*workers)

    def test_remote_item_error_propagates(self):
        port = _free_port()
        workers = [_spawn_worker(port), _spawn_worker(port)]
        try:
            executor = SocketExecutor([f"127.0.0.1:{port}"] * 2)
            with pytest.raises(ValueError, match="boom three"):
                list(executor.map(_explode_on_three, range(6)))
        finally:
            _reap(*workers)

    def test_distributed_sweep_bit_identical_to_serial(self):
        port = _free_port()
        workers = [_spawn_worker(port), _spawn_worker(port)]
        try:
            context = RunContext(seed=5, workers=(f"127.0.0.1:{port}",) * 2)
            distributed = sweep_to_csv(
                run_sweep(_SWEEP_GRID, context=context), include_timings=False
            )
            assert distributed == _serial_sweep_csv()
        finally:
            _reap(*workers)

    def test_sigkill_chaos_reassigns_and_stays_bit_identical(self, tmp_path):
        """SIGKILL one of two agents while it holds an item: the
        coordinator must notice the dead connection, reassign the lost
        item to the survivor, and the final CSV must not change a byte."""
        port = _free_port()
        mark = tmp_path / "victim-got-a-task"
        victim = _spawn_worker(
            port, "--chaos-mark", str(mark), "--chaos-hang-on-task", "1"
        )
        survivor = _spawn_worker(port)

        def _kill_on_mark() -> None:
            deadline = time.monotonic() + 120.0
            while not mark.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            os.kill(victim.pid, signal.SIGKILL)

        killer = threading.Thread(target=_kill_on_mark)
        killer.start()
        try:
            context = RunContext(seed=5, workers=(f"127.0.0.1:{port}",) * 2)
            distributed = sweep_to_csv(
                run_sweep(_SWEEP_GRID, context=context), include_timings=False
            )
            killer.join(timeout=130)
            assert mark.exists(), "victim never received a task"
            assert distributed == _serial_sweep_csv()
        finally:
            killer.join(timeout=130)
            _reap(victim, survivor)

    def test_per_item_timeout_chaos_reassigns(self):
        """An agent that hangs on its first item blows the per-item
        deadline: the coordinator forfeits it, drops the agent, and the
        survivor finishes the map with nothing lost or reordered."""
        port = _free_port()
        hung = _spawn_worker(port, "--chaos-hang-on-task", "1")
        survivor = _spawn_worker(port)
        try:
            executor = SocketExecutor(
                [f"127.0.0.1:{port}"] * 2, timeout=3.0, max_attempts=2
            )
            assert list(executor.map(_double, range(8))) == [2 * x for x in range(8)]
            assert executor.stats["timeouts"] >= 1
            assert executor.stats["retries"] >= 1
        finally:
            _reap(hung, survivor)
