"""Tests for :mod:`repro.service`: protocol, cache, coalescing, timeouts,
graceful drain, and the service↔library bit-identity contract."""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.cli import main
from repro.errors import (
    DatasetError,
    ProtocolError,
    ReproError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.experiments.runner import (
    ExperimentConfig,
    clear_truth_cache,
    run_experiment,
    set_truth_cache_limit,
    truth_cache_stats,
)
from repro.service import (
    ERROR_CODES,
    AsyncServiceClient,
    ContentAddressedLRU,
    ReproService,
    ServiceClient,
    aggregates_to_payload,
    canonical_json,
    content_address,
    decode_frame,
    encode_frame,
    error_class,
    error_code,
    normalize_request,
    quantile,
    request_key,
)
from repro.service import handlers as service_handlers
from repro.metrics.suite import EvaluationConfig
from repro.service.handlers import evaluate_config
from repro.service.protocol import OPS, PARAM_SPECS

EVAL_PARAMS = {
    "dataset": "anybeat",
    "fraction": 0.1,
    "runs": 1,
    "methods": ["rw"],
    "rc": 3,
    "scale": 0.12,
    "seed": 5,
    "exact_threshold": 200,
    "path_sources": 32,
    "betweenness_pivots": 16,
}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
PARAM_NAMES = sorted({name for spec in PARAM_SPECS.values() for name in spec})
FUZZ_PARAMS = (
    JSON_VALUES
    | st.dictionaries(st.sampled_from(PARAM_NAMES), JSON_VALUES, max_size=6)
    | st.fixed_dictionaries(
        {"dataset": st.just("anybeat")},
        optional={name: JSON_VALUES for name in PARAM_NAMES if name != "dataset"},
    )
)


# ----------------------------------------------------------------------
# error codes (satellite: stable machine-readable error_code)
# ----------------------------------------------------------------------
def _all_repro_errors(root=ReproError):
    yield root
    for sub in root.__subclasses__():
        yield from _all_repro_errors(sub)


class TestErrorCodes:
    def test_mapping_is_exhaustive_over_the_hierarchy(self):
        """Every class in the ReproError hierarchy must have its own
        entry — a new error class without a wire code is a bug here."""
        hierarchy = set(_all_repro_errors())
        mapped = set(ERROR_CODES)
        assert hierarchy == mapped, (
            f"unmapped: {hierarchy - mapped}; stale: {mapped - hierarchy}"
        )

    def test_codes_are_unique_and_stable(self):
        codes = list(ERROR_CODES.values())
        assert len(codes) == len(set(codes))
        # spot-check the documented anchors of the contract
        assert ERROR_CODES[errors.DatasetError] == "dataset"
        assert ERROR_CODES[errors.ServiceTimeoutError] == "service_timeout"
        assert ERROR_CODES[errors.ProtocolError] == "protocol"

    def test_error_code_resolves_most_specific_class(self):
        assert error_code(DatasetError("x")) == "dataset"
        assert error_code(ServiceTimeoutError("x")) == "service_timeout"
        assert error_code(ReproError("x")) == "repro"
        assert error_code(ValueError("x")) == "internal"

    def test_round_trip_through_error_class(self):
        for klass, code in ERROR_CODES.items():
            assert error_class(code) is klass
        assert error_class("internal") is ServiceError
        assert error_class("no-such-code") is ServiceError


# ----------------------------------------------------------------------
# protocol: frames, normalization, content addressing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        frame = {"id": "r1", "op": "ping", "params": {}}
        assert decode_frame(encode_frame(frame).rstrip(b"\n")) == frame

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json")
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2]")
        with pytest.raises(ProtocolError):
            decode_frame(b"\xff\xfe")
        # an integer literal past the interpreter's digit limit, and nesting
        # deeper than the decoder recurses, are malformed frames too
        with pytest.raises(ProtocolError):
            decode_frame(b'{"id": ' + b"1" * 5000 + b"}")
        with pytest.raises(ProtocolError):
            decode_frame(b"[" * 100_000)

    def test_normalize_fills_defaults(self):
        params = normalize_request("evaluate", {"dataset": "anybeat"})
        assert params["fraction"] == 0.10
        assert params["runs"] == 3
        assert params["backend"] == "auto"

    def test_evaluate_defaults_mirror_the_library(self):
        """An omitted evaluate parameter means the library default, except
        ``runs``: 3 here, 10 in ExperimentConfig, kept because changing it
        would move every request that omits it."""
        spec = PARAM_SPECS["evaluate"]
        cell = ExperimentConfig(dataset="anybeat")
        evaluation = EvaluationConfig()
        mirrored = {
            "fraction": cell.fraction,
            "rc": cell.rc,
            "scale": cell.scale,
            "seed": cell.seed,
            "max_rewiring_attempts": cell.max_rewiring_attempts,
            "backend": evaluation.backend,
            "exact_paths": evaluation.exact_paths,
            "exact_threshold": evaluation.exact_threshold,
            "path_sources": evaluation.path_sources,
            "betweenness_pivots": evaluation.betweenness_pivots,
            "eval_seed": evaluation.seed,
            "fault_rate": 0,
            "rate_limit": 0,
            "truncate_at": 0,
            "churn": 0,
        }
        assert set(spec) == set(mirrored) | {"dataset", "methods", "runs"}
        assert {name: spec[name] for name in mirrored} == mirrored
        # None stands for the library's method list; zero knobs, for ideal
        # crawling
        assert spec["methods"] is None
        defaults = evaluate_config(normalize_request("evaluate", {"dataset": "anybeat"}))
        assert defaults.methods == cell.methods
        assert defaults.fault_policy is None
        assert (spec["runs"], cell.runs) == (3, 10)

    def test_normalize_rejects_unknown(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            normalize_request("bogus", {})
        with pytest.raises(ProtocolError, match="unknown parameter"):
            normalize_request("profile", {"dataset": "a", "typo": 1})
        with pytest.raises(ProtocolError, match="missing required"):
            normalize_request("profile", {})

    def test_normalize_coerces_numeric_spelling(self):
        """3 vs 3.0 (and an omitted default vs a spelled-out one) must
        produce the same content address — that is what makes the cache
        and coalescing keys meaningful."""
        a = normalize_request("evaluate", {"dataset": "x", "runs": 3, "rc": 50})
        b = normalize_request("evaluate", {"dataset": "x", "rc": 50.0})
        assert a == b
        assert request_key("evaluate", a) == request_key("evaluate", b)

    def test_content_address_is_order_insensitive(self):
        assert content_address({"a": 1, "b": 2}) == content_address({"b": 2, "a": 1})
        assert content_address({"a": 1}) != content_address({"a": 2})

    def test_canonical_json_floats_round_trip(self):
        value = 0.5487502581155597
        assert canonical_json({"v": value}) == f'{{"v":{value!r}}}'

    @given(
        op=st.sampled_from(OPS) | JSON_VALUES,
        params=FUZZ_PARAMS,
        timeout=JSON_VALUES,
    )
    @settings(max_examples=300, deadline=None)
    def test_request_decoding_fuzz(self, op, params, timeout):
        """Arbitrary JSON as a frame's op, params and timeout decodes to a
        request of the spec's types, or fails with a ProtocolError —
        never with another exception, which the server reports as
        ``internal``."""
        line = json.dumps({"op": op, "params": params, "timeout": timeout})
        try:
            frame = decode_frame(line.encode("utf-8"))
            normalized = normalize_request(frame["op"], frame["params"])
            seconds = ReproService()._request_timeout(frame)
        except ProtocolError:
            return
        assert seconds is None or math.isfinite(seconds)
        assert json.loads(json.dumps(normalized, allow_nan=False)) == normalized
        spec = PARAM_SPECS[frame["op"]]
        for name, value in normalized.items():
            if name == "dataset":
                assert isinstance(value, str)
            elif name == "methods":
                assert value is None or all(isinstance(m, str) for m in value)
            elif name == "max_rewiring_attempts":
                assert value is None or type(value) is int
            else:
                assert type(value) is type(spec[name]), name


# ----------------------------------------------------------------------
# caches: response LRU + truth-memo bound
# ----------------------------------------------------------------------
class TestContentAddressedLRU:
    def test_lru_eviction_at_bound(self):
        cache = ContentAddressedLRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes recency: b is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2

    def test_zero_entries_disables_storage(self):
        cache = ContentAddressedLRU(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_bound_rejected(self):
        with pytest.raises(ServiceError):
            ContentAddressedLRU(-1)


class TestTruthMemoLimit:
    @pytest.fixture(autouse=True)
    def _restore(self):
        clear_truth_cache()
        yield
        set_truth_cache_limit(None)
        clear_truth_cache()

    def _run(self, scale):
        from repro.experiments.runner import ExperimentConfig
        from repro.metrics.suite import EvaluationConfig

        config = ExperimentConfig(
            dataset="anybeat", fraction=0.1, runs=1, methods=("rw",), rc=3.0,
            scale=scale,
            evaluation=EvaluationConfig(
                exact_threshold=200, path_sources=32, betweenness_pivots=16
            ),
        )
        run_experiment(config)

    def test_lru_bound_evicts_and_counts(self):
        set_truth_cache_limit(1)
        self._run(0.10)
        self._run(0.12)  # distinct (dataset, scale, ...) -> evicts 0.10
        self._run(0.10)  # must recompute: a third miss
        stats = truth_cache_stats()
        assert stats["misses"] == 3
        assert stats["evictions"] >= 2

    def test_limit_must_be_positive(self):
        with pytest.raises(ReproError):
            set_truth_cache_limit(0)


class TestQuantile:
    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert quantile(samples, 0.5) == 2.0
        assert quantile(samples, 0.99) == 4.0
        assert quantile([7.0], 0.5) == 7.0
        assert math.isnan(quantile([], 0.5))


# ----------------------------------------------------------------------
# server: concurrency semantics (in-process asyncio, jobs=1 thread mode)
# ----------------------------------------------------------------------
def _fake_profile(delay: float):
    """A deterministic, sleep-controlled stand-in for the profile handler
    — makes coalescing/timeout/drain timing exact instead of relying on
    real compute durations."""

    def handler(params):
        time.sleep(delay)
        return {"op": "profile", "scale": params["scale"], "fake": True}

    return handler


async def _start_service(**kwargs) -> ReproService:
    service = ReproService(**kwargs)
    await service.start()
    return service


class TestServiceConcurrency:
    def test_identical_concurrent_requests_coalesce(self, monkeypatch):
        """Two identical in-flight requests must compute once and fan the
        one result out to both waiters."""
        monkeypatch.setitem(
            service_handlers._HANDLERS, "profile", _fake_profile(0.2)
        )

        async def main():
            service = await _start_service(jobs=1, cache_entries=8)
            a = await AsyncServiceClient.connect(service.host, service.port)
            b = await AsyncServiceClient.connect(service.host, service.port)
            params = {"dataset": "anybeat", "scale": 0.5}
            r1, r2 = await asyncio.gather(
                a.request("profile", params), b.request("profile", params)
            )
            stats = await a.request("stats")
            await a.close()
            await b.close()
            await service.drain()
            return r1, r2, stats

        r1, r2, stats = asyncio.run(main())
        assert r1 == r2 == {"op": "profile", "scale": 0.5, "fake": True}
        assert stats["computations"] == 1
        assert stats["coalesced"] == 1
        assert stats["coalescing_ratio"] == 2.0

    def test_distinct_requests_do_not_coalesce(self, monkeypatch):
        monkeypatch.setitem(
            service_handlers._HANDLERS, "profile", _fake_profile(0.05)
        )

        async def main():
            service = await _start_service(jobs=1, cache_entries=8)
            a = await AsyncServiceClient.connect(service.host, service.port)
            b = await AsyncServiceClient.connect(service.host, service.port)
            await asyncio.gather(
                a.request("profile", {"dataset": "anybeat", "scale": 0.5}),
                b.request("profile", {"dataset": "anybeat", "scale": 0.6}),
            )
            stats = await a.request("stats")
            await a.close()
            await b.close()
            await service.drain()
            return stats

        stats = asyncio.run(main())
        assert stats["computations"] == 2
        assert stats["coalesced"] == 0

    def test_response_cache_eviction_at_lru_bound(self, monkeypatch):
        """cache_entries=1: a third distinct request evicts the first, so
        repeating the first must recompute."""
        monkeypatch.setitem(
            service_handlers._HANDLERS, "profile", _fake_profile(0.0)
        )

        async def main():
            service = await _start_service(jobs=1, cache_entries=1)
            c = await AsyncServiceClient.connect(service.host, service.port)
            first = {"dataset": "anybeat", "scale": 0.5}
            second = {"dataset": "anybeat", "scale": 0.6}
            await c.request("profile", first)
            await c.request("profile", first)  # cache hit
            await c.request("profile", second)  # evicts first
            await c.request("profile", first)  # must recompute
            stats = await c.request("stats")
            await c.close()
            await service.drain()
            return stats

        stats = asyncio.run(main())
        assert stats["computations"] == 3
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["evictions"] >= 1
        assert stats["cache"]["size"] == 1

    def test_per_request_timeout_fires(self, monkeypatch):
        monkeypatch.setitem(
            service_handlers._HANDLERS, "profile", _fake_profile(1.0)
        )

        async def main():
            service = await _start_service(
                jobs=1, cache_entries=8, progress_interval=0.05, drain_timeout=5.0
            )
            c = await AsyncServiceClient.connect(service.host, service.port)
            start = time.perf_counter()
            frames = await c.request_frames(
                "profile", {"dataset": "anybeat", "scale": 0.5}, timeout=0.2
            )
            elapsed = time.perf_counter() - start
            stats = await c.request("stats")
            await c.close()
            await service.drain()
            return frames, elapsed, stats

        frames, elapsed, stats = asyncio.run(main())
        terminal = frames[-1]
        assert terminal["event"] == "error"
        assert terminal["error_code"] == "service_timeout"
        assert elapsed < 0.9  # answered well before the 1s computation
        assert stats["timeouts"] == 1
        # progress frames were streamed before the deadline hit
        assert any(f["event"] == "progress" for f in frames[:-1])

    def test_timeout_does_not_poison_coalesced_waiter(self, monkeypatch):
        """One waiter timing out must not cancel the shared computation:
        a patient waiter on the same key still gets the result."""
        monkeypatch.setitem(
            service_handlers._HANDLERS, "profile", _fake_profile(0.4)
        )

        async def main():
            service = await _start_service(
                jobs=1, cache_entries=8, progress_interval=0.05
            )
            a = await AsyncServiceClient.connect(service.host, service.port)
            b = await AsyncServiceClient.connect(service.host, service.port)
            params = {"dataset": "anybeat", "scale": 0.5}
            impatient, patient = await asyncio.gather(
                a.request_frames("profile", params, timeout=0.1),
                b.request_frames("profile", params, timeout=5.0),
            )
            await a.close()
            await b.close()
            await service.drain()
            return impatient, patient

        impatient, patient = asyncio.run(main())
        assert impatient[-1]["error_code"] == "service_timeout"
        assert patient[-1]["event"] == "result"
        assert patient[-1]["result"]["fake"] is True

    def test_graceful_drain_finishes_in_flight_requests(self, monkeypatch):
        monkeypatch.setitem(
            service_handlers._HANDLERS, "profile", _fake_profile(0.3)
        )

        async def main():
            service = await _start_service(jobs=1, cache_entries=8)
            c = await AsyncServiceClient.connect(service.host, service.port)
            request = asyncio.ensure_future(
                c.request_frames("profile", {"dataset": "anybeat", "scale": 0.5})
            )
            await asyncio.sleep(0.1)  # request is mid-computation
            drain = asyncio.ensure_future(service.drain())
            frames = await request
            await drain
            with contextlib.suppress(Exception):
                await c.close()
            return frames

        frames = asyncio.run(main())
        assert frames[-1]["event"] == "result"
        assert frames[-1]["result"]["fake"] is True

    def test_draining_rejects_new_compute_requests(self, monkeypatch):
        monkeypatch.setitem(
            service_handlers._HANDLERS, "profile", _fake_profile(0.4)
        )

        async def main():
            service = await _start_service(jobs=1, cache_entries=8)
            a = await AsyncServiceClient.connect(service.host, service.port)
            b = await AsyncServiceClient.connect(service.host, service.port)
            in_flight = asyncio.ensure_future(
                a.request_frames("profile", {"dataset": "anybeat", "scale": 0.5})
            )
            await asyncio.sleep(0.1)
            drain = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.05)  # drain has set the flag by now
            rejected = await b.request_frames(
                "profile", {"dataset": "anybeat", "scale": 0.6}
            )
            frames = await in_flight
            await drain
            for client in (a, b):
                with contextlib.suppress(Exception):
                    await client.close()
            return frames, rejected

        frames, rejected = asyncio.run(main())
        assert frames[-1]["event"] == "result"
        assert rejected[-1]["event"] == "error"
        assert rejected[-1]["error_code"] == "service"
        assert "draining" in rejected[-1]["message"]

    def test_progress_frames_stream_before_result(self, monkeypatch):
        monkeypatch.setitem(
            service_handlers._HANDLERS, "profile", _fake_profile(0.35)
        )

        async def main():
            service = await _start_service(
                jobs=1, cache_entries=8, progress_interval=0.1
            )
            c = await AsyncServiceClient.connect(service.host, service.port)
            frames = await c.request_frames(
                "profile", {"dataset": "anybeat", "scale": 0.5}
            )
            await c.close()
            await service.drain()
            return frames

        frames = asyncio.run(main())
        progress = [f for f in frames if f["event"] == "progress"]
        assert len(progress) >= 2
        elapsed = [f["elapsed"] for f in progress]
        assert elapsed == sorted(elapsed)
        assert frames[-1]["event"] == "result"


class TestServiceErrors:
    def test_dataset_error_maps_to_stable_code(self):
        async def main():
            service = await _start_service(jobs=1)
            c = await AsyncServiceClient.connect(service.host, service.port)
            frames = await c.request_frames("profile", {"dataset": "nope"})
            await c.close()
            await service.drain()
            return frames

        frames = asyncio.run(main())
        assert frames[-1]["event"] == "error"
        assert frames[-1]["error_code"] == "dataset"

    def test_restore_beyond_the_paper_graph_is_a_dataset_error(self):
        """A scale whose stand-in would outgrow the paper's graph is
        refused before the worker starts building it."""

        async def main():
            service = await _start_service(jobs=1)
            c = await AsyncServiceClient.connect(service.host, service.port)
            frames = await c.request_frames(
                "restore", {"dataset": "anybeat", "scale": 6}
            )
            await c.close()
            await service.drain()
            return frames

        frames = asyncio.run(main())
        assert frames[-1]["event"] == "error"
        assert frames[-1]["error_code"] == "dataset"
        assert "largest scale" in frames[-1]["message"]

    def test_malformed_json_line_gets_protocol_error_frame(self):
        async def main():
            service = await _start_service(jobs=1)
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await service.drain()
            return decode_frame(line)

        frame = asyncio.run(main())
        assert frame["event"] == "error"
        assert frame["error_code"] == "protocol"

    @pytest.mark.parametrize(
        "line",
        [
            b'{"op": ["restore"], "params": {"dataset": "anybeat"}}',
            b'{"op": "restore", "params": {"dataset": ["anybeat"]}}',
            b'{"op": "evaluate", "params": {"dataset": "anybeat", "scale": 0.12,'
            b' "max_rewiring_attempts": "lots"}}',
            b'{"op": "evaluate", "params": {"dataset": "anybeat", "scale": 0.12,'
            b' "max_rewiring_attempts": 2.5}}',
            b'{"op": "evaluate", "params": {"dataset": "anybeat", "scale": 0.12,'
            b' "runs": 1, "methods": ["rw"], "max_rewiring_attempts": "lots"}}',
            b'{"op": "restore", "params": {"dataset": "anybeat", "scale": 0.12,'
            b' "rc": NaN}}',
            b'{"op": "restore", "params": {"dataset": "anybeat", "scale": 0.12,'
            b' "rc": Infinity}}',
            b'{"op": "restore", "params": {"dataset": "anybeat", "scale": 0.12},'
            b' "timeout": NaN}',
        ],
    )
    def test_ill_typed_request_gets_protocol_error_frame(self, line):
        # each frame once failed as `internal` or ran (and was cached) as
        # a request it does not spell; it must fail before any work
        async def main():
            service = await _start_service(jobs=1)
            reader, writer = await asyncio.open_connection(
                service.host, service.port
            )
            writer.write(line + b"\n")
            await writer.drain()
            frame = decode_frame(await reader.readline())
            while frame["event"] == "progress":
                frame = decode_frame(await reader.readline())
            writer.close()
            await service.drain()
            return frame, service.stats()

        frame, stats = asyncio.run(main())
        assert (frame["event"], frame["error_code"]) == ("error", "protocol")
        assert stats["cache"]["misses"] == stats["cache"]["size"] == 0

    def test_out_of_range_fraction_from_a_pool_worker_is_an_experiment_error(self):
        # the crawl budget refuses the fraction inside a pool worker; the
        # error must still reach the client with its own wire code
        async def main():
            service = await _start_service(jobs=2)
            c = await AsyncServiceClient.connect(service.host, service.port)
            frames = await c.request_frames(
                "restore", {"dataset": "anybeat", "scale": 0.12, "fraction": -0.5}
            )
            await c.close()
            await service.drain()
            return frames

        frames = asyncio.run(main())
        assert frames[-1]["event"] == "error"
        assert frames[-1]["error_code"] == "experiment"
        assert "fraction" in frames[-1]["message"]

    def test_unknown_op_and_params_get_protocol_error(self):
        async def main():
            service = await _start_service(jobs=1)
            c = await AsyncServiceClient.connect(service.host, service.port)
            bad_op = await c.request_frames("bogus")
            bad_param = await c.request_frames("profile", {"dataset": "x", "no": 1})
            for i in range(50):
                await c.request_frames(f"bogus-{i}")
            await c.close()
            await service.drain()
            return bad_op, bad_param, service.stats()

        bad_op, bad_param, stats = asyncio.run(main())
        assert bad_op[-1]["error_code"] == "protocol"
        assert bad_param[-1]["error_code"] == "protocol"
        # made-up op strings must not grow the per-op tables, but still count
        assert set(stats["requests"]["by_op"]) <= set(OPS)
        assert set(stats["latency"]["by_op"]) <= set(OPS)
        assert stats["requests"]["total"] == 52
        assert stats["latency"]["overall"]["count"] == 52
        assert stats["errors"]["by_code"]["protocol"] == 52

    def test_client_raises_mapped_exception(self, monkeypatch):
        monkeypatch.setitem(
            service_handlers._HANDLERS, "profile", _fake_profile(0.0)
        )

        async def main():
            service = await _start_service(jobs=1)
            c = await AsyncServiceClient.connect(service.host, service.port)
            try:
                with pytest.raises(DatasetError):
                    await c.request("evaluate", {"dataset": "nope"})
                with pytest.raises(ProtocolError):
                    await c.request("bogus")
            finally:
                await c.close()
                await service.drain()

        asyncio.run(main())


class TestServiceBitIdentity:
    """The contract the bench enforces at load, asserted once cheaply:
    the service's deterministic aggregates are byte-identical to a direct
    in-process ``run_experiment`` on the same request."""

    def test_evaluate_matches_direct_run_experiment(self):
        async def main():
            service = await _start_service(jobs=1, cache_entries=8)
            c = await AsyncServiceClient.connect(service.host, service.port)
            result = await c.request("evaluate", EVAL_PARAMS)
            repeat = await c.request("evaluate", EVAL_PARAMS)
            await c.close()
            await service.drain()
            return result, repeat

        result, repeat = asyncio.run(main())
        config = evaluate_config(normalize_request("evaluate", EVAL_PARAMS))
        direct = aggregates_to_payload(
            run_experiment(config), include_timings=False
        )
        assert canonical_json(result["aggregates"]) == canonical_json(direct)
        # the cached repeat is byte-identical, timings included
        assert canonical_json(repeat) == canonical_json(result)


# what a restore summary reports that is a measurement, not a result
RESTORE_TIMINGS = ("total_seconds", "rewiring_seconds", "phase_seconds")


@pytest.mark.parametrize(
    "faults", [{}, {"fault_rate": 0.1, "churn": 0.05}], ids=["ideal", "faulty"]
)
def test_restore_op_matches_cli_restore(faults, tmp_path, capsys):
    """The service's restore op and ``repro restore --out`` run one
    restore: their summaries agree on every field but the timings."""
    params = {"dataset": "anybeat", "scale": 0.1, "fraction": 0.1, "rc": 5, "seed": 3}
    payload, _ = service_handlers.run_op(
        "restore", normalize_request("restore", {**params, **faults})
    )
    argv = ["restore", "anybeat", "--scale", "0.1", "--fraction", "0.1"]
    argv += ["--rc", "5", "--seed", "3", "--out", str(tmp_path / "restored")]
    for name, value in faults.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    capsys.readouterr()
    cli = json.loads((tmp_path / "restored.json").read_text())
    served = payload["summary"]
    assert set(served) == set(cli)
    for name in RESTORE_TIMINGS:
        del served[name], cli[name]
    assert served == cli


class TestSyncClient:
    """The blocking client (what ``repro request`` uses) against a real
    server running on a background thread's event loop."""

    @contextlib.contextmanager
    def _running_service(self, **kwargs):
        service = ReproService(**kwargs)
        started = threading.Event()
        stop: dict = {}

        def runner():
            async def main():
                stop["event"] = asyncio.Event()
                stop["loop"] = asyncio.get_running_loop()
                await service.start()
                started.set()
                await stop["event"].wait()
                await service.drain()

            asyncio.run(main())

        thread = threading.Thread(target=runner, daemon=True)
        thread.start()
        assert started.wait(10), "service failed to start"
        try:
            yield service
        finally:
            stop["loop"].call_soon_threadsafe(stop["event"].set)
            thread.join(15)

    def test_ping_and_progress(self, monkeypatch):
        monkeypatch.setitem(
            service_handlers._HANDLERS, "profile", _fake_profile(0.25)
        )
        with self._running_service(jobs=1, progress_interval=0.1) as service:
            with ServiceClient(service.host, service.port) as client:
                assert client.request("ping")["ok"] is True
                progress: list[dict] = []
                result = client.request(
                    "profile",
                    {"dataset": "anybeat", "scale": 0.5},
                    on_progress=progress.append,
                )
                assert result["fake"] is True
                assert len(progress) >= 1
                with pytest.raises(DatasetError):
                    client.request("evaluate", {"dataset": "nope"})
