"""Wire protocol of the restoration service: newline-delimited JSON.

Every frame is one JSON object on one line.  Clients send request frames::

    {"id": "r1", "op": "evaluate", "params": {"dataset": "anybeat"}, "timeout": 30}

and receive, in order, zero or more progress frames followed by exactly
one terminal frame (``result`` or ``error``)::

    {"id": "r1", "event": "progress", "op": "evaluate", "elapsed": 2.0}
    {"id": "r1", "event": "result",   "op": "evaluate", "result": {...}}
    {"id": "r1", "event": "error",    "op": "evaluate", "error_code": "dataset", "message": "..."}

``id`` is chosen by the client and echoed verbatim (it may be absent).
Frames are serialized canonically (sorted keys, compact separators) so a
byte-level comparison of two responses is meaningful — the CI smoke job
and the service bench rely on that.

Content addressing
------------------
:func:`normalize_request` fills every omitted parameter with its default
and rejects unknown ops/params (:class:`~repro.errors.ProtocolError`), so
two requests that *mean* the same thing normalize to the same object.
:func:`content_address` hashes the canonical JSON of ``(op, params)``;
that address is the key for both the server's response LRU cache and its
request-coalescing table.

Type rules
----------
:func:`normalize_request` also checks each value against its parameter's
type, so a malformed request fails with a ``protocol`` error before any
work, never with ``internal``.  ``op`` must be a string and ``dataset`` a
string; ``methods`` null or a list of method names; a boolean parameter
a boolean; an integer parameter (``max_rewiring_attempts`` too, unless
null) an integer or an integral float, which becomes an int; any other
numeric parameter a finite number.  Booleans are not numbers, and NaN and
the infinities, which ``json.loads`` accepts, are rejected, in a frame's
``timeout`` too.

Error codes
-----------
:data:`ERROR_CODES` maps every class of the :class:`~repro.errors.ReproError`
hierarchy to a stable machine-readable code carried by error frames;
:func:`error_code` resolves an exception to the code of its most specific
mapped class (anything outside the hierarchy is ``"internal"``).  The
mapping is exhaustive by construction and a test asserts it stays so.
"""

from __future__ import annotations

import hashlib
import json
import math

from repro import errors
from repro.errors import ProtocolError, ReproError
from repro.experiments.runner import MethodAggregate
from repro.metrics.suite import PROPERTY_NAMES

PROTOCOL_VERSION = 1

# Stable wire codes for the full ReproError hierarchy.  Codes are part of
# the protocol contract: never change an existing one, only add new
# entries when the hierarchy grows (tests/test_service.py asserts the
# mapping covers every subclass exactly).
ERROR_CODES: dict[type[ReproError], str] = {
    errors.ReproError: "repro",
    errors.GraphError: "graph",
    errors.SamplingError: "sampling",
    errors.BudgetExhaustedError: "budget_exhausted",
    errors.CrawlFaultError: "crawl_fault",
    errors.NodeChurnedError: "node_churned",
    errors.QueryFailedError: "query_failed",
    errors.EstimationError: "estimation",
    errors.RealizabilityError: "realizability",
    errors.ConstructionError: "construction",
    errors.DatasetError: "dataset",
    errors.ExperimentError: "experiment",
    errors.DistributedError: "distributed",
    errors.WorkerLostError: "worker_lost",
    errors.EngineError: "engine",
    errors.StoreError: "store",
    errors.ServiceError: "service",
    errors.ServiceTimeoutError: "service_timeout",
    errors.ProtocolError: "protocol",
}

INTERNAL_ERROR_CODE = "internal"


def error_code(exc: BaseException) -> str:
    """The stable wire code for ``exc``: its most specific mapped class."""
    for klass in type(exc).__mro__:
        code = ERROR_CODES.get(klass)
        if code is not None:
            return code
    return INTERNAL_ERROR_CODE


def error_class(code: str) -> type[ReproError]:
    """The exception class a wire code maps back to (client side).

    Unknown codes — including ``"internal"`` — come back as the generic
    :class:`~repro.errors.ServiceError` so a client never crashes on a
    code added by a newer server.
    """
    for klass, known in ERROR_CODES.items():
        if known == code:
            return klass
    return errors.ServiceError


# ----------------------------------------------------------------------
# canonical serialization + content addressing
# ----------------------------------------------------------------------
def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, compact separators.

    Python's float repr is the shortest exact round-trip, so equal floats
    always serialize to equal text — canonical JSON equality is therefore
    a true bit-identity check on numeric payloads.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_address(obj) -> str:
    """SHA-256 hex digest of the canonical JSON of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def encode_frame(frame: dict) -> bytes:
    """One wire frame: canonical JSON plus the terminating newline."""
    return canonical_json(frame).encode("utf-8") + b"\n"


def decode_frame(line: bytes | str) -> dict:
    """Parse one frame line; :class:`ProtocolError` on anything malformed."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        frame = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer literal past
        # the interpreter's digit limit; RecursionError, deep nesting
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}"
        )
    return frame


# ----------------------------------------------------------------------
# request normalization
# ----------------------------------------------------------------------
_REQUIRED = object()

# Per-op parameter specs: name -> default (or _REQUIRED).  The evaluate
# defaults mirror ExperimentConfig / EvaluationConfig so an omitted
# parameter means exactly what the library default means, with one
# exception: ``runs`` is 3 here and 10 in ExperimentConfig.  Changing it
# would change what every request without ``runs`` computes, and its
# content address.
PARAM_SPECS: dict[str, dict[str, object]] = {
    "ping": {},
    "stats": {},
    "profile": {
        "dataset": _REQUIRED,
        "scale": 1.0,
        "backend": "auto",
    },
    "evaluate": {
        "dataset": _REQUIRED,
        "fraction": 0.10,
        "runs": 3,
        "methods": None,  # None -> all of METHOD_NAMES
        "rc": 50.0,
        "scale": 1.0,
        "seed": 1,
        "backend": "auto",
        "exact_paths": False,
        "max_rewiring_attempts": None,
        "exact_threshold": 600,
        "path_sources": 128,
        "betweenness_pivots": 64,
        "eval_seed": 7,
        # imperfect-crawler regime (repro.sampling.faults); all-zero means
        # ideal crawling, so existing requests normalize to the same cell
        "fault_rate": 0.0,
        "rate_limit": 0,
        "truncate_at": 0,
        "churn": 0.0,
    },
    "restore": {
        "dataset": _REQUIRED,
        "fraction": 0.10,
        "rc": 50.0,
        "scale": 1.0,
        "seed": 1,
        "backend": "auto",
        "fault_rate": 0.0,
        "rate_limit": 0,
        "truncate_at": 0,
        "churn": 0.0,
    },
}

OPS: tuple[str, ...] = tuple(PARAM_SPECS)


# The type of each parameter whose default is required or None, as a value
# of that type for the rules in _coerce (None stays allowed where it is the
# default).
_TYPED: dict[str, object] = {
    "dataset": "",
    "methods": ["method"],
    "max_rewiring_attempts": 0,
}


def normalize_request(op: str, params: dict | None) -> dict:
    """Validated params for ``op`` with every default filled in.

    Normalization is what makes content addressing work: a request that
    spells out a default and one that omits it produce the same object,
    hence the same cache/coalescing key.  Numeric values are coerced to
    the default's type (``3`` and ``3.0`` must hash alike); a non-string
    or unknown op, unknown params, missing required params and a value of
    the wrong type (the module docstring's type rules) raise
    :class:`ProtocolError`.
    """
    if not isinstance(op, str):
        raise ProtocolError(f"op must be a string, got {type(op).__name__}")
    spec = PARAM_SPECS.get(op)
    if spec is None:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ProtocolError(
            f"params must be a JSON object, got {type(params).__name__}"
        )
    unknown = sorted(set(params) - set(spec))
    if unknown:
        raise ProtocolError(f"unknown parameter(s) for {op!r}: {unknown}")
    normalized: dict[str, object] = {}
    for name, default in spec.items():
        if name in params:
            normalized[name] = _coerce(op, name, params[name], default)
        elif default is _REQUIRED:
            raise ProtocolError(f"missing required parameter {name!r} for {op!r}")
        else:
            normalized[name] = default
    return normalized


def _coerce(op: str, name: str, value, default):
    """``value`` checked against, and coerced to, the default's type."""
    if default is None and value is None:
        return None
    if default is _REQUIRED or default is None:
        default = _TYPED[name]
    if isinstance(default, float):
        return finite_number(value, op, name)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ProtocolError(f"{op}.{name} must be a boolean")
        return value
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ProtocolError(f"{op}.{name} must be a string")
        return value
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(m, str) for m in value
        ):
            raise ProtocolError(f"{op}.{name} must be a list of method names")
        return list(value)
    # every other default is an integer
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ProtocolError(f"{op}.{name} must be an integer")


def finite_number(value, *where: str) -> float:
    """``value`` as a finite float; :class:`ProtocolError`, naming the value
    by ``where`` joined with dots, for a boolean, a non-number, NaN, an
    infinity or an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{'.'.join(where)} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ProtocolError(f"{'.'.join(where)} must be a finite number")
    return number


def request_key(op: str, params: dict) -> str:
    """Cache/coalescing key: the content address of a normalized request."""
    return content_address({"op": op, "params": params})


# ----------------------------------------------------------------------
# result payloads
# ----------------------------------------------------------------------
def aggregates_to_payload(
    aggregates: dict[str, MethodAggregate], include_timings: bool = True
) -> dict:
    """JSON-able form of a cell's per-method aggregates.

    With ``include_timings=False`` every field is a deterministic
    function of the experiment config on fixed seeds — the exact subset
    the serial↔parallel bit-identity contract covers — so its canonical
    JSON is byte-comparable against a direct ``run_experiment`` call.
    """
    payload: dict[str, dict] = {}
    for method, agg in aggregates.items():
        entry = {
            "per_property": {name: agg.per_property[name] for name in PROPERTY_NAMES},
            "average_l1": agg.average_l1,
            "std_l1": agg.std_l1,
        }
        if include_timings:
            entry["total_seconds"] = agg.total_seconds
            entry["rewiring_seconds"] = agg.rewiring_seconds
        payload[method] = entry
    return payload
