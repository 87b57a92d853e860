"""Lint configuration: what to walk, what to exempt, where contracts live.

The defaults describe *this* repository — the target directories, the
timing/metrics allowlist for the wall-clock rule, the deterministic
layers the ordering rule covers, and the three contract files the wiring
rules cross-check.  Tests point the same knobs at fixture trees, which is
how every rule gets a positive/negative pair without touching the real
tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

#: Directories a default lint run walks, relative to the repo root.
DEFAULT_TARGETS: tuple[str, ...] = ("src", "tests", "benchmarks", "scripts")

#: Files allowed to read clocks (``REP105``): the timing/metrics layer.
#: Benchmarks and tests measure wall-clock by design; the library files
#: listed here are the designated timing surfaces (``Stopwatch``, the
#: service latency metrics and progress frames, per-method generation
#: timings) plus the execution core's liveness machinery (scheduler
#: deadlines, coordinator heartbeats and connect timeouts — clocks there
#: decide *where/when* items run, never what they compute, so the
#: results stay pure functions of their inputs).  Everything else must
#: stay a pure function of its inputs.
#: Patterns are :func:`fnmatch.fnmatch` globs over POSIX relpaths.
DEFAULT_WALLCLOCK_ALLOWLIST: tuple[str, ...] = (
    "benchmarks/*",
    "tests/*",
    "src/repro/utils/timers.py",
    "src/repro/experiments/methods.py",
    "src/repro/service/metrics.py",
    "src/repro/service/server.py",
    "src/repro/api/scheduler.py",
    "src/repro/api/distributed.py",
)

#: Layers whose iteration order feeds deterministic outputs (``REP401``):
#: the engine kernels, the sampling/crawl layer, the estimators, target
#: construction and the dK graph generators, the experiment harness, and
#: the graph substrate/generators they all build on.
DEFAULT_ORDERED_LAYERS: tuple[str, ...] = (
    "src/repro/engine/*",
    "src/repro/sampling/*",
    "src/repro/estimators/*",
    "src/repro/restore/*",
    "src/repro/dk/*",
    "src/repro/experiments/*",
    "src/repro/graph/*",
)


@dataclass(frozen=True)
class LintConfig:
    """Frozen description of one lint run.

    Parameters
    ----------
    root:
        Repository root; every relpath and glob is resolved against it.
    targets:
        Directories (or single files) under ``root`` to walk.
    wallclock_allowlist:
        Relpath globs exempt from the wall-clock rule.
    ordered_layers:
        Relpath globs the unsorted-set-iteration rule applies to.
    errors_path / protocol_path / dispatch_path:
        The three contract files the cross-file wiring rules check: the
        exception hierarchy, the wire-code table, and the kernel
        dispatch/threshold table.  A missing file skips its rule (fixture
        trees for the per-file rules need none of them).
    error_root / error_table / threshold_table:
        Names of the hierarchy root class and the two contract tables.
    baseline_path:
        The committed baseline file, relative to ``root``.
    """

    root: Path
    targets: tuple[str, ...] = DEFAULT_TARGETS
    wallclock_allowlist: tuple[str, ...] = DEFAULT_WALLCLOCK_ALLOWLIST
    ordered_layers: tuple[str, ...] = DEFAULT_ORDERED_LAYERS
    errors_path: str = "src/repro/errors.py"
    protocol_path: str = "src/repro/service/protocol.py"
    dispatch_path: str = "src/repro/engine/dispatch.py"
    error_root: str = "ReproError"
    error_table: str = "ERROR_CODES"
    threshold_table: str = "AUTO_KERNEL_THRESHOLDS"
    baseline_path: str = "reprolint-baseline.json"
    exclude_parts: tuple[str, ...] = field(
        default=("__pycache__", ".git", ".venv", "build", "dist")
    )

    def is_wallclock_allowed(self, relpath: str) -> bool:
        """True when ``relpath`` may read clocks (timing/metrics layer)."""
        return any(fnmatch(relpath, pat) for pat in self.wallclock_allowlist)

    def in_ordered_layer(self, relpath: str) -> bool:
        """True when the ordering rule applies to ``relpath``."""
        return any(fnmatch(relpath, pat) for pat in self.ordered_layers)


def find_repo_root(start: Path | None = None) -> Path:
    """The nearest ancestor of ``start`` holding a ``pyproject.toml``.

    Falls back to ``start`` itself so the linter still runs (with relative
    diagnostics) when invoked outside a checkout.
    """
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return here


def default_config(root: Path | None = None) -> LintConfig:
    """The repo's own configuration, rooted at ``root`` (auto-detected)."""
    return LintConfig(root=find_repo_root(root))
