"""Tests for the reprolint determinism & contract linter.

Every rule gets the four-way fixture treatment — a positive snippet that
fires, the same snippet with an inline suppression (clean), a genuinely
clean variant, and an unused suppression (``REP001``) — plus the
cross-file contract rules against deliberately broken fixture trees, the
baseline's byte-reproducibility, and the real repository tree linting
clean end to end.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    all_rules,
    default_config,
    find_repo_root,
    format_diagnostic,
    lint_paths,
    run_lint,
    rule_catalog,
    write_baseline,
)
from repro.lint.baseline import load_baseline, render_baseline, split_baselined
from repro.lint.cli import main as lint_main
from repro.lint.diagnostics import Diagnostic
from repro.lint.suppress import parse_suppressions

REPO_ROOT = find_repo_root(Path(__file__).resolve().parent)


# ----------------------------------------------------------------------
# harness: lint one snippet in a throwaway fixture tree
# ----------------------------------------------------------------------


def lint_snippet(
    tmp_path: Path,
    source: str,
    relpath: str = "src/repro/engine/mod.py",
) -> list[Diagnostic]:
    """Findings for one dedented snippet written at ``relpath``."""
    (tmp_path / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    config = LintConfig(root=tmp_path)
    findings, files = lint_paths(config)
    assert files == 1
    return findings


def rules_of(findings: list[Diagnostic]) -> list[str]:
    return [diag.rule for diag in findings]


# ----------------------------------------------------------------------
# registry and diagnostics
# ----------------------------------------------------------------------


class TestRegistry:
    def test_rule_ids_unique_and_stable(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        # the published catalog — extend, never renumber
        assert ids == [
            "REP000", "REP001", "REP101", "REP102", "REP103", "REP104",
            "REP105", "REP201", "REP202", "REP301", "REP302", "REP303",
            "REP401",
        ]

    def test_catalog_lists_every_rule(self):
        catalog = rule_catalog()
        for rule in all_rules():
            assert rule.id in catalog
            assert rule.name in catalog

    def test_diagnostic_format(self):
        diag = Diagnostic(path="src/x.py", line=3, col=7, rule="REP101", message="m")
        assert format_diagnostic(diag) == "src/x.py:3:7: REP101 m"

    def test_diagnostics_sort_by_location(self):
        a = Diagnostic(path="a.py", line=2, col=1, rule="REP102", message="x")
        b = Diagnostic(path="a.py", line=10, col=1, rule="REP101", message="y")
        c = Diagnostic(path="b.py", line=1, col=1, rule="REP101", message="z")
        assert sorted([c, b, a]) == [a, b, c]


# ----------------------------------------------------------------------
# parse errors and suppression plumbing
# ----------------------------------------------------------------------


class TestParseAndSuppress:
    def test_unparseable_file_is_rep000(self, tmp_path):
        findings = lint_snippet(tmp_path, "def broken(:\n")
        assert rules_of(findings) == ["REP000"]

    def test_parse_error_cannot_be_suppressed(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "def broken(:  # reprolint: disable=REP000\n"
        )
        assert rules_of(findings) == ["REP000"]

    def test_directive_inside_string_is_not_a_suppression(self):
        table = parse_suppressions('x = "# reprolint: disable=REP101"\n')
        assert table.by_line == {}

    def test_multi_rule_directive(self):
        table = parse_suppressions(
            "x = 1  # reprolint: disable=REP101,REP104 justification text\n"
        )
        assert set(table.by_line[1]) == {"REP101", "REP104"}

    def test_unused_suppression_is_rep001(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "x = 1  # reprolint: disable=REP101\n"
        )
        assert rules_of(findings) == ["REP001"]
        assert "REP101" in findings[0].message

    def test_used_suppression_is_not_rep001(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import random
            r = random.Random()  # reprolint: disable=REP101 fixture
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# family 1: seed discipline
# ----------------------------------------------------------------------


class TestSeedDiscipline:
    def test_rep101_unseeded_random(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import random
            r = random.Random()
            """,
        )
        assert rules_of(findings) == ["REP101"]

    def test_rep101_unseeded_default_rng_via_alias(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import numpy as np
            gen = np.random.default_rng()
            """,
        )
        assert rules_of(findings) == ["REP101"]

    def test_rep101_system_random(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            from random import SystemRandom
            r = SystemRandom()
            """,
        )
        assert rules_of(findings) == ["REP101"]

    def test_rep101_seeded_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import random
            import numpy as np
            r = random.Random(7)
            gen = np.random.default_rng(7)
            """,
        )
        assert findings == []

    def test_rep102_module_level_draw(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import random
            x = random.randint(0, 10)
            """,
        )
        assert rules_of(findings) == ["REP102"]

    def test_rep102_from_import_draw(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            from random import shuffle
            def f(xs):
                shuffle(xs)
            """,
        )
        assert rules_of(findings) == ["REP102"]

    def test_rep102_instance_draw_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import random
            def f(rng: random.Random) -> float:
                return rng.random()
            """,
        )
        assert findings == []

    def test_rep103_global_seed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import random
            import numpy as np
            random.seed(0)
            np.random.seed(0)
            """,
        )
        assert rules_of(findings) == ["REP103", "REP103"]

    def test_rep104_float_derived_child_seed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import random
            def f(rng: random.Random) -> random.Random:
                return random.Random(rng.random())
            """,
        )
        assert rules_of(findings) == ["REP104"]

    def test_rep104_integer_spawn_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import random
            def f(rng: random.Random) -> random.Random:
                return random.Random(rng.getrandbits(64))
            """,
        )
        assert findings == []

    def test_rep105_wallclock_outside_allowlist(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import time
            def stamp() -> float:
                return time.time()
            """,
        )
        assert rules_of(findings) == ["REP105"]

    def test_rep105_allowlisted_timer_file_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import time
            def stamp() -> float:
                return time.perf_counter()
            """,
            relpath="src/repro/utils/timers.py",
        )
        assert findings == []

    def test_rep105_suppressed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import time
            t = time.monotonic()  # reprolint: disable=REP105 boot stamp only
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# family 2: pool safety
# ----------------------------------------------------------------------


class TestPoolSafety:
    def test_rep201_lambda(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def run(pool, items):
                return list(pool.map(lambda x: x + 1, items))
            """,
        )
        assert rules_of(findings) == ["REP201"]

    def test_rep201_nested_function(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def run(pool, items):
                def fn(x):
                    return x + 1
                return list(pool.map(fn, items))
            """,
        )
        assert rules_of(findings) == ["REP201"]

    def test_rep201_initializer_lambda(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            import concurrent.futures as futures
            def run():
                return futures.ProcessPoolExecutor(2, initializer=lambda: None)
            """,
        )
        assert rules_of(findings) == ["REP201"]

    def test_rep201_module_level_fn_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def work(x):
                return x + 1
            def run(pool, items):
                return list(pool.map(work, items))
            """,
        )
        assert findings == []

    def test_rep202_pooled_entry_reads_mutated_global(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            _STATE = None

            def configure(value):
                global _STATE
                _STATE = value

            def work(x):
                return (_STATE, x)

            def run(pool, items):
                return list(pool.map(work, items))
            """,
        )
        assert rules_of(findings) == ["REP202"]
        assert "_STATE" in findings[0].message

    def test_rep202_own_global_declaration_is_clean(self, tmp_path):
        # the per-worker memo pattern: the entry point itself owns the
        # global it lazily fills — state is rebuilt, not smuggled
        findings = lint_snippet(
            tmp_path,
            """\
            _MEMO = None

            def work(x):
                global _MEMO
                if _MEMO is None:
                    _MEMO = {}
                return _MEMO.setdefault(x, x + 1)

            def run(pool, items):
                return list(pool.map(work, items))
            """,
        )
        assert findings == []

    # -- distributed entry points: the transport session-bind open(fn, n)
    # ships fn to every remote worker agent, so it falls under the same
    # four-way REP201/202 coverage as pool map/submit/initializer

    def test_rep201_transport_open_lambda(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def run(transport, head):
                transport.open(lambda x: x + 1, len(head))
            """,
        )
        assert rules_of(findings) == ["REP201"]

    def test_rep201_transport_open_nested_function(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def run(transport, head):
                def dispatch(x):
                    return x + 1
                transport.open(dispatch, len(head))
            """,
        )
        assert rules_of(findings) == ["REP201"]

    def test_rep201_transport_open_module_level_fn_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def dispatch(x):
                return x + 1

            def run(transport, head):
                transport.open(dispatch, len(head))
            """,
        )
        assert findings == []

    def test_rep201_transport_open_suppressed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def run(transport, head):
                transport.open(lambda x: x, len(head))  # reprolint: disable=REP201 fake transport
            """,
        )
        assert findings == []

    def test_rep201_file_open_is_not_a_dispatch_site(self, tmp_path):
        # pathlib-style .open carries a mode string, never a callable;
        # only the two-positional-arg transport signature is recognized
        findings = lint_snippet(
            tmp_path,
            """\
            def read(path):
                with path.open("r") as f:
                    return f.read()
            """,
        )
        assert findings == []

    def test_rep202_transport_open_entry_reads_mutated_global(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            _STATE = None

            def configure(value):
                global _STATE
                _STATE = value

            def dispatch(x):
                return (_STATE, x)

            def run(transport, head):
                transport.open(dispatch, len(head))
            """,
        )
        assert rules_of(findings) == ["REP202"]
        assert "_STATE" in findings[0].message

    def test_rep202_transport_open_own_global_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            _MEMO = None

            def dispatch(x):
                global _MEMO
                if _MEMO is None:
                    _MEMO = {}
                return _MEMO.setdefault(x, x + 1)

            def run(transport, head):
                transport.open(dispatch, len(head))
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# family 3: contract wiring
# ----------------------------------------------------------------------


def _write_tree(tmp_path: Path, files: dict[str, str]) -> LintConfig:
    (tmp_path / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return LintConfig(root=tmp_path)


_ERRORS_OK = """\
class ReproError(Exception):
    pass

class GraphError(ReproError):
    pass

class DeepError(GraphError):
    pass
"""

_PROTOCOL_OK = """\
from repro import errors

ERROR_CODES = {
    errors.ReproError: "internal",
    errors.GraphError: "graph",
    errors.DeepError: "deep",
}
"""


class TestContractWiring:
    def test_rep301_clean_tree(self, tmp_path):
        config = _write_tree(
            tmp_path,
            {
                "src/repro/errors.py": _ERRORS_OK,
                "src/repro/service/protocol.py": _PROTOCOL_OK,
            },
        )
        findings, _ = lint_paths(config)
        assert findings == []

    def test_rep301_missing_wire_code(self, tmp_path):
        config = _write_tree(
            tmp_path,
            {
                "src/repro/errors.py": _ERRORS_OK
                + "\nclass OrphanError(ReproError):\n    pass\n",
                "src/repro/service/protocol.py": _PROTOCOL_OK,
            },
        )
        findings, _ = lint_paths(config)
        assert rules_of(findings) == ["REP301"]
        assert findings[0].path == "src/repro/errors.py"
        assert "OrphanError" in findings[0].message

    def test_rep301_transitive_subclass_is_required(self, tmp_path):
        # a grandchild missing from the table fires too — the hierarchy
        # closure is transitive, not direct-subclasses-only
        protocol = _PROTOCOL_OK.replace("    errors.DeepError: \"deep\",\n", "")
        config = _write_tree(
            tmp_path,
            {
                "src/repro/errors.py": _ERRORS_OK,
                "src/repro/service/protocol.py": protocol,
            },
        )
        findings, _ = lint_paths(config)
        assert rules_of(findings) == ["REP301"]
        assert "DeepError" in findings[0].message

    def test_rep301_ghost_table_entry(self, tmp_path):
        protocol = _PROTOCOL_OK.replace(
            "}", "    errors.GhostError: \"ghost\",\n}"
        )
        config = _write_tree(
            tmp_path,
            {
                "src/repro/errors.py": _ERRORS_OK,
                "src/repro/service/protocol.py": protocol,
            },
        )
        findings, _ = lint_paths(config)
        assert rules_of(findings) == ["REP301"]
        assert findings[0].path == "src/repro/service/protocol.py"
        assert "GhostError" in findings[0].message

    def test_rep301_missing_table_entirely(self, tmp_path):
        config = _write_tree(
            tmp_path,
            {
                "src/repro/errors.py": _ERRORS_OK,
                "src/repro/service/protocol.py": "WRONG_NAME = {}\n",
            },
        )
        findings, _ = lint_paths(config)
        assert rules_of(findings) == ["REP301"]
        assert "ERROR_CODES" in findings[0].message

    def test_rep302_clean_tree(self, tmp_path):
        config = _write_tree(
            tmp_path,
            {
                "src/repro/engine/dispatch.py": """\
                AUTO_KERNEL_THRESHOLDS = {"rewiring": 100}

                def resolve_backend(backend, *, size=None, kernel=None):
                    return backend

                def _resolve_for(graph, backend):
                    return resolve_backend(backend)

                def rewiring_core(attempts, backend="auto"):
                    return resolve_backend(backend, size=attempts, kernel="rewiring")
                """,
            },
        )
        findings, _ = lint_paths(config)
        assert findings == []

    def test_rep302_uncalibrated_kernel_in_dispatch(self, tmp_path):
        config = _write_tree(
            tmp_path,
            {
                "src/repro/engine/dispatch.py": """\
                AUTO_KERNEL_THRESHOLDS = {"rewiring": 100}

                def resolve_backend(backend, *, size=None, kernel=None):
                    return backend

                def triangles(graph, backend="auto"):
                    return resolve_backend(backend, size=graph.num_edges, kernel="triangles")
                """,
            },
        )
        findings, _ = lint_paths(config)
        assert rules_of(findings) == ["REP302"]
        assert "triangles" in findings[0].message

    def test_rep302_resolve_backend_kernel_kwarg_anywhere(self, tmp_path):
        config = _write_tree(
            tmp_path,
            {
                "src/repro/engine/dispatch.py": (
                    'AUTO_KERNEL_THRESHOLDS = {"rewiring": 100}\n'
                ),
                "src/repro/sampling/walkers.py": """\
                def pick(resolve_backend):
                    return resolve_backend("auto", kernel="walks")
                """,
            },
        )
        findings, _ = lint_paths(config)
        assert rules_of(findings) == ["REP302"]
        assert findings[0].path == "src/repro/sampling/walkers.py"

    def test_rep303_setattr_outside_post_init(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Box:
                value: int

                def __post_init__(self):
                    object.__setattr__(self, "value", abs(self.value))

            def poke(box: Box) -> None:
                object.__setattr__(box, "value", -1)
            """,
        )
        assert rules_of(findings) == ["REP303"]
        assert "poke" in findings[0].message

    def test_rep303_post_init_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Box:
                value: int

                def __post_init__(self):
                    object.__setattr__(self, "value", abs(self.value))
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# family 4: ordering hazards
# ----------------------------------------------------------------------


class TestOrdering:
    def test_rep401_for_over_set_local(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def f(xs):
                seen = set()
                for x in xs:
                    seen.add(x)
                out = []
                for x in seen:
                    out.append(x)
                return out
            """,
        )
        assert rules_of(findings) == ["REP401"]

    def test_rep401_comprehension_over_set_display(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def f():
                return [x for x in {3, 1, 2}]
            """,
        )
        assert rules_of(findings) == ["REP401"]

    def test_rep401_list_wrap_of_set(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def f(xs):
                uniq = set(xs)
                return list(uniq)
            """,
        )
        assert rules_of(findings) == ["REP401"]

    def test_rep401_sorted_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def f(xs):
                uniq = set(xs)
                return [x for x in sorted(uniq)]
            """,
        )
        assert findings == []

    def test_rep401_outside_ordered_layers_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def f(xs):
                uniq = set(xs)
                return list(uniq)
            """,
            relpath="src/repro/viz/helper.py",
        )
        assert findings == []

    def test_rep401_suppressed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            def f(xs):
                uniq = set(xs)
                return list(uniq)  # reprolint: disable=REP401 order-free sum
            """,
        )
        assert findings == []

    @pytest.mark.parametrize("layer", ["estimators", "restore", "dk"])
    def test_rep401_target_construction_layers_are_ordered(self, tmp_path, layer):
        findings = lint_snippet(
            tmp_path,
            """\
            def f(xs):
                uniq = set(xs)
                return list(uniq)
            """,
            relpath=f"src/repro/{layer}/mod.py",
        )
        assert rules_of(findings) == ["REP401"]

    def test_rep401_for_over_self_set_attribute(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            class State:
                def __init__(self, xs):
                    self.pending = {1}
                    self.pending.update(xs)

            def drain(state):
                out = []
                for x in state.pending:
                    out.append(x)
                return out
            """,
        )
        assert rules_of(findings) == ["REP401"]

    def test_rep401_comprehension_over_annotated_set_attribute(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            class State:
                def __init__(self, xs):
                    self.pending: set[int] = make(xs)

            def pick(state, k):
                return [x for x in state.pending if x <= k]
            """,
        )
        assert rules_of(findings) == ["REP401"]

    def test_rep401_list_wrap_of_set_field(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            from dataclasses import dataclass, field

            @dataclass
            class State:
                pending: set[int] = field(default_factory=set)

            def snapshot(state):
                return list(state.pending)
            """,
        )
        assert rules_of(findings) == ["REP401"]

    def test_rep401_list_attribute_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """\
            class State:
                def __init__(self, xs):
                    self.pending = list(xs)

            def drain(state):
                return [x for x in state.pending]
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


class TestBaseline:
    def _diag(self, **kw) -> Diagnostic:
        base = dict(path="src/a.py", line=3, col=1, rule="REP401", message="m")
        base.update(kw)
        return Diagnostic(**base)

    def test_split_matches_by_path_rule_message_not_line(self):
        entries = [
            {"path": "src/a.py", "line": 99, "rule": "REP401", "message": "m"}
        ]
        fresh, baselined, stale = split_baselined([self._diag()], entries)
        assert (fresh, len(baselined), stale) == ([], 1, 0)

    def test_split_respects_multiplicity(self):
        entries = [
            {"path": "src/a.py", "line": 3, "rule": "REP401", "message": "m"}
        ]
        two = [self._diag(), self._diag(line=8)]
        fresh, baselined, stale = split_baselined(two, entries)
        assert len(baselined) == 1 and len(fresh) == 1 and stale == 0

    def test_stale_entries_counted_not_fatal(self):
        entries = [
            {"path": "src/gone.py", "line": 1, "rule": "REP401", "message": "m"}
        ]
        fresh, baselined, stale = split_baselined([], entries)
        assert (fresh, baselined, stale) == ([], [], 1)

    def test_render_preserves_notes_across_regeneration(self):
        first = render_baseline([self._diag()], [])
        entries = json.loads(first)["findings"]
        entries[0]["note"] = "justified because reasons"
        second = render_baseline([self._diag(line=10)], entries)
        regenerated = json.loads(second)["findings"][0]
        assert regenerated["note"] == "justified because reasons"
        assert regenerated["line"] == 10

    def test_committed_baseline_is_byte_reproducible(self):
        """`repro lint --write-baseline` must regenerate the committed
        file byte for byte — the property that keeps it reviewable."""
        committed = REPO_ROOT / "reprolint-baseline.json"
        config = default_config(REPO_ROOT)
        findings, _ = lint_paths(config)
        regenerated = render_baseline(findings, load_baseline(committed))
        assert regenerated == committed.read_text(encoding="utf-8")

    def test_write_baseline_roundtrip(self, tmp_path):
        target = tmp_path / "baseline.json"
        text = write_baseline(target, [self._diag()], [])
        assert target.read_text(encoding="utf-8") == text
        assert text.endswith("\n")
        fresh, baselined, stale = split_baselined(
            [self._diag()], load_baseline(target)
        )
        assert (fresh, len(baselined), stale) == ([], 1, 0)


# ----------------------------------------------------------------------
# end to end: the repo tree, the violation-per-family tree, the CLI
# ----------------------------------------------------------------------


_VIOLATION_PER_FAMILY = {
    # family 1 (seed discipline) + family 4 (ordering) in one engine file
    "src/repro/engine/bad.py": """\
    import random

    def child(rng: random.Random) -> random.Random:
        return random.Random(rng.random())

    def collect(xs):
        return list(set(xs))
    """,
    # family 2: pool safety
    "src/repro/api/bad_pool.py": """\
    def run(pool, items):
        return list(pool.map(lambda x: x, items))
    """,
    # family 3: an error class with no wire code
    "src/repro/errors.py": _ERRORS_OK
    + "\nclass UnwiredError(ReproError):\n    pass\n",
    "src/repro/service/protocol.py": _PROTOCOL_OK,
}


class TestEndToEnd:
    def test_repo_tree_lints_clean(self):
        """The acceptance gate: the linter exits 0 on this repository."""
        result = run_lint(default_config(REPO_ROOT))
        assert result.fresh == [], "\n".join(
            format_diagnostic(d) for d in result.fresh
        )
        assert result.ok
        assert result.stale_baseline_entries == 0
        # the one grandfathered finding stays visible, not invisible
        assert [d.rule for d in result.baselined] == ["REP401"]

    def test_fixture_tree_fires_one_violation_per_family(self, tmp_path):
        config = _write_tree(tmp_path, _VIOLATION_PER_FAMILY)
        findings, _ = lint_paths(config)
        families = {diag.rule[:4] + "xx" for diag in findings}
        assert {"REP1xx", "REP2xx", "REP3xx", "REP4xx"} <= families

    def test_cli_exits_nonzero_on_fixture_tree(self, tmp_path):
        _write_tree(tmp_path, _VIOLATION_PER_FAMILY)
        assert lint_main(["--root", str(tmp_path)]) == 1

    def test_cli_exits_zero_on_repo_tree(self):
        assert lint_main(["--root", str(REPO_ROOT)]) == 0

    def test_cli_no_baseline_reports_grandfathered(self, capsys):
        code = lint_main(["--root", str(REPO_ROOT), "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP401" in out

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "REP101" in out and "REP302" in out

    def test_cli_write_baseline_then_clean(self, tmp_path):
        _write_tree(tmp_path, _VIOLATION_PER_FAMILY)
        assert lint_main(["--root", str(tmp_path), "--write-baseline"]) == 0
        assert lint_main(["--root", str(tmp_path)]) == 0
        # grandfathering is not forgetting: without the baseline it fails
        assert lint_main(["--root", str(tmp_path), "--no-baseline"]) == 1

    def test_module_entry_point(self):
        """``python -m repro.lint`` is wired and exits 0 on the repo."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--root", str(REPO_ROOT)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_repro_cli_lint_subcommand(self):
        """``repro lint`` routes through the main CLI with exit codes."""
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--root", str(REPO_ROOT)]) == 0

    def test_explicit_paths_restrict_the_walk(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
        bad = tmp_path / "src" / "repro" / "engine" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nx = random.random()\n", encoding="utf-8")
        clean = tmp_path / "src" / "repro" / "engine" / "ok.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        config = LintConfig(root=tmp_path)
        findings, files = lint_paths(config, [Path("src/repro/engine/ok.py")])
        assert files == 1 and findings == []
        findings, files = lint_paths(config, [Path("src/repro/engine/bad.py")])
        assert files == 1 and rules_of(findings) == ["REP102"]


# ----------------------------------------------------------------------
# guard: the repo's own suppressions stay justified
# ----------------------------------------------------------------------


class TestRepoSuppressions:
    def test_every_repo_suppression_carries_a_justification(self):
        """A bare ``disable=RULE`` with no trailing reason is a smell;
        the repo's own pragmas must say why."""
        config = default_config(REPO_ROOT)
        from repro.lint.runner import discover_files
        from repro.lint.suppress import _DIRECTIVE

        for path in discover_files(config):
            text = path.read_text(encoding="utf-8")
            for match in _DIRECTIVE.finditer(text):
                line = text[: match.start()].count("\n") + 1
                trailing = text[match.end():].split("\n", 1)[0].strip()
                if path.name == "test_lint.py":
                    continue  # fixture snippets exercise bare directives
                assert trailing, (
                    f"{path}:{line}: suppression without a justification"
                )
