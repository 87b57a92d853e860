"""Cross-file contract rules: the wiring the runtime tests assume.

Two tables tie subsystems together and must stay exhaustive:

* ``REP301`` — every class in the :class:`~repro.errors.ReproError`
  hierarchy has a stable wire code in the service protocol's
  ``ERROR_CODES`` (and the table names no ghost classes).  A missing
  entry means a new error serializes as ``"internal"`` and clients lose
  the class on the wire.
* ``REP302`` — every kernel name passed to dispatch
  (``resolve_backend(kernel="name")``, anywhere in the tree) has an
  entry in ``AUTO_KERNEL_THRESHOLDS``.  A name without one is silently
  ignored: ``backend="auto"`` resolves it to ``csr`` at every size.

Both rules read the AST only — no imports, so a broken tree (the very
thing they exist to catch) still lints.  When a contract file is absent
from the walked tree the rule skips: fixture trees for the per-file
rules need none of this machinery.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.rules import ModuleContext, Rule


@dataclass
class ProjectIndex:
    """Every parsed module of one lint run, keyed by POSIX relpath."""

    modules: dict[str, ModuleContext]
    config: LintConfig


class ProjectRule(Rule):
    """Base for cross-file rules; subclasses implement :meth:`check`."""

    def check(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        raise NotImplementedError


def _class_defs(tree: ast.Module) -> dict[str, ast.ClassDef]:
    return {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _dict_assignment(tree: ast.Module, name: str) -> ast.Dict | None:
    """The dict literal assigned to ``name`` at module scope, if any."""
    for node in tree.body:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if (
            isinstance(target, ast.Name)
            and target.id == name
            and isinstance(value, ast.Dict)
        ):
            return value
    return None


class ErrorCodeExhaustive(ProjectRule):
    def check(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        config = index.config
        errors_ctx = index.modules.get(config.errors_path)
        protocol_ctx = index.modules.get(config.protocol_path)
        if errors_ctx is None or protocol_ctx is None:
            return
        classes = _class_defs(errors_ctx.tree)
        hierarchy: set[str] = set()
        if config.error_root in classes or any(
            config.error_root in _base_names(c) for c in classes.values()
        ):
            hierarchy.add(config.error_root)
        grew = True
        while grew:
            grew = False
            for name, node in classes.items():
                if name not in hierarchy and any(
                    base in hierarchy for base in _base_names(node)
                ):
                    hierarchy.add(name)
                    grew = True
        table = _dict_assignment(protocol_ctx.tree, config.error_table)
        if table is None:
            yield Diagnostic(
                path=config.protocol_path,
                line=1,
                col=1,
                rule=self.id,
                message=(
                    f"no module-level dict literal named {config.error_table!r} "
                    "found; the wire-code table is part of the protocol contract"
                ),
            )
            return
        mapped: dict[str, int] = {}
        for key in table.keys:
            if isinstance(key, ast.Attribute):
                mapped[key.attr] = key.lineno
            elif isinstance(key, ast.Name):
                mapped[key.id] = key.lineno
        for name in sorted(hierarchy - set(mapped)):
            node = classes[name]
            yield Diagnostic(
                path=config.errors_path,
                line=node.lineno,
                col=node.col_offset + 1,
                rule=self.id,
                message=(
                    f"error class {name!r} has no wire code in "
                    f"{config.error_table}; it would serialize as 'internal'"
                ),
            )
        for name in sorted(set(mapped) - hierarchy):
            yield Diagnostic(
                path=config.protocol_path,
                line=mapped[name],
                col=1,
                rule=self.id,
                message=(
                    f"{config.error_table} maps {name!r}, which is not a "
                    f"{config.error_root} subclass in {config.errors_path}"
                ),
            )


def _kernel_references(index: ProjectIndex) -> list[tuple[str, ast.Call, str]]:
    """Every ``(relpath, call node, kernel name)`` routed through dispatch.

    Covers every ``resolve_backend(..., kernel="name")`` call anywhere in
    the tree; non-literal kernel arguments (threading a variable through)
    are out of static reach and skipped.
    """
    refs: list[tuple[str, ast.Call, str]] = []
    for relpath, ctx in index.modules.items():
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            if node.func.id != "resolve_backend":
                continue
            for kw in node.keywords:
                if (
                    kw.arg == "kernel"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ):
                    refs.append((relpath, node, kw.value.value))
    return refs


class KernelThresholdExhaustive(ProjectRule):
    def check(self, index: ProjectIndex) -> Iterator[Diagnostic]:
        config = index.config
        dispatch_ctx = index.modules.get(config.dispatch_path)
        if dispatch_ctx is None:
            return
        table = _dict_assignment(dispatch_ctx.tree, config.threshold_table)
        if table is None:
            yield Diagnostic(
                path=config.dispatch_path,
                line=1,
                col=1,
                rule=self.id,
                message=(
                    f"no module-level dict literal named "
                    f"{config.threshold_table!r} found; auto dispatch needs "
                    "the size-threshold table"
                ),
            )
            return
        calibrated = {
            key.value
            for key in table.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        for relpath, node, kernel in _kernel_references(index):
            if kernel not in calibrated:
                yield Diagnostic(
                    path=relpath,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule=self.id,
                    message=(
                        f"kernel {kernel!r} is dispatched by name but has no "
                        f"entry in {config.threshold_table}; backend='auto' "
                        "would ignore the name and pick csr at every size"
                    ),
                )


PROJECT_RULES: list[ProjectRule] = [
    ErrorCodeExhaustive(
        "REP301",
        "unmapped-error-code",
        "every ReproError subclass has a stable wire code in ERROR_CODES",
    ),
    KernelThresholdExhaustive(
        "REP302",
        "uncalibrated-kernel",
        "every kernel named to resolve_backend has an entry in AUTO_KERNEL_THRESHOLDS",
    ),
]
