"""The per-file lint rules and their registry.

Every rule is a named check with a stable id (``REPxyz`` — the hundreds
digit is the family), a one-line summary, and a ``check`` over one parsed
module.  Ids are part of the suppression/baseline contract: never reuse
one, only add.

Name resolution is deliberately shallow: a :class:`ModuleContext` tracks
``import`` aliases and ``from``-imports, then resolves dotted call
targets textually (``np.random.default_rng`` → ``numpy.random.default_rng``,
``from random import Random; Random()`` → ``random.Random``).  Local
shadowing of module names is not modeled — this is a repo linter for a
codebase that doesn't do that, not a type checker — and the escape hatch
for any mis-fire is an inline suppression with a justification.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TypeGuard

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic

# ----------------------------------------------------------------------
# parsed-module context shared by every rule
# ----------------------------------------------------------------------


@dataclass
class ModuleContext:
    """One parsed file plus the name-resolution tables the rules share."""

    relpath: str
    tree: ast.Module
    config: LintConfig
    #: local name -> imported module (``import numpy as np`` → np: numpy)
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> fully qualified origin (``from x import y`` → y: x.y)
    from_imports: dict[str, str] = field(default_factory=dict)
    #: names bound at module scope (defs, classes, assignment targets)
    module_level_names: set[str] = field(default_factory=set)
    #: function defs nested inside another function/class body
    nested_function_names: set[str] = field(default_factory=set)
    #: module-level function name -> its def node
    module_functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    #: child node -> parent node, for enclosing-scope walks
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def build(cls, relpath: str, tree: ast.Module, config: LintConfig) -> "ModuleContext":
        ctx = cls(relpath=relpath, tree=tree, config=config)
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                ctx.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        ctx.module_aliases[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        ctx.module_aliases[top] = top
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    ctx.from_imports[local] = f"{node.module}.{alias.name}"
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ctx.module_level_names.add(stmt.name)
                ctx.module_functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                ctx.module_level_names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        ctx.module_level_names.add(target.id)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if ctx.enclosing_function(node) is not None:
                    ctx.nested_function_names.add(node.name)
        return ctx

    def resolve(self, node: ast.expr) -> str | None:
        """Dotted origin of a name/attribute chain, or ``None``.

        ``Name`` leaves resolve through the import tables and fall back
        to their bare id (so ``object.__setattr__`` resolves without an
        import); any non-name leaf (a call result, a subscript) resolves
        to ``None`` — chains like ``foo().bar`` are never misidentified.
        """
        if isinstance(node, ast.Name):
            if node.id in self.from_imports:
                return self.from_imports[node.id]
            if node.id in self.module_aliases:
                return self.module_aliases[node.id]
            return node.id
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The nearest function def strictly enclosing ``node``."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parents.get(current)
        return None


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One registered rule: stable id, short name, summary, checker."""

    id: str
    name: str
    summary: str


class FileRule(Rule):
    """Base for per-file rules; subclasses implement :meth:`check`."""

    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diag(self, ctx: ModuleContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=ctx.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


FILE_RULES: list[FileRule] = []


def _register(rule: FileRule) -> FileRule:
    if any(existing.id == rule.id for existing in FILE_RULES):
        raise ValueError(f"duplicate rule id {rule.id}")
    FILE_RULES.append(rule)
    return rule


def all_rules() -> list[Rule]:
    """Every registered rule (file rules plus the cross-file ones)."""
    from repro.lint.project import PROJECT_RULES
    from repro.lint.runner import PARSE_ERROR_RULE, UNUSED_SUPPRESSION

    rules: list[Rule] = [PARSE_ERROR_RULE, UNUSED_SUPPRESSION]
    rules.extend(FILE_RULES)
    rules.extend(PROJECT_RULES)
    return sorted(rules, key=lambda r: r.id)


def rule_catalog() -> str:
    """The ``--list-rules`` rendering: one ``ID name — summary`` per line."""
    return "\n".join(f"{r.id} {r.name} — {r.summary}" for r in all_rules())


# ----------------------------------------------------------------------
# family 1: seed discipline (REP10x)
# ----------------------------------------------------------------------

#: module-level draws on the *global* stdlib generator
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "betavariate", "binomialvariate",
        "expovariate", "gammavariate", "gauss", "lognormvariate",
        "normalvariate", "vonmisesvariate", "paretovariate",
        "weibullvariate", "getrandbits", "randbytes",
    }
)

#: legacy draws on numpy's global ``RandomState``
_NUMPY_GLOBAL_FNS = frozenset(
    {
        "rand", "randn", "random", "random_sample", "ranf", "sample",
        "randint", "random_integers", "choice", "shuffle", "permutation",
        "bytes", "uniform", "normal", "standard_normal", "poisson",
        "binomial", "exponential", "beta", "gamma", "laplace", "logistic",
    }
)

#: instance methods that return floats — seeding a child RNG from one of
#: these draws collapses 64+ bits of state into a 53-bit mantissa and
#: couples the child stream to float rounding
_FLOAT_DRAW_METHODS = frozenset(
    {
        "random", "uniform", "gauss", "normalvariate", "lognormvariate",
        "expovariate", "vonmisesvariate", "gammavariate", "betavariate",
        "paretovariate", "weibullvariate", "triangular", "random_sample",
        "standard_normal",
    }
)

_RNG_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.SeedSequence"}
)

_WALLCLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)


class UnseededRng(FileRule):
    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target == "random.SystemRandom":
                yield self.diag(
                    ctx, node,
                    "SystemRandom is entropy-backed and can never reproduce; "
                    "derive a seeded random.Random from the run's seed tree",
                )
            elif (
                target in ("random.Random", "numpy.random.default_rng")
                and not node.args
                and not node.keywords
            ):
                yield self.diag(
                    ctx, node,
                    f"unseeded {target}() draws from OS entropy; pass a seed "
                    "spawned from the run's seed tree",
                )


class GlobalRngCall(FileRule):
    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target is None:
                continue
            if target.startswith("random.") and target.split(".")[-1] in _GLOBAL_RANDOM_FNS:
                if target.count(".") == 1:  # the module fn, not rng.random()
                    yield self.diag(
                        ctx, node,
                        f"{target}() draws from the process-global generator; "
                        "thread a seeded random.Random through instead",
                    )
            elif (
                target.startswith("numpy.random.")
                and target.split(".")[-1] in _NUMPY_GLOBAL_FNS
                and target.count(".") == 2
            ):
                yield self.diag(
                    ctx, node,
                    f"{target}() draws from numpy's global RandomState; "
                    "use a Generator spawned from the run's SeedSequence",
                )


class GlobalSeeding(FileRule):
    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target in ("random.seed", "numpy.random.seed", "random.setstate"):
                yield self.diag(
                    ctx, node,
                    f"{target}() mutates process-global RNG state, which leaks "
                    "across cells and workers; seed a local generator instead",
                )


class FloatDerivedSeed(FileRule):
    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.resolve(node.func) not in _RNG_CONSTRUCTORS:
                continue
            for arg in node.args:
                if (
                    isinstance(arg, ast.Call)
                    and isinstance(arg.func, ast.Attribute)
                    and arg.func.attr in _FLOAT_DRAW_METHODS
                ):
                    yield self.diag(
                        ctx, node,
                        f"child RNG seeded from a float draw (.{arg.func.attr}()) "
                        "collapses the state space to a 53-bit mantissa; spawn "
                        "integer child seeds (getrandbits/SeedSequence) instead",
                    )


class WallClock(FileRule):
    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if ctx.config.is_wallclock_allowed(ctx.relpath):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target in _WALLCLOCK_CALLS:
                yield self.diag(
                    ctx, node,
                    f"{target}() reads the clock outside the timing/metrics "
                    "allowlist; results must be pure functions of "
                    "(seed, policy, backend)",
                )


# ----------------------------------------------------------------------
# family 2: pool safety (REP20x)
# ----------------------------------------------------------------------


def _pool_callable_args(node: ast.Call) -> Iterator[ast.expr]:
    """Callable operands shipped to out-of-process workers: the function
    argument of ``.map(fn, ...)`` / ``.submit(fn, ...)``, any
    ``initializer=``, and the transport session-bind ``.open(fn, n)``
    (the distributed tier's dispatch target, pickled to every remote
    ``repro worker`` agent).  ``.open`` counts only with two or more
    positional arguments, which is the transport signature — file-like
    ``path.open("r")`` calls never carry a callable there."""
    if isinstance(node.func, ast.Attribute) and node.func.attr in ("map", "submit"):
        if node.args:
            yield node.args[0]
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "open"
        and len(node.args) >= 2
    ):
        yield node.args[0]
    for kw in node.keywords:
        if kw.arg == "initializer":
            yield kw.value


class PoolCallableNotModuleLevel(FileRule):
    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for arg in _pool_callable_args(node):
                if isinstance(arg, ast.Lambda):
                    yield self.diag(
                        ctx, arg,
                        "lambda passed to a pool is not picklable; define a "
                        "module-level function",
                    )
                elif (
                    isinstance(arg, ast.Name)
                    and arg.id in ctx.nested_function_names
                    and arg.id not in ctx.module_level_names
                ):
                    yield self.diag(
                        ctx, arg,
                        f"nested function {arg.id!r} passed to a pool is not "
                        "picklable; move it to module level",
                    )


def _runtime_mutated_globals(ctx: ModuleContext) -> dict[str, set[str]]:
    """``{global name -> {functions that mutate it}}`` for one module.

    A global counts as runtime-mutated when some function declares it
    ``global`` and assigns it — the parent-process pattern whose state a
    pickled work-item silently does *not* carry to workers.
    """
    mutated: dict[str, set[str]] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {
            name
            for stmt in ast.walk(node)
            if isinstance(stmt, ast.Global)
            for name in stmt.names
        }
        if not declared:
            continue
        for stmt in ast.walk(node):
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared:
                    mutated.setdefault(target.id, set()).add(node.name)
    return mutated


class PooledEntryReadsMutatedGlobal(FileRule):
    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        mutated = _runtime_mutated_globals(ctx)
        if not mutated:
            return
        entries: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for arg in _pool_callable_args(node):
                if isinstance(arg, ast.Name) and arg.id in ctx.module_functions:
                    entries.add(arg.id)
        for name in sorted(entries):
            fn = ctx.module_functions[name]
            own_globals = {
                g
                for stmt in ast.walk(fn)
                if isinstance(stmt, ast.Global)
                for g in stmt.names
            }
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in mutated
                    and node.id not in own_globals
                ):
                    writers = ", ".join(sorted(mutated[node.id]))
                    yield self.diag(
                        ctx, node,
                        f"pooled entry point {name!r} reads module global "
                        f"{node.id!r}, mutated at runtime by {writers}; worker "
                        "processes see a stale copy — pass it through the "
                        "work-item instead",
                    )


# ----------------------------------------------------------------------
# family 3: contract wiring, per-file part (REP30x; 301/302 are
# cross-file and live in repro.lint.project)
# ----------------------------------------------------------------------

_SETATTR_ALLOWED_METHODS = frozenset({"__init__", "__post_init__", "__setstate__"})


class FrozenMutationOutsidePostInit(FileRule):
    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.resolve(node.func) != "object.__setattr__":
                continue
            enclosing = ctx.enclosing_function(node)
            if enclosing is not None and enclosing.name in _SETATTR_ALLOWED_METHODS:
                continue
            where = enclosing.name if enclosing is not None else "module scope"
            yield self.diag(
                ctx, node,
                f"object.__setattr__ in {where} mutates a frozen value after "
                "construction; frozen dataclasses may only self-initialize in "
                "__post_init__",
            )


# ----------------------------------------------------------------------
# family 4: ordering hazards (REP40x)
# ----------------------------------------------------------------------


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_set_annotation(node: ast.expr) -> bool:
    """``set`` / ``frozenset``, bare or subscripted (``set[int]``)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("set", "frozenset")


def _is_self_attribute(node: ast.expr) -> TypeGuard[ast.Attribute]:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _set_attributes(ctx: ModuleContext) -> set[str]:
    """Attribute names the module holds sets in: ``self.<name>`` assigned a
    set display / ``set()`` / set comprehension, and ``self.<name>`` or a
    class-body ``<name>`` annotated ``set[...]``."""
    names: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            names.update(t.attr for t in node.targets if _is_self_attribute(t))
        elif isinstance(node, ast.AnnAssign) and (
            _is_set_annotation(node.annotation)
            or (node.value is not None and _is_set_expr(node.value))
        ):
            if _is_self_attribute(node.target):
                names.add(node.target.attr)
            elif isinstance(node.target, ast.Name) and isinstance(
                ctx.parents.get(node), ast.ClassDef
            ):
                names.add(node.target.id)
    return names


class _SetIterScan(ast.NodeVisitor):
    """Scoped scan for iteration over set-typed expressions.

    Tracks, per function scope, local names whose latest assignment is a
    set display / ``set()`` / set comprehension, and module-wide the
    attribute names :func:`_set_attributes` finds; then flags ``for``
    loops and comprehension generators (and ``list()``/``tuple()`` wraps)
    that iterate such a local, or ``<expr>.<name>`` for such an attribute
    name, without ``sorted()``.
    """

    def __init__(self, rule: "UnsortedSetIteration", ctx: ModuleContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.scopes: list[dict[str, bool]] = [{}]
        self.set_attributes = _set_attributes(ctx)
        self.findings: list[Diagnostic] = []

    def _is_set_valued(self, node: ast.expr) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attributes
        if isinstance(node, ast.Name):
            for scope in reversed(self.scopes):
                if node.id in scope:
                    return scope[node.id]
        return False

    def _flag(self, node: ast.expr) -> None:
        shown = ast.unparse(node)
        if len(shown) > 40:
            shown = shown[:37] + "..."
        self.findings.append(
            self.rule.diag(
                self.ctx, node,
                f"iteration over set {shown!r} has no deterministic order in a "
                "deterministic layer; wrap it in sorted()",
            )
        )

    def _check_iter(self, node: ast.expr) -> None:
        if self._is_set_valued(node):
            self._flag(node)

    # -- scope management ------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scopes.append({})
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.scopes[-1][target.id] = _is_set_expr(node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            self.scopes[-1][node.target.id] = _is_set_expr(node.value)
        self.generic_visit(node)

    # -- iteration sites -------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", []):
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and self._is_set_valued(node.args[0])
        ):
            self._flag(node.args[0])
        self.generic_visit(node)


class UnsortedSetIteration(FileRule):
    def check(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if not ctx.config.in_ordered_layer(ctx.relpath):
            return
        scan = _SetIterScan(self, ctx)
        scan.visit(ctx.tree)
        yield from scan.findings


# ----------------------------------------------------------------------
# registration (id order is the catalog order)
# ----------------------------------------------------------------------

_register(UnseededRng("REP101", "unseeded-rng", "no unseeded random.Random() / np.random.default_rng() / SystemRandom"))
_register(GlobalRngCall("REP102", "global-rng-call", "no draws from the process-global random / numpy.random generators"))
_register(GlobalSeeding("REP103", "global-seeding", "no random.seed() / np.random.seed() / setstate global reseeding"))
_register(FloatDerivedSeed("REP104", "float-derived-seed", "no child RNGs seeded from float draws like rng.random()"))
_register(WallClock("REP105", "wall-clock", "no clock reads outside the timing/metrics allowlist"))
_register(PoolCallableNotModuleLevel("REP201", "pool-callable-not-module-level", "pool map/submit/initializer and transport open(fn, n) callables must be picklable module-level functions"))
_register(PooledEntryReadsMutatedGlobal("REP202", "pooled-entry-reads-mutated-global", "pooled/distributed entry points must not read module globals mutated at runtime"))
_register(FrozenMutationOutsidePostInit("REP303", "frozen-mutation", "object.__setattr__ only inside __init__/__post_init__/__setstate__"))
_register(UnsortedSetIteration("REP401", "unsorted-set-iteration", "set iteration in deterministic layers must pass through sorted()"))
