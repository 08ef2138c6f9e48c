"""The RC rules: static race / shard-isolation analysis.

The sharded engine's correctness argument has four legs -- shard
isolation, a picklable process boundary, a complete cache fingerprint,
and a sound lookahead.  Each leg is a *convention* today; these rules
make every leg a build failure instead:

* **RC001** shard isolation -- simulation modules may not reach
  cross-shard state except via the declared boundary APIs,
* **RC002** process-boundary payload safety -- nothing unpicklable may
  statically reach ``ForkTransport`` / ``ProcessPoolExecutor``,
* **RC003** cache-fingerprint completeness -- every environment read
  must name a knob declared in :mod:`repro.race.fingerprints`,
* **RC004** lookahead soundness -- the window lookahead must be derived
  from (and never shrink below) the link-latency model,
* **RC005** worker-context independence -- worker-executed modules may
  not observe pid/cwd/start-method/host identity.

Like the SL rules, these are per-module passes over a
:class:`~repro.analyze.base.ModuleContext` yielding ``(line, col,
message)`` findings; suppression and the allowlist are applied by the
:mod:`repro.analyze` driver.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..race.fingerprints import is_registered
from .base import (
    SIMULATION_SCOPE,
    Finding,
    ModuleContext,
    Rule,
    resolve_dotted,
    terminal_name,
)


def absolute_import_module(
    node: ast.ImportFrom, ctx: ModuleContext
) -> Optional[str]:
    """The absolute dotted module an ``ImportFrom`` targets.

    Unlike :meth:`ModuleContext.aliases`, this resolves *relative*
    imports against the module path (``from ..exec.shardpool import X``
    inside ``repro/sim/sharded.py`` -> ``repro.exec.shardpool``), which
    is exactly the form boundary-crossing imports take in this tree.
    """
    if node.level == 0:
        return node.module
    if not ctx.module_path.endswith(".py"):
        return node.module
    pieces = ctx.module_path[:-3].split("/")
    # The package of the importing module: its directory (for
    # __init__.py, the directory *is* the package).
    pieces = pieces[:-1] if pieces[-1] != "__init__" else pieces[:-1]
    drop = node.level - 1
    if drop >= len(pieces):
        pieces = []
    elif drop:
        pieces = pieces[:-drop]
    base = ".".join(pieces)
    if node.module:
        return f"{base}.{node.module}" if base else node.module
    return base or None


def _module_is(dotted: Optional[str], tail: Tuple[str, ...]) -> bool:
    """Does ``dotted`` end in the package-qualified ``tail``?"""
    if not dotted:
        return False
    return tuple(dotted.split(".")[-len(tail):]) == tail


# ----------------------------------------------------------------------
# RC001 -- shard isolation
# ----------------------------------------------------------------------
#: Simulation-model packages: everything here runs *inside* one shard
#: and must stay ignorant of sibling shards and the transport layer.
_RC001_SCOPE = (
    "repro/sim/",
    "repro/bridge/",
    "repro/ndp/",
    "repro/balance/",
)
_SHARDPOOL = ("exec", "shardpool")
_SHARDED = ("sim", "sharded")


class ShardIsolation(Rule):
    code = "RC001"
    name = "shard-isolation"
    description = (
        "simulation modules must not reach cross-shard state except via "
        "the declared boundary APIs (ShardAddressMap, the transport's "
        "broadcast protocol); importing exec.shardpool or private "
        "sim.sharded internals from model code collapses the isolation "
        "the conservative-window proof rests on"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module_path.startswith(_RC001_SCOPE):
            return
        for node in ctx.nodes():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _module_is(alias.name, _SHARDPOOL):
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"import of transport internals "
                            f"`{alias.name}` from simulation module "
                            f"{ctx.module_path} -- only the coordinator "
                            f"may touch the fork transport",
                        )
            elif isinstance(node, ast.ImportFrom):
                target = absolute_import_module(node, ctx)
                if _module_is(target, _SHARDPOOL):
                    names = ", ".join(a.name for a in node.names)
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"import of `{names}` from transport module "
                        f"`{target}` in simulation module "
                        f"{ctx.module_path} -- cross-shard state is only "
                        f"reachable via the declared boundary APIs",
                    )
                elif _module_is(target, _SHARDED):
                    private = [
                        a.name
                        for a in node.names
                        if a.name == "*" or a.name.startswith("_")
                    ]
                    if private:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"import of coordinator internals "
                            f"`{', '.join(private)}` from `{target}` -- "
                            f"simulation modules may only use the public "
                            f"shard protocol (ShardRuntime, "
                            f"BoundaryMessage, ...)",
                        )


# ----------------------------------------------------------------------
# RC002 -- process-boundary payload safety
# ----------------------------------------------------------------------
_BOUNDARY_CONSTRUCTORS = frozenset({"ForkTransport", "ProcessPoolExecutor"})
_POOL_METHODS = frozenset({"submit", "map"})
_PROCESS_KEYWORDS = frozenset({"target", "args"})


class PayloadSafety(Rule):
    code = "RC002"
    name = "boundary-payload-safety"
    description = (
        "objects crossing a process boundary (ForkTransport builders, "
        "ProcessPoolExecutor.submit/map arguments, Process targets) must "
        "be picklable, snapshot-clean data -- lambdas, closures, "
        "generators, and open file handles either fail to pickle or "
        "silently capture per-process state"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._scan_scope(ctx.tree.body, {}, {}, ctx)

    # -- scope walking -------------------------------------------------
    def _scan_scope(
        self,
        body: Sequence[ast.stmt],
        bindings: Dict[str, str],
        pools: Dict[str, bool],
        ctx: ModuleContext,
        in_function: bool = False,
    ) -> Iterator[Finding]:
        """Walk one lexical scope, tracking unsafe name bindings and
        pool objects, then recurse into nested function scopes with the
        enclosing bindings (closures can reference them)."""
        bindings = dict(bindings)
        pools = dict(pools)
        nested: List[ast.AST] = []
        scope_nodes: List[ast.AST] = []
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                nested.append(stmt)
                continue
            scope_nodes.extend(self._walk_scope(stmt, nested))
        if in_function:
            # A def nested inside a function is a closure candidate;
            # register the name before scanning so forward references
            # inside the same frame are caught too.
            for fn in nested:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bindings[fn.name] = (
                        f"locally-defined function `{fn.name}` (a closure "
                        f"over the enclosing frame)"
                    )
        for node in scope_nodes:
            self._note_bindings(node, bindings, pools, ctx)
            if isinstance(node, ast.Call):
                yield from self._check_call(node, bindings, pools, ctx)
        for fn in nested:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan_scope(
                    fn.body, bindings, pools, ctx, in_function=True
                )
            elif isinstance(fn, ast.Lambda):
                # A call inside a lambda body is still a boundary call.
                wrapper = ast.Expr(value=fn.body)
                ast.copy_location(wrapper, fn)
                yield from self._scan_scope(
                    [wrapper], bindings, pools, ctx, in_function=True
                )

    @classmethod
    def _walk_scope(
        cls, node: ast.AST, nested: List[ast.AST]
    ) -> Iterator[ast.AST]:
        """Pre-order, source-order nodes of this scope only; nested
        callables are collected, not entered (they are separate frames)."""
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                nested.append(child)
            else:
                yield from cls._walk_scope(child, nested)

    def _note_bindings(
        self,
        node: ast.AST,
        bindings: Dict[str, str],
        pools: Dict[str, bool],
        ctx: ModuleContext,
    ) -> None:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                reason = self._value_reason(node.value, ctx)
                if reason is not None:
                    bindings[target.id] = reason
                else:
                    bindings.pop(target.id, None)
                if self._is_pool_ctor(node.value, ctx):
                    pools[target.id] = True
                else:
                    pools.pop(target.id, None)
        elif isinstance(node, ast.withitem):
            if isinstance(node.optional_vars, ast.Name):
                name = node.optional_vars.id
                reason = self._value_reason(node.context_expr, ctx)
                if reason is not None:
                    bindings[name] = reason
                if self._is_pool_ctor(node.context_expr, ctx):
                    pools[name] = True

    def _value_reason(
        self, value: ast.AST, ctx: ModuleContext
    ) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a generator"
        if isinstance(value, ast.Call):
            dotted = resolve_dotted(value.func, ctx)
            if dotted in ("open", "io.open", "builtins.open"):
                return "an open file handle"
        return None

    def _is_pool_ctor(self, value: ast.AST, ctx: ModuleContext) -> bool:
        return (
            isinstance(value, ast.Call)
            and terminal_name(value.func) == "ProcessPoolExecutor"
        )

    # -- boundary-call checking ----------------------------------------
    def _check_call(
        self,
        call: ast.Call,
        bindings: Dict[str, str],
        pools: Dict[str, bool],
        ctx: ModuleContext,
    ) -> Iterator[Finding]:
        label = self._boundary_label(call, pools)
        if label is None:
            return
        exprs: List[ast.AST] = list(call.args)
        for kw in call.keywords:
            if label != "Process(...)" or kw.arg in _PROCESS_KEYWORDS:
                exprs.append(kw.value)
        for expr in exprs:
            for site, reason in self._unsafe(expr, bindings):
                yield (
                    site.lineno,
                    site.col_offset,
                    f"{reason} crosses the process boundary via {label} "
                    f"-- boundary payloads must be picklable plain data "
                    f"(module-level callables, frozen dataclasses)",
                )

    def _boundary_label(
        self, call: ast.Call, pools: Dict[str, bool]
    ) -> Optional[str]:
        terminal = terminal_name(call.func)
        if terminal in _BOUNDARY_CONSTRUCTORS:
            return f"{terminal}(...)"
        if terminal == "Process":
            return "Process(...)"
        if terminal in _POOL_METHODS and isinstance(call.func, ast.Attribute):
            owner = call.func.value
            if isinstance(owner, ast.Name) and pools.get(owner.id):
                return f"{owner.id}.{terminal}(...)"
            if (
                isinstance(owner, ast.Call)
                and terminal_name(owner.func) == "ProcessPoolExecutor"
            ):
                return f"ProcessPoolExecutor(...).{terminal}(...)"
        return None

    def _unsafe(
        self, expr: ast.AST, bindings: Dict[str, str]
    ) -> Iterator[Tuple[ast.AST, str]]:
        if isinstance(expr, ast.Lambda):
            yield expr, "a lambda"
        elif isinstance(expr, ast.GeneratorExp):
            yield expr, "a generator expression"
        elif isinstance(expr, ast.Name) and expr.id in bindings:
            yield expr, bindings[expr.id]
        elif isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            for elt in expr.elts:
                yield from self._unsafe(elt, bindings)
        elif isinstance(expr, ast.ListComp):
            yield from self._unsafe(expr.elt, bindings)
        elif isinstance(expr, ast.Starred):
            yield from self._unsafe(expr.value, bindings)


# ----------------------------------------------------------------------
# RC003 -- cache-fingerprint completeness
# ----------------------------------------------------------------------
_ENV_EXEMPT_DIRS = frozenset({"benchmarks", "scripts", "tests"})


class FingerprintCompleteness(Rule):
    code = "RC003"
    name = "fingerprint-completeness"
    description = (
        "every os.environ/os.getenv read that can influence simulation "
        "results must name a knob declared in repro.race.fingerprints; "
        "the registry maps result-affecting knobs onto cache-key fields "
        "(enforced by repro.exec.cache at import), so an undeclared knob "
        "is a latent cache-poisoning hazard"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _ENV_EXEMPT_DIRS.intersection(ctx.fs_parts):
            return
        if not ctx.module_path.startswith("repro/"):
            return
        for node in ctx.nodes():
            name_expr = self._env_read(node, ctx)
            if name_expr is None:
                continue
            if not (
                isinstance(name_expr, ast.Constant)
                and isinstance(name_expr.value, str)
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    "environment variable name must be a string literal "
                    "so the fingerprint registry can be checked "
                    "statically",
                )
                continue
            if not is_registered(name_expr.value):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"read of undeclared environment knob "
                    f"{name_expr.value!r} -- declare it in "
                    f"repro/race/fingerprints.py as fingerprinted (cache-"
                    f"key field) or execution_only (with justification)",
                )

    @staticmethod
    def _env_read(node: ast.AST, ctx: ModuleContext) -> Optional[ast.AST]:
        """The env-name expression of an environment read, if any."""
        if isinstance(node, ast.Call):
            dotted = resolve_dotted(node.func, ctx)
            if dotted in ("os.getenv", "os.environ.get") and node.args:
                return node.args[0]
        elif isinstance(node, ast.Subscript):
            if resolve_dotted(node.value, ctx) == "os.environ":
                return node.slice
        return None


# ----------------------------------------------------------------------
# RC004 -- lookahead soundness
# ----------------------------------------------------------------------
#: The modules where lookahead/horizon expressions live.
_RC004_MODULES = ("repro/sim/partition.py", "repro/sim/sharded.py")
#: The latency model in repro/links/link.py: the only sound origins for
#: a lookahead value.
_LATENCY_FUNCS = frozenset({"min_message_latency", "transfer_cycles_for"})


class LookaheadSoundness(Rule):
    code = "RC004"
    name = "lookahead-soundness"
    description = (
        "the conservative-window lookahead must be derived from the "
        "link-latency constants in links/link.py through non-shrinking "
        "arithmetic (+, * by a positive constant, max), and horizon() "
        "must add the full lookahead -- a lookahead that exceeds the "
        "true minimum latency silently desynchronizes shards"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module_path not in _RC004_MODULES:
            return
        for node in ctx.nodes():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "horizon":
                    yield from self._check_horizon(node)
                else:
                    yield from self._check_assignments(node)

    # -- lookahead derivation ------------------------------------------
    def _check_assignments(self, fn: ast.AST) -> Iterator[Finding]:
        derived: set = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if self._is_latency(node.value, derived) and not (
                    self._shrinks(node.value, derived)
                ):
                    derived.add(target.id)
                if target.id == "lookahead":
                    yield from self._judge(node.value, derived, node)
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "lookahead":
                        yield from self._judge(kw.value, derived, kw.value)

    def _judge(
        self, value: ast.AST, derived: set, site: ast.AST
    ) -> Iterator[Finding]:
        lineno = getattr(site, "lineno", 1)
        col = getattr(site, "col_offset", 0)
        if self._shrinks(value, derived):
            yield (
                lineno,
                col,
                "lookahead expression shrinks a latency-derived term "
                "(subtraction/division/min) -- the lookahead may never "
                "undercut the links/link.py bound",
            )
        elif not self._is_latency(value, derived):
            yield (
                lineno,
                col,
                "lookahead is not derived from the link-latency model "
                "(min_message_latency / transfer_cycles_for in "
                "links/link.py) -- a free constant here voids the "
                "conservative-window proof",
            )

    def _is_latency(self, expr: ast.AST, derived: set) -> bool:
        if isinstance(expr, ast.Call):
            terminal = terminal_name(expr.func)
            if terminal in _LATENCY_FUNCS:
                return True
            if terminal == "max":
                return any(self._is_latency(a, derived) for a in expr.args)
            return False
        if isinstance(expr, ast.Name):
            return expr.id in derived
        if isinstance(expr, ast.Attribute):
            return expr.attr in derived
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.Add):
                return self._is_latency(
                    expr.left, derived
                ) or self._is_latency(expr.right, derived)
            if isinstance(expr.op, ast.Mult):
                if self._is_latency(expr.left, derived):
                    return self._grows(expr.right)
                if self._is_latency(expr.right, derived):
                    return self._grows(expr.left)
        return False

    @staticmethod
    def _grows(scale: ast.AST) -> bool:
        """A multiplier provably >= 1 (constant propagation)."""
        return (
            isinstance(scale, ast.Constant)
            and isinstance(scale.value, (int, float))
            and scale.value >= 1
        )

    def _shrinks(self, expr: ast.AST, derived: set) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.Div, ast.FloorDiv, ast.Mod, ast.RShift)
            ):
                if self._is_latency(node.left, derived) or self._is_latency(
                    node.right, derived
                ):
                    return True
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.Mult
            ):
                lat_l = self._is_latency(node.left, derived)
                lat_r = self._is_latency(node.right, derived)
                if lat_l and not lat_r and not self._grows(node.right):
                    if isinstance(node.right, ast.Constant):
                        return True
                if lat_r and not lat_l and not self._grows(node.left):
                    if isinstance(node.left, ast.Constant):
                        return True
            elif isinstance(node, ast.Call):
                if terminal_name(node.func) == "min" and any(
                    self._is_latency(a, derived) for a in node.args
                ):
                    return True
        return False

    # -- horizon bound --------------------------------------------------
    def _check_horizon(self, fn: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            if not self._mentions_lookahead(node.value):
                yield (
                    node.lineno,
                    node.col_offset,
                    "horizon() return does not add the declared lookahead "
                    "-- every horizon bound must include the full minimum "
                    "cross-shard latency",
                )
            elif self._shrinks(node.value, {"lookahead"}):
                yield (
                    node.lineno,
                    node.col_offset,
                    "horizon() shrinks the lookahead term -- the window "
                    "bound may never undercut the declared lookahead",
                )

    @staticmethod
    def _mentions_lookahead(expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and node.attr == "lookahead":
                return True
            if isinstance(node, ast.Name) and node.id == "lookahead":
                return True
        return False


# ----------------------------------------------------------------------
# RC005 -- worker-context independence
# ----------------------------------------------------------------------
#: Worker-executed packages: everything that can run inside a forked
#: shard worker (the same scope the ST rules audit for snapshottability).
_RC005_SCOPE = SIMULATION_SCOPE
_CONTEXT_READS = frozenset(
    {
        "os.getpid",
        "os.getppid",
        "os.getcwd",
        "os.getcwdb",
        "os.uname",
        "os.urandom",
        "os.getlogin",
        "pathlib.Path.cwd",
        "multiprocessing.current_process",
        "multiprocessing.get_start_method",
        "multiprocessing.parent_process",
        "threading.get_ident",
        "threading.get_native_id",
        "threading.current_thread",
        "threading.main_thread",
        "socket.gethostname",
        "socket.getfqdn",
        "platform.node",
        "platform.uname",
        "uuid.uuid1",
        "uuid.uuid4",
        "id",
    }
)


class WorkerContextIndependence(Rule):
    code = "RC005"
    name = "worker-context-independence"
    description = (
        "worker-executed modules must not observe process identity "
        "(pid, cwd, start method, thread ids, hostname, object "
        "addresses) -- any such read makes inline and forked shards "
        "diverge, breaking the bit-identity contract"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.module_path.startswith(_RC005_SCOPE):
            return
        for node in ctx.nodes():
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, ctx)
            if dotted in _CONTEXT_READS:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"process-context read `{dotted}()` in worker-executed "
                    f"module {ctx.module_path} -- inline and forked shards "
                    f"would observe different values and desynchronize",
                )


RACE_RULES: Tuple[Rule, ...] = (
    ShardIsolation(),
    PayloadSafety(),
    FingerprintCompleteness(),
    LookaheadSoundness(),
    WorkerContextIndependence(),
)
