"""``repro.analyze`` -- the simulator's static analyzers, one framework.

The simulation engine promises bit-identical cycle counts for identical
seeds, and the result cache serves any number that was ever computed,
so a code path that lets wall-clock time, hash order, unsnapshottable
state or cross-shard leakage into a run silently corrupts every figure
downstream.  Four rule namespaces enforce those invariants mechanically
(stdlib :mod:`ast` only):

====  ===========================  ======================================
ns    focus                        pass
====  ===========================  ======================================
SL    determinism hazards          per module
FL    message-protocol invariants  whole program, over the protocol graph
ST    state inventory              whole program, over the inventory
RC    shard isolation              per module
====  ===========================  ======================================

The driver reads and parses each file once, runs every namespace over
the parsed trees, and applies two filters to every finding:

* a per-line suppression, ``# analyze: ignore[SL003,RC001]`` (the bare
  ``# analyze: ignore`` silences the line for every rule);
* the module-wide :data:`ALLOWLIST`, where every entry must carry a
  written justification.

``python -m repro.analyze`` is the command line (:mod:`.cli`);
``docs/analysis.md`` is the rule and flag reference.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .base import SIMULATION_SCOPE, ModuleContext, Rule
from .flow_graph import build_protocol_graph
from .flow_rules import FLOW_RULES
from .inventory import StateInventory, build_inventory
from .lint_rules import LINT_RULES
from .race_rules import RACE_RULES
from .state_rules import STATE_RULES

__all__ = [
    "ALLOWLIST",
    "NAMESPACES",
    "RULES",
    "SYNTAX_ERROR",
    "AllowlistEntry",
    "Diagnostic",
    "Namespace",
    "Rule",
    "analyze_paths",
    "analyze_sources",
    "build_tree_inventory",
    "iter_python_files",
    "module_path_of",
    "validate_allowlist",
]

#: Pseudo-rule reported once for a file that does not parse.
SYNTAX_ERROR = "AN000"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, which rule, and what went wrong."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def __str__(self) -> str:
        return self.format()


# ----------------------------------------------------------------------
# the rule registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Namespace:
    """One rule family: its code prefix, rules, and how they run."""

    prefix: str
    title: str
    rules: Tuple[Rule, ...]
    #: Whole-program model builder over sorted ``(module_path, tree)``
    #: pairs; ``None`` makes the rules a per-module pass.
    build: Optional[Callable[[Sequence[Tuple[str, ast.Module]]], Any]] = None
    #: Module-path prefixes a whole-program namespace analyses.
    scope: Tuple[str, ...] = ()


NAMESPACES: Tuple[Namespace, ...] = (
    Namespace("SL", "determinism", LINT_RULES),
    Namespace(
        "FL",
        "message protocol",
        FLOW_RULES,
        build_protocol_graph,
        # Only these layers create or handle messages.
        ("repro/messages/", "repro/bridge/", "repro/ndp/"),
    ),
    Namespace(
        "ST", "state inventory", STATE_RULES, build_inventory,
        SIMULATION_SCOPE,
    ),
    Namespace("RC", "shard isolation", RACE_RULES),
)

RULES: Tuple[Rule, ...] = tuple(
    rule for namespace in NAMESPACES for rule in namespace.rules
)


# ----------------------------------------------------------------------
# the allowlist
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AllowlistEntry:
    """One sanctioned (rule, module) pair."""

    rule: str
    #: Module path relative to the package root, e.g. "repro/sim/rng.py".
    module: str
    justification: str


#: Modules whose *purpose* is the exception.  Prefer a per-line
#: ``# analyze: ignore[RULE]`` for one-off sites.
ALLOWLIST: Tuple[AllowlistEntry, ...] = (
    AllowlistEntry(
        rule="SL002",
        module="repro/sim/rng.py",
        justification=(
            "the sanctioned randomness facade: wraps random.Random behind "
            "seeded, named DeterministicRNG streams; every other module "
            "must go through it"
        ),
    ),
    AllowlistEntry(
        rule="ST004",
        module="repro/sim/rng.py",
        justification=(
            "the named-stream facade itself: DeterministicRNG wraps "
            "random.Random behind sha256-derived (seed, name) streams "
            "and substream() necessarily constructs new instances; "
            "snapshot/restore captures them via getstate()/setstate()"
        ),
    ),
    AllowlistEntry(
        rule="ST004",
        module="repro/runtime/system.py",
        justification=(
            "the system root constructs the one root DeterministicRNG "
            "stream per run (seeded from SystemConfig.seed); every "
            "other consumer derives a substream from it"
        ),
    ),
    AllowlistEntry(
        rule="ST003",
        module="repro/runtime/task.py",
        justification=(
            "_task_ids is a process-global monotonic itertools.count "
            "used only for relative ordering (reserved_id comparisons "
            "in NDPUnit._next_task); a restore that resumes the count "
            "at a shifted base preserves every comparison, so the "
            "counter is snapshot-safe without being captured.  The "
            "snapshot manifest records task ids symbolically, never "
            "the counter position"
        ),
    ),
    AllowlistEntry(
        rule="ST003",
        module="repro/messages/types.py",
        justification=(
            "_message_ids is a process-global monotonic itertools.count "
            "used only for identity (auditor ledger keys, wire-cache "
            "tags); ids never feed control flow or arithmetic, so a "
            "shifted base after restore is behaviour-preserving and "
            "the counter needs no capture"
        ),
    ),
    AllowlistEntry(
        rule="RC001",
        module="repro/sim/sharded.py",
        justification=(
            "the conservative-window coordinator itself: it owns the "
            "transport seam and is the one module allowed to construct "
            "ForkTransport next to its inline twin -- shard *models* "
            "never see either transport, only the ShardRuntime protocol "
            "the coordinator drives"
        ),
    ),
)


def validate_allowlist(entries: Iterable[AllowlistEntry]) -> None:
    """Reject unknown rule codes, empty justifications and duplicates."""
    codes = {rule.code for rule in RULES}
    seen = set()
    for entry in entries:
        if entry.rule not in codes:
            raise ValueError(f"allowlist names unknown rule {entry.rule!r}")
        if not entry.justification.strip():
            raise ValueError(
                f"allowlist entry ({entry.rule}, {entry.module}) has no "
                f"justification -- every sanctioned site must say why"
            )
        key = (entry.rule, entry.module)
        if key in seen:
            raise ValueError(f"duplicate allowlist entry {key}")
        seen.add(key)


validate_allowlist(ALLOWLIST)


# ----------------------------------------------------------------------
# per-line suppression
# ----------------------------------------------------------------------
_SUPPRESS_RE = re.compile(r"#\s*analyze:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")

#: Sentinel rule set meaning "every rule" for a bare ``# analyze: ignore``.
_ALL_RULES: FrozenSet[str] = frozenset({"*"})


def suppressed_lines(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule codes suppressed on that line."""
    out: Dict[int, FrozenSet[str]] = {}
    if "analyze:" not in source:
        return out
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = match.group(1)
        if rules is None:
            out[lineno] = _ALL_RULES
        else:
            out[lineno] = frozenset(
                r.strip().upper() for r in rules.split(",") if r.strip()
            )
    return out


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def module_path_of(path: Path) -> str:
    """Path relative to the package root, e.g. 'repro/sim/engine.py'.

    Files outside a ``repro`` package keep their name, which means
    path-scoped rules simply do not fire on them.
    """
    parts = path.as_posix().split("/")
    for i, part in enumerate(parts):
        if part == "repro":
            return "/".join(parts[i:])
    return path.name


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    seen = set()
    unique: List[Path] = []
    for f in files:
        key = f.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


@dataclass
class _Parsed:
    path: str
    module_path: str
    tree: ast.Module
    suppressed: Dict[int, FrozenSet[str]]


def _parse(
    modules: Sequence[Tuple[Union[str, Path], str, str]],
) -> Tuple[List[_Parsed], List[Diagnostic]]:
    parsed: List[_Parsed] = []
    errors: List[Diagnostic] = []
    for path, module_path, source in modules:
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            errors.append(
                Diagnostic(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    rule=SYNTAX_ERROR,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        parsed.append(
            _Parsed(str(path), module_path, tree, suppressed_lines(source))
        )
    return parsed, errors


def _whole_program(
    namespace: Namespace, parsed: Sequence[_Parsed]
) -> Tuple[Any, Dict[str, _Parsed]]:
    """A whole-program namespace's model over its in-scope modules, and
    those modules by module path (a path seen twice keeps the last)."""
    assert namespace.build is not None
    scoped = {
        m.module_path: m
        for m in parsed
        if m.module_path.startswith(namespace.scope)
    }
    pairs = [(path, module.tree) for path, module in sorted(scoped.items())]
    return namespace.build(pairs), scoped


def analyze_sources(
    modules: Sequence[Tuple[Union[str, Path], str, str]],
) -> List[Diagnostic]:
    """Analyse ``(path, module_path, source)`` triples as one tree.

    ``module_path`` places a file in the package (``repro/sim/x.py``)
    for rule scoping and the allowlist.  A file that fails to parse
    yields one :data:`SYNTAX_ERROR` finding; every namespace then runs
    on whatever parsed.
    """
    parsed, diagnostics = _parse(modules)
    allowed = {(entry.rule, entry.module) for entry in ALLOWLIST}

    def report(module: _Parsed, code: str, line: int, col: int,
               message: str) -> None:
        if (code, module.module_path) in allowed:
            return
        rules_here = module.suppressed.get(line)
        if rules_here is not None and (
            rules_here is _ALL_RULES or code in rules_here
        ):
            return
        diagnostics.append(
            Diagnostic(module.path, line, col, code, message)
        )

    per_module = [ns for ns in NAMESPACES if ns.build is None]
    for module in parsed:
        ctx = ModuleContext(
            tree=module.tree,
            module_path=module.module_path,
            fs_parts=Path(module.path).parts,
        )
        for namespace in per_module:
            for rule in namespace.rules:
                for line, col, message in rule.check(ctx):
                    report(module, rule.code, line, col, message)

    for namespace in NAMESPACES:
        if namespace.build is None:
            continue
        model, scoped = _whole_program(namespace, parsed)
        for rule in namespace.rules:
            for module_path, line, col, message in rule.check(model):
                report(scoped[module_path], rule.code, line, col, message)

    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return diagnostics


def _read(paths: Sequence[Union[str, Path]]) -> List[Tuple[Path, str, str]]:
    return [
        (path, module_path_of(path), path.read_text(encoding="utf-8"))
        for path in iter_python_files(paths)
    ]


def analyze_paths(paths: Sequence[Union[str, Path]]) -> List[Diagnostic]:
    """Analyse every .py file under ``paths`` (dirs recursed, sorted)."""
    return analyze_sources(_read(paths))


def build_tree_inventory(paths: Sequence[Union[str, Path]]) -> StateInventory:
    """The ST namespace's raw inventory for ``paths`` (the snapshot
    layer cross-checks live systems against it)."""
    parsed, _errors = _parse(_read(paths))
    state = next(ns for ns in NAMESPACES if ns.prefix == "ST")
    inventory: StateInventory = _whole_program(state, parsed)[0]
    return inventory
