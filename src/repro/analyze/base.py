"""The rule base and the per-module context every analyzer rule shares.

A rule is a pure detector: it yields findings and never decides
whether one is suppressed or allowlisted -- the driver in
:mod:`repro.analyze` does that, once, for all four namespaces.

All path scoping uses the *module path* -- the file's path relative to
the package root, e.g. ``repro/sim/engine.py`` -- which the driver
derives from the real filesystem path (tests pass it explicitly to
place fixture snippets at a virtual location).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: A per-module rule's finding: (line, col, message).
Finding = Tuple[int, int, str]

#: The packages whose objects live inside a running simulation (and so
#: inside a snapshot and a forked shard worker).  Analysis, plotting and
#: CLI layers hold no simulated state.
SIMULATION_SCOPE: Tuple[str, ...] = (
    "repro/sim/",
    "repro/bridge/",
    "repro/ndp/",
    "repro/runtime/",
    "repro/balance/",
    "repro/links/",
    "repro/dram/",
    "repro/messages/",
)


class Rule:
    """Base class: subclasses set ``code``/``name`` and implement check().

    Per-module rules (SL, RC) receive a :class:`ModuleContext` and yield
    ``(line, col, message)``; whole-program rules (FL, ST) receive their
    namespace's model and yield ``(module_path, line, col, message)``.
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, subject: Any) -> Iterator[Tuple[Any, ...]]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.code} {self.name}>"


@dataclass
class ModuleContext:
    """Everything a per-module rule needs to know about one module."""

    tree: ast.Module
    #: Logical path relative to the package root ("repro/sim/engine.py").
    module_path: str
    #: Real filesystem path parts (used for benchmarks/scripts exemption).
    fs_parts: Tuple[str, ...] = ()
    _aliases: "Optional[Tuple[Dict[str, str], Dict[str, str]]]" = field(
        default=None, repr=False
    )
    _nodes: Optional[List[ast.AST]] = field(default=None, repr=False)

    def nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order, computed once
        (each rule scans the whole module, so the walk is shared)."""
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes

    def aliases(self) -> Tuple[Dict[str, str], Dict[str, str]]:
        """``(modules, members)`` import maps, computed once.

        ``modules`` maps local names to module dotted paths
        (``import time as t`` -> ``{"t": "time"}``); ``members`` maps
        names bound by ``from m import n as a`` to ``m.n``.
        """
        if self._aliases is None:
            modules: Dict[str, str] = {}
            members: Dict[str, str] = {}
            for node in self.nodes():
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            modules[alias.asname] = alias.name
                        else:
                            root = alias.name.split(".")[0]
                            modules[root] = root
                elif isinstance(node, ast.ImportFrom):
                    if node.module and node.level == 0:
                        for alias in node.names:
                            members[alias.asname or alias.name] = (
                                f"{node.module}.{alias.name}"
                            )
            self._aliases = (modules, members)
        return self._aliases


def resolve_dotted(node: ast.AST, ctx: ModuleContext) -> Optional[str]:
    """Best-effort dotted name of an expression, import-aware.

    ``pc()`` after ``from time import perf_counter as pc`` resolves to
    ``time.perf_counter``; unresolvable shapes (subscripts, calls in the
    chain) return ``None``.
    """
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.reverse()
    modules, members = ctx.aliases()
    base = cur.id
    if base in members:
        return ".".join([members[base], *parts])
    if base in modules:
        return ".".join([modules[base], *parts])
    return ".".join([base, *parts])


def terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
