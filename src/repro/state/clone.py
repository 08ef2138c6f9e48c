"""Closure-aware deep cloning -- the mechanism under snapshot/restore.

``copy.deepcopy`` already does almost everything a simulator snapshot
needs: one shared memo clones the entire object graph (components, the
event heap, RNG streams, auditor counters) while preserving aliasing --
two references to one deque stay two references to one *cloned* deque,
and a bound method's receiver is cloned through the same memo, so queue
callbacks land on the cloned components automatically.

The one gap is functions: stdlib deepcopy treats every function as
atomic, but scheduled callbacks are frequently closures
(``lambda: self._complete(task, duration)``) whose cells point straight
into mutable simulation state.  Sharing those cells between the live
system and its snapshot would let the live run mutate the "frozen"
copy.  :func:`deep_clone` therefore patches the deepcopy dispatch table
*for the duration of one clone* with a function copier that rebuilds
closure cells (and deep-copies default arguments), registered in the
memo before recursing so self-referential closures terminate.

Unsnapshottable leaves (open files, generators, locks, sockets) make
``deepcopy`` raise ``TypeError``; we convert that into
:class:`SnapshotError` with the offending object named.  The static
ST002 rule exists precisely so this error never fires on the shipped
model tree.
"""

from __future__ import annotations

import copy
import types
from typing import Any, Dict

__all__ = ["SnapshotError", "deep_clone"]


class SnapshotError(RuntimeError):
    """A snapshot or restore could not be taken/applied."""


#: Default values that never need a cloned function: immutable scalars.
_ATOMIC_DEFAULTS = (type(None), bool, int, float, str, bytes, frozenset)


def _needs_clone(fn: types.FunctionType) -> bool:
    """Closures always; otherwise only when defaults can hold state."""
    if fn.__closure__:
        return True
    defaults = list(fn.__defaults__ or ())
    defaults.extend((fn.__kwdefaults__ or {}).values())
    return any(
        not isinstance(value, _ATOMIC_DEFAULTS) for value in defaults
    )


def _clone_function(
    fn: types.FunctionType, memo: Dict[int, Any]
) -> types.FunctionType:
    hit = memo.get(id(fn))
    if hit is not None:
        return hit  # type: ignore[no-any-return]
    if not _needs_clone(fn):
        # Plain module-level function: stateless, safe to share.
        memo[id(fn)] = fn
        return fn
    cells = tuple(types.CellType() for _ in (fn.__closure__ or ()))
    clone = types.FunctionType(
        fn.__code__, fn.__globals__, fn.__name__, None, cells or None
    )
    clone.__qualname__ = fn.__qualname__
    # Register before recursing: a cell may point back at the function.
    memo[id(fn)] = clone
    memo.setdefault(id(memo), []).append(fn)  # keep original alive
    if fn.__defaults__ is not None:
        clone.__defaults__ = copy.deepcopy(fn.__defaults__, memo)
    if fn.__kwdefaults__ is not None:
        clone.__kwdefaults__ = copy.deepcopy(fn.__kwdefaults__, memo)
    if fn.__dict__:
        clone.__dict__.update(copy.deepcopy(fn.__dict__, memo))
    for cell, new_cell in zip(fn.__closure__ or (), cells):
        try:
            contents = cell.cell_contents
        except ValueError:
            continue  # genuinely empty cell stays empty
        new_cell.cell_contents = copy.deepcopy(contents, memo)
    return clone


def deep_clone(obj: Any, memo: "Dict[int, Any] | None" = None) -> Any:
    """Deep-copy ``obj`` with closure cells cloned, not shared.

    The dispatch-table patch is process-global for the duration of the
    call; simulation runs are single-threaded (the exec layer
    parallelises across *processes*), so this cannot race.
    """
    dispatch = copy._deepcopy_dispatch  # type: ignore[attr-defined]
    previous = dispatch.get(types.FunctionType)
    dispatch[types.FunctionType] = _clone_function
    try:
        return copy.deepcopy(obj, memo if memo is not None else {})
    except TypeError as exc:
        raise SnapshotError(
            f"object graph holds unsnapshottable state: {exc} -- "
            f"the ST002 rule flags these statically"
        ) from exc
    finally:
        if previous is None:
            del dispatch[types.FunctionType]
        else:
            dispatch[types.FunctionType] = previous
