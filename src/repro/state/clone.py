"""Freeze/thaw cloning -- the mechanism under snapshot/restore.

A snapshot must be re-forkable: one frozen image, any number of live
systems that share no mutable state with it or with each other.
:func:`freeze` pickles the whole object graph once, in memory, into a
:class:`Frozen` blob; :meth:`Frozen.thaw` unpickles one independent
copy per call.  The C pickler walks the graph with one memo, so
aliasing survives exactly as under ``copy.deepcopy``: two references to
one deque become two references to one *cloned* deque, and a bound
method's receiver is cloned with everything else, so queued callbacks
land on the cloned components.

The pickler's ``reducer_override`` keeps deepcopy's contract where
pickle's own defaults differ:

* Objects deepcopy treats as atomic -- classes (local ones too),
  builtin functions, code objects, ``weakref.ref``, ``property``, and
  functions without closures whose defaults are all atomic -- are never
  pickled by name.  They go into the blob's side table, and every thaw
  gets the same object back.  Unlike deepcopy, a builtin method bound
  to an instance (``some_deque.append``) is cloned with its receiver.
* Closures get new cells.  The new function is memoized before its
  cell contents are pickled, and the contents are filled in afterwards
  through a ``state_setter``, so a closure whose cell refers back to
  itself terminates.
* A class that defines ``__deepcopy__`` keeps that hook: it runs once
  at freeze (capturing the state as of the snapshot) and once per thaw
  on that frozen copy.  A hook that returns ``self`` (``Enum``, a
  process-wide tracer) therefore shares the object into every fork.
* An instance that is a bare ``__dict__`` under pickle's default
  reduction is rebuilt by setting its attributes one by one, as
  ``__init__`` would, so thawed objects keep the interpreter's fast
  attribute layout.

Unsnapshottable leaves (open files, generators, locks, modules) make
the pickler raise; :func:`freeze` converts that into
:class:`SnapshotError` with the offending type named.  The static ST002
rule exists precisely so this error never fires on the shipped model
tree.
"""

from __future__ import annotations

import copyreg
import io
import pickle
import types
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from .snapshot import SnapshotError

__all__ = ["Frozen", "freeze"]

#: Default values that never need a cloned function: immutable scalars.
_ATOMIC_DEFAULTS = (type(None), bool, int, float, str, bytes, frozenset)

#: Shared by identity, like deepcopy's atomic types (classes are
#: recognised through their metaclass, see :func:`_reducer_for`).
_SHARED_TYPES = (types.CodeType, weakref.ref, property)


# Placeholders pickled by name; :class:`_Thawer` resolves each one to a
# callable over the thaw's own side table and memo.
def _shared(index: int) -> Any:
    raise AssertionError("resolved by _Thawer.find_class")


def _function(index: int, ncells: int) -> Any:
    raise AssertionError("resolved by _Thawer.find_class")


def _hook(index: int) -> Any:
    raise AssertionError("resolved by _Thawer.find_class")


_PLACEHOLDERS = frozenset((_shared, _function, _hook))


def _fill_function(fn: types.FunctionType, state: Tuple[Any, ...]) -> None:
    """``state_setter`` of a cloned function: defaults, dict, cells."""
    defaults, kwdefaults, attrs, contents = state
    fn.__defaults__ = defaults
    fn.__kwdefaults__ = kwdefaults
    if attrs:
        fn.__dict__.update(attrs)
    cells = fn.__closure__ or ()
    for index, value in contents:
        cells[index].cell_contents = value


def _needs_clone(fn: types.FunctionType) -> bool:
    """Closures always; otherwise only when defaults can hold state."""
    if fn.__closure__:
        return True
    defaults = list(fn.__defaults__ or ())
    defaults.extend((fn.__kwdefaults__ or {}).values())
    return any(
        not isinstance(value, _ATOMIC_DEFAULTS) for value in defaults
    )


_Reduce = Optional[Callable[["_Freezer", Any], Any]]


class _Freezer(pickle.Pickler):
    """In-memory pickler enforcing deepcopy's sharing contract."""

    def __init__(self, file: io.BytesIO, shared: List[Any]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared = shared
        self._reducers: Dict[type, _Reduce] = {}
        self._hook_memo: Dict[int, Any] = {}

    def reducer_override(self, obj: Any) -> Any:
        kind = type(obj)
        try:
            reduce = self._reducers[kind]
        except KeyError:
            reduce = self._reducers[kind] = _reducer_for(kind)
        return NotImplemented if reduce is None else reduce(self, obj)

    # pickle memoizes every reduced object, so each runs once per freeze.
    def _share(self, obj: Any) -> Any:
        self._shared.append(obj)
        return _shared, (len(self._shared) - 1,)

    def _reduce_builtin(self, fn: Any) -> Any:
        receiver = fn.__self__
        if receiver is None or isinstance(receiver, (types.ModuleType, type)):
            return self._share(fn)
        return NotImplemented  # bound to an instance: clone the receiver

    def _reduce_function(self, fn: types.FunctionType) -> Any:
        if fn in _PLACEHOLDERS:
            return NotImplemented  # by name, for find_class
        if not _needs_clone(fn):
            return self._share(fn)
        # The template keeps only the immutable parts, never the live
        # cells: the blob must not pin the system it was frozen from.
        self._shared.append(
            (fn.__code__, fn.__globals__, fn.__name__, fn.__qualname__)
        )
        contents = []
        for index, cell in enumerate(fn.__closure__ or ()):
            try:
                contents.append((index, cell.cell_contents))
            except ValueError:
                continue  # genuinely empty cell stays empty
        state = (
            fn.__defaults__, fn.__kwdefaults__, fn.__dict__ or None,
            tuple(contents),
        )
        ncells = len(fn.__closure__ or ())
        return (
            _function, (len(self._shared) - 1, ncells), state,
            None, None, _fill_function,
        )

    def _reduce_method(self, method: types.MethodType) -> Any:
        return types.MethodType, (method.__func__, method.__self__)

    def _reduce_plain(self, obj: Any) -> Any:
        # Attributes as "slot state": the thaw sets them one by one, so
        # they land in the instance's inline values as under __init__.
        # Pickle's default BUILD fills a materialized split dict that
        # CPython 3.11's attribute caches cannot serve; the forked half
        # of perfbench's snapshot-fork cell ran 11-18% slower that way
        # on a 2-core x86-64 host.
        return copyreg.__newobj__, (type(obj),), (None, obj.__dict__)

    def _reduce_hook(self, obj: Any) -> Any:
        self._shared.append(obj.__deepcopy__(self._hook_memo))
        return _hook, (len(self._shared) - 1,)


def _reducer_for(kind: type) -> _Reduce:
    if issubclass(kind, type):
        return _Freezer._share
    if kind is types.BuiltinFunctionType:
        return _Freezer._reduce_builtin
    if issubclass(kind, _SHARED_TYPES):
        return _Freezer._share
    if kind is types.FunctionType:
        return _Freezer._reduce_function
    if kind is types.MethodType:
        return _Freezer._reduce_method
    if getattr(kind, "__deepcopy__", None) is not None:
        return _Freezer._reduce_hook
    if _is_plain(kind):
        return _Freezer._reduce_plain
    return None  # pickle's own reduction


class _Plain:
    pass


_PLAIN_LAYOUT = (
    _Plain.__basicsize__, _Plain.__itemsize__, _Plain.__dictoffset__
)
_OBJECT_GETSTATE = getattr(object, "__getstate__", None)


def _is_plain(kind: type) -> bool:
    """Instances are a bare ``__dict__`` that pickle's default reduction
    would copy as-is: no slots or C-level state, no custom pickling,
    no custom ``__setattr__``."""
    return (
        (kind.__basicsize__, kind.__itemsize__, kind.__dictoffset__)
        == _PLAIN_LAYOUT
        and kind.__reduce_ex__ is object.__reduce_ex__
        and kind.__reduce__ is object.__reduce__
        and getattr(kind, "__getstate__", None) is _OBJECT_GETSTATE
        and not hasattr(kind, "__setstate__")
        and not hasattr(kind, "__getnewargs_ex__")
        and not hasattr(kind, "__getnewargs__")
        and kind.__setattr__ is object.__setattr__
        and kind not in copyreg.dispatch_table
    )


class _Thawer(pickle.Unpickler):
    """Unpickler resolving the placeholders against one side table."""

    def __init__(self, blob: bytes, shared: Tuple[Any, ...]) -> None:
        super().__init__(io.BytesIO(blob))
        self._shared = shared
        self._hook_memo: Dict[int, Any] = {}

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__:
            if name == "_shared":
                return self._shared.__getitem__
            if name == "_function":
                return self._function
            if name == "_hook":
                return self._hook
        return super().find_class(module, name)

    def _function(self, index: int, ncells: int) -> types.FunctionType:
        code, globals_, name, qualname = self._shared[index]
        cells = tuple(types.CellType() for _ in range(ncells))
        fn = types.FunctionType(code, globals_, name, None, cells or None)
        fn.__qualname__ = qualname
        return fn

    def _hook(self, index: int) -> Any:
        return self._shared[index].__deepcopy__(self._hook_memo)


class Frozen:
    """A pickled object graph plus its side table of shared objects."""

    __slots__ = ("blob", "shared")

    def __init__(self, blob: bytes, shared: Tuple[Any, ...]) -> None:
        self.blob = blob
        self.shared = shared

    def thaw(self) -> Any:
        """One independent copy of the frozen graph."""
        return _Thawer(self.blob, self.shared).load()


def freeze(obj: Any) -> Frozen:
    """Pickle ``obj`` once, in memory, with closure cells cloned."""
    buffer = io.BytesIO()
    shared: List[Any] = []
    try:
        _Freezer(buffer, shared).dump(obj)
    except (TypeError, pickle.PicklingError) as exc:
        raise SnapshotError(
            f"object graph holds unsnapshottable state: {exc} -- "
            f"the ST002 rule flags these statically"
        ) from exc
    return Frozen(buffer.getvalue(), tuple(shared))
