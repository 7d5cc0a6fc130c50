"""Base classes for the package's data: interned nodes and plain records.

`Interned` classes are hash-consed: the constructor returns the one live
node with the given fields, so structural equality is identity and `hash`
is O(1).  Fields must be hashable and are themselves interned nodes or
plain values, so building a key never walks a tree.  Nodes are immutable
and built only through their constructors; `copy` and `pickle` go through
the constructor too.  The intern table holds its nodes weakly: a node
nobody refers to is dropped from it.

`Record` classes are plain `__slots__` records compared and hashed by
their fields, leaving out source positions (`line`, `col`).  Each
subclass writes its own `__init__`.

A `Scope` is a dict whose changes are undone in the reverse order: the
name scope of the elaborator (`hosmt.elaborate`), of scripts and
certificates alike, and of the printer.
"""

import weakref


class _Ref(weakref.ref):
    """A weak reference to an interned node that remembers its table key."""

    __slots__ = ("key",)


_table = {}  # (class, *fields) -> _Ref


def _drop(ref):
    # the node died; its key may already name a newer node
    if _table.get(ref.key) is ref:
        del _table[ref.key]


def _show(obj, names):
    fields = ", ".join(f"{n}={getattr(obj, n)!r}" for n in names)
    return f"{type(obj).__name__}({fields})"


class Interned:
    """Hash-consed immutable node; a subclass names its fields in `__slots__`."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} "
                            f"fields, got {len(fields)}")
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        ref = _table[key] = _Ref(node, _drop)
        ref.key = key
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def __repr__(self):
        return _show(self, self.__slots__)


_POSITIONS = frozenset(("line", "col"))


class Record:
    """Plain record, equal to another of its class with equal fields."""

    __slots__ = ()
    _fields = ()  # the compared fields: __slots__ without positions

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(n for n in cls.__slots__ if n not in _POSITIONS)

    def _values(self):
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return _show(self, self._fields)


_MISSING = object()


class Scope(dict):
    """A dict with an undo stack.  `bind(pairs)` sets keys and records what
    they held as one undo entry, and `unbind()` restores the latest entry.
    `at` is the context node whose entries the scope holds below its
    other entries (`context.move`), or None."""

    __slots__ = ("undo", "at")

    def __init__(self):
        super().__init__()
        self.undo = []
        self.at = None

    def bind(self, pairs):
        saved, get = [], self.get
        for key, value in pairs:
            saved.append((key, get(key, _MISSING)))
            self[key] = value
        self.undo.append(saved)

    def unbind(self):
        for key, old in reversed(self.undo.pop()):
            if old is _MISSING:
                del self[key]
            else:
                self[key] = old
