"""Proof contexts: ordered lists of fixed variables and simultaneous
substitutions, the induced substitution, and capture-avoiding application.

Contexts are persistent: extension returns a new context sharing its prefix,
and the induced substitution is memoized per context node.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Optional

from .core import Var, alpha_eq, sort_of, substitute


@dataclass(frozen=True)
class Fix:
    var: Var


@dataclass(frozen=True)
class Map:
    pairs: tuple  # ((Var, term), ...), nonempty, vars pairwise distinct


@dataclass(frozen=True)
class Context:
    parent: Optional["Context"] = None
    entry: object = None

    def fix(self, var):
        return Context(self, Fix(var))

    def map(self, pairs):
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("substitution entry must be nonempty")
        seen = set()
        for v, img in pairs:
            if v.id in seen:
                raise ValueError(f"variable {v.name} bound twice in one entry")
            seen.add(v.id)
            if sort_of(img) != v.sort:
                raise ValueError(f"image of {v.name} has the wrong sort")
        return Context(self, Map(pairs))

    def entries(self):
        """Entries outermost-first."""
        out = []
        c = self
        while c.entry is not None:
            out.append(c.entry)
            c = c.parent
        out.reverse()
        return out

    def is_empty(self):
        return self.entry is None


EMPTY = Context()


@lru_cache(maxsize=None)
def context_subst(ctx):
    """The substitution induced by a context, folded outermost-first.

    Fixing x shadows (removes) any replacement of x; appending a mapping
    composes it under the substitution so far: new images receive the old
    substitution, old entries persist unless remapped.
    """
    if ctx.entry is None:
        return MappingProxyType({})
    base = dict(context_subst(ctx.parent))
    e = ctx.entry
    if isinstance(e, Fix):
        base.pop(e.var.id, None)
        return MappingProxyType(base)
    out = {k: v for k, v in base.items()}
    for v, img in e.pairs:
        out[v.id] = substitute(img, base)
    return MappingProxyType(out)


def apply_context(ctx, t):
    """Capture-avoiding application of the context's substitution."""
    return substitute(t, context_subst(ctx))


def entry_eq(e1, e2):
    if isinstance(e1, Fix) and isinstance(e2, Fix):
        return e1.var.id == e2.var.id
    if isinstance(e1, Map) and isinstance(e2, Map):
        if len(e1.pairs) != len(e2.pairs):
            return False
        return all(v1.id == v2.id and alpha_eq(t1, t2)
                   for (v1, t1), (v2, t2) in zip(e1.pairs, e2.pairs))
    return False


def contexts_equal(c1, c2):
    """Same entries in the same order.  The chains are walked innermost
    first, up to the first node they share: a context parsed from a named
    definition is the very parent of its extensions' nodes."""
    while c1 is not c2:
        if c1.entry is None or c2.entry is None:
            return c1.entry is None and c2.entry is None
        if not entry_eq(c1.entry, c2.entry):
            return False
        c1, c2 = c1.parent, c2.parent
    return True
