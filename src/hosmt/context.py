"""Proof contexts: ordered lists of fixed variables and simultaneous
substitutions, the induced substitution, and capture-avoiding application.

Contexts are persistent: extension returns a new context sharing its prefix,
and the induced substitution is memoized per context node.  Entries and
contexts are hash-consed like core terms (`nodes.Interned`): equal contexts
are one node, `==` on them is identity, and `Context()` is `EMPTY`.
"""

import weakref
from functools import lru_cache
from types import MappingProxyType

from .core import Var, alpha_eq, free_vars, sort_of, substitute
from .nodes import Interned


class Fix(Interned):
    __slots__ = ("var",)


class Map(Interned):
    # pairs: ((Var, term), ...), nonempty, vars pairwise distinct
    __slots__ = ("pairs",)


class Context(Interned):
    # depth: the number of entries, worked out from the parent; the
    # argument is there only because pickling passes every field
    __slots__ = ("parent", "entry", "depth")

    def __new__(cls, parent=None, entry=None, depth=None):
        return super().__new__(cls, parent, entry,
                               0 if parent is None else parent.depth + 1)

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

    def entry_vars(self):
        """The variables this node's entry binds, in order."""
        e = self.entry
        return (e.var,) if isinstance(e, Fix) else [v for v, _ in e.pairs]


EMPTY = Context()


def path(a, b):
    """The walk from context a to context b through their deepest common
    ancestor: (the nodes left, innermost first; the nodes entered,
    outermost first)."""
    up, down = [], []
    while a is not b:
        if a.depth >= b.depth:
            up.append(a)
            a = a.parent
        else:
            down.append(b)
            b = b.parent
    down.reverse()
    return up, down


def move(scope, ctx, pairs):
    """Brings a `nodes.Scope` from the context node `scope.at` to ctx: one
    unbind for each node it leaves, one bind of pairs(node) for each node
    it enters, outermost first."""
    if ctx is scope.at:  # as it mostly is for the next line's context
        return
    up, down = path(scope.at, ctx)
    for _ in up:
        scope.unbind()
    for node in down:
        scope.bind(pairs(node))
    scope.at = ctx


# the context nodes whose substitution is in context_subst's cache
_folded = weakref.WeakSet()


@lru_cache(maxsize=None)
def context_subst(ctx):
    """The substitution induced by a context, folded outermost-first.

    Fixing x shadows (removes) any replacement of x; appending a mapping
    composes it under the substitution so far: new images receive the old
    substitution, old entries persist unless remapped.

    Ancestors not yet in the cache are folded first, outermost first, so
    each of those calls finds its parent cached: the length of the chain
    does not bound the call depth.
    """
    if not context_subst.cache_info().currsize:
        _folded.clear()  # the cache was cleared
    if ctx.entry is None:
        return MappingProxyType({})
    todo = []
    c = ctx.parent
    while c.entry is not None and c not in _folded:
        todo.append(c)
        c = c.parent
    for c in reversed(todo):
        context_subst(c)
    base = context_subst(ctx.parent)
    out = dict(base)
    e = ctx.entry
    if isinstance(e, Fix):
        out.pop(e.var.id, None)
    else:
        for v, img in e.pairs:
            out[v.id] = substitute(img, base)
    _folded.add(ctx)
    return MappingProxyType(out)


def apply_context(ctx, t):
    """Capture-avoiding application of the context's substitution."""
    return substitute(t, context_subst(ctx))


def fixes(ctx, t):
    """Whether the context's substitution maps each free variable of t to
    itself or not at all: exactly when apply_context(ctx, t) is
    alpha-equal to t.  One lookup per free variable; builds no node."""
    sigma = context_subst(ctx)
    for i in free_vars(t):
        img = sigma.get(i)
        if img is not None and not (isinstance(img, Var) and img.id == i):
            return False
    return True


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
    """Same entries in the same order, map images compared up to alpha.

    The chains are walked innermost first, up to the first node they
    share; equal contexts are one node, so only contexts whose images
    differ by bound names take more than one step."""
    while c1 is not c2:
        if c1.entry is None or c2.entry is None:
            return c1.entry is None and c2.entry is None
        if not entry_eq(c1.entry, c2.entry):
            return False
        c1, c2 = c1.parent, c2.parent
    return True
