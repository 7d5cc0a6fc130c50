"""Core higher-order term language.

Terms are immutable; applications are binary (curried) and every bound
variable carries a globally unique numeric id, which makes alpha-equivalence
and capture-avoiding substitution mechanical.  Formulas are terms of sort
Bool.  One node, `Binder(kind, var, body)`, stands for every binder: its
kind is one of `BINDER_WORDS`, and alpha-equal binders have the same kind.

Sorts and terms are hash-consed (`nodes.Interned`): a constructor returns
the one live node with those fields, so `==` on sorts and terms is
identity and hashing is O(1).  Nodes are built only through their
constructors.  A term node keeps its free variables and constant names
once they are computed (`free_vars`, `const_names`), which lets
`substitute` skip every subterm the substitution does not touch.  Walks
that rebuild a term treat it as the DAG it is: `substitute` and
`beta_normal_form` rebuild a shared node once per call.
"""

import itertools

from .nodes import Interned
from .sexpr import quote


# ---------------------------------------------------------------- sorts

class Applied(Interned):
    # a named sort applied to args, () for a sort of arity 0
    __slots__ = ("name", "args")


class Fun(Interned):
    __slots__ = ("dom", "cod")


BOOL = Applied("Bool", ())
INT = Applied("Int", ())
REAL = Applied("Real", ())


def fun_sort(arg_sorts, result):
    """Fully curried arrow sort: fun_sort([A, B], R) == Fun(A, Fun(B, R))."""
    for s in reversed(list(arg_sorts)):
        result = Fun(s, result)
    return result


def sort_str(s):
    if isinstance(s, Applied):
        if not s.args:
            return quote(s.name)
        return "(" + " ".join([quote(s.name)] + [sort_str(a) for a in s.args]) + ")"
    # flatten the curried chain for readability
    args = []
    while isinstance(s, Fun):
        args.append(s.dom)
        s = s.cod
    return "(-> " + " ".join(sort_str(a) for a in args + [s]) + ")"


# the binder words of terms, and the kinds of `Binder`
BINDER_WORDS = ("lambda", "forall", "exists", "eps")


# ---------------------------------------------------------------- terms

class Term(Interned):
    # caches filled on first use by free_vars and const_names; not fields
    __slots__ = ("_fv", "_cn")


class Var(Term):
    __slots__ = ("id", "name", "sort")


class Const(Term):
    __slots__ = ("name", "sort")


class App(Term):
    __slots__ = ("fn", "arg")


class Binder(Term):
    # kind: one of BINDER_WORDS
    __slots__ = ("kind", "var", "body")


class Let(Term):
    # bindings: ((Var, term), ...), nonempty, vars pairwise distinct
    __slots__ = ("bindings", "body")


# binder kinds the Bind rule ranges over
BIND_KINDS = ("lambda", "forall", "exists")


class DivergenceError(Exception):
    """Beta-reduction exceeded its step cap; the input was not well-sorted."""


_counter = itertools.count(1)


def fresh_var(hint, sort):
    """A variable with a globally unused id; display name taken from hint."""
    return Var(next(_counter), hint, sort)


def sort_of(t):
    if isinstance(t, (Var, Const)):
        return t.sort
    if isinstance(t, App):
        fs = sort_of(t.fn)
        if not isinstance(fs, Fun):
            raise ValueError(f"applying a term of non-functional sort {sort_str(fs)}")
        return fs.cod
    if isinstance(t, Binder):
        if t.kind == "lambda":
            return Fun(t.var.sort, sort_of(t.body))
        return t.var.sort if t.kind == "eps" else BOOL
    if isinstance(t, Let):
        return sort_of(t.body)
    raise TypeError(f"not a core term: {t!r}")


def subterms(t):
    """Every subterm of t in pre-order, binder and let variables included.

    A binder yields its variable before its body; a let yields each
    variable before its image, then the body.  Iterative, so the depth of
    t is not limited by the Python call stack.
    """
    todo = [t]
    while todo:
        u = todo.pop()
        yield u
        if isinstance(u, App):
            todo += (u.arg, u.fn)
        elif isinstance(u, Binder):
            todo += (u.body, u.var)
        elif isinstance(u, Let):
            todo.append(u.body)
            for v, img in reversed(u.bindings):
                todo += (img, v)


def _children(t):
    if isinstance(t, App):
        return (t.fn, t.arg)
    if isinstance(t, Binder):
        return (t.body,)
    if isinstance(t, Let):
        return (*(img for _, img in t.bindings), t.body)
    return ()


def _union(a, b):
    # reuses an operand, so most nodes share their set with a child
    return a if b <= a else b if a <= b else a | b


def _cached(t, slot, combine):
    """The value of `slot` on t, computing it bottom-up, iteratively, for
    every node below t that lacks it; `combine(u, kids)` derives a node's
    value from its children's."""
    todo = [t]
    while todo:
        u = todo[-1]
        if hasattr(u, slot):
            todo.pop()
            continue
        kids = _children(u)
        missing = [k for k in kids if not hasattr(k, slot)]
        if missing:
            todo += missing
            continue
        todo.pop()
        object.__setattr__(u, slot,
                           combine(u, [getattr(k, slot) for k in kids]))
    return getattr(t, slot)


_NONE = frozenset()


def _fv(u, kids):
    if isinstance(u, Var):
        return frozenset((u.id,))
    out = _NONE
    for k in kids:
        out = _union(out, k)
    if isinstance(u, Binder):
        return out - {u.var.id} if u.var.id in out else out
    if isinstance(u, Let):
        bound = {v.id for v, _ in u.bindings}
        body = kids[-1]
        if not bound.isdisjoint(body):
            out = body - bound
            for k in kids[:-1]:
                out = _union(out, k)
    return out


def _cn(u, kids):
    if isinstance(u, Const):
        return frozenset((u.name,))
    out = _NONE
    for k in kids:
        out = _union(out, k)
    return out


def free_vars(t):
    """Frozen set of ids of the variables occurring free in t; computed
    once per node."""
    try:
        return t._fv
    except AttributeError:
        return _cached(t, "_fv", _fv)


def const_names(t):
    """Frozen set of the names of the constants in t; computed once per
    node."""
    try:
        return t._cn
    except AttributeError:
        return _cached(t, "_cn", _cn)


# ---------------------------------------------------------------- alpha

def alpha_eq(s, t):
    """Equality up to consistent renaming of bound variables."""
    # one node is alpha-equal to itself; below the top, identical subterms
    # may sit under different variable maps
    return s is t or _alpha(s, t, {}, {}, 0)


def _alpha(s, t, ms, mt, depth):
    if isinstance(s, Var) and isinstance(t, Var):
        bs = ms.get(s.id)
        bt = mt.get(t.id)
        if bs is None and bt is None:
            return s.id == t.id
        return bs is not None and bs == bt
    if isinstance(s, Const) and isinstance(t, Const):
        return s is t
    if isinstance(s, App) and isinstance(t, App):
        return (_alpha(s.fn, t.fn, ms, mt, depth)
                and _alpha(s.arg, t.arg, ms, mt, depth))
    if isinstance(s, Binder) and isinstance(t, Binder):
        vs, vt = s.var, t.var
        if s.kind != t.kind or vs.sort != vt.sort:
            return False
        return _alpha(s.body, t.body,
                      {**ms, vs.id: depth}, {**mt, vt.id: depth}, depth + 1)
    if isinstance(s, Let) and isinstance(t, Let):
        if len(s.bindings) != len(t.bindings):
            return False
        for (vs, is_), (vt, it) in zip(s.bindings, t.bindings):
            if vs.sort != vt.sort or not _alpha(is_, it, ms, mt, depth):
                return False
        ms2, mt2 = dict(ms), dict(mt)
        for i, ((vs, _), (vt, _)) in enumerate(zip(s.bindings, t.bindings)):
            ms2[vs.id] = depth + i
            mt2[vt.id] = depth + i
        return _alpha(s.body, t.body, ms2, mt2, depth + len(s.bindings))
    return False


# ------------------------------------------------------------ rebuilding
# Each returns the node itself when no child changed, which saves an
# intern-table lookup.

def _app(t, fn, arg):
    return t if fn is t.fn and arg is t.arg else App(fn, arg)


def _rebind(t, body):
    return t if body is t.body else Binder(t.kind, t.var, body)


def _relet(t, pairs, body):
    pairs = tuple(pairs)  # equal pairs hold the same nodes
    return t if body is t.body and pairs == t.bindings else Let(pairs, body)


# --------------------------------------------------------- substitution

def substitute(t, sigma):
    """Simultaneous capture-avoiding substitution.

    sigma maps variable ids to terms; images are not re-substituted.  A
    subterm with no free variable in sigma is returned as it is, a shared
    subterm is substituted once per call, and a binder is renamed fresh
    when its variable occurs free in an image that is substituted below
    it.
    """
    return _subst(t, sigma, {}) if sigma else t


def _captures(var_id, fv, sigma):
    """Whether some image of a variable in fv mentions var_id."""
    return any(k in sigma and var_id in free_vars(sigma[k]) for k in fv)


def _without(sigma, ids):
    if not any(i in sigma for i in ids):
        return sigma
    return {k: x for k, x in sigma.items() if k not in ids}


def _subst(t, sigma, memo):
    # memo: node -> its image under sigma, for the nodes rebuilt so far;
    # a binder or let that changes sigma goes on with a memo of its own
    if isinstance(t, Var):
        return sigma.get(t.id, t)
    if isinstance(t, Const):
        return t
    fv = free_vars(t)
    if sigma.keys().isdisjoint(fv):
        return t
    out = memo.get(t)
    if out is not None:
        return out
    if isinstance(t, App):
        out = _app(t, _subst(t.fn, sigma, memo), _subst(t.arg, sigma, memo))
    elif isinstance(t, Binder):
        v = t.var
        inner = _without(sigma, (v.id,))
        if _captures(v.id, fv, inner):
            v2 = fresh_var(v.name, v.sort)
            out = Binder(t.kind, v2, _subst(t.body, {**inner, v.id: v2}, {}))
        else:
            out = _rebind(t, _subst(t.body, inner,
                                    memo if inner is sigma else {}))
    elif isinstance(t, Let):
        pairs = [(v, _subst(img, sigma, memo)) for v, img in t.bindings]
        inner = _without(sigma, [v.id for v, _ in t.bindings])
        body_fv = free_vars(t.body)
        for i, (v, img) in enumerate(pairs):
            if _captures(v.id, body_fv, inner):
                v2 = fresh_var(v.name, v.sort)
                inner = {**inner, v.id: v2}
                pairs[i] = (v2, img)
        body = t.body
        if inner:
            body = _subst(body, inner, memo if inner is sigma else {})
        out = _relet(t, pairs, body)
    else:
        raise TypeError(f"not a core term: {t!r}")
    memo[t] = out
    return out


# --------------------------------------------------------------- beta

DEFAULT_STEP_CAP = 100000


def beta_normal_form(t, max_steps=DEFAULT_STEP_CAP):
    """Normal-order beta-normal form; raises DivergenceError past the cap.

    Terminates for well-sorted (simply-sorted) inputs.  `let` bindings are
    left in place; only beta-redexes are contracted.  A node shared within
    t is normalized once.
    """
    budget = [max_steps]
    memo = {}  # node -> its normal form

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise DivergenceError(f"beta reduction exceeded {max_steps} steps")

    def whnf(u):
        while isinstance(u, App):
            f = whnf(u.fn)
            if type(f) is Binder and f.kind == "lambda":
                spend()
                u = substitute(f.body, {f.var.id: u.arg})
            else:
                return App(f, u.arg)
        return u

    def nf(u):
        out = memo.get(u)
        if out is not None:
            return out
        w = whnf(u)
        if isinstance(w, (Var, Const)):
            out = w
        elif isinstance(w, App):
            out = _app(w, nf(w.fn), nf(w.arg))
        elif isinstance(w, Binder):
            out = _rebind(w, nf(w.body))
        elif isinstance(w, Let):
            out = _relet(w, [(v, nf(img)) for v, img in w.bindings],
                         nf(w.body))
        else:
            raise TypeError(f"not a core term: {w!r}")
        memo[u] = out
        return out

    return nf(t)


# ------------------------------------------------- formula constructors

NOT = Const("not", Fun(BOOL, BOOL))


def not_term(a):
    return App(NOT, a)
