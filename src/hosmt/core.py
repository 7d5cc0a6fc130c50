"""Core higher-order term language.

Terms are immutable; applications are binary (curried) and every bound
variable carries a globally unique numeric id, which makes alpha-equivalence
and capture-avoiding substitution mechanical.  Formulas are terms of sort
Bool.
"""

import itertools
from dataclasses import dataclass


# ---------------------------------------------------------------- sorts

@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Applied:
    name: str
    args: tuple


@dataclass(frozen=True)
class Fun:
    dom: object
    cod: object


BOOL = Atom("Bool")
INT = Atom("Int")
REAL = Atom("Real")


def fun_sort(arg_sorts, result):
    """Fully curried arrow sort: fun_sort([A, B], R) == Fun(A, Fun(B, R))."""
    for s in reversed(list(arg_sorts)):
        result = Fun(s, result)
    return result


def sort_str(s):
    if isinstance(s, Atom):
        return s.name
    if isinstance(s, Applied):
        return "(" + " ".join([s.name] + [sort_str(a) for a in s.args]) + ")"
    # flatten the curried chain for readability
    args = []
    while isinstance(s, Fun):
        args.append(s.dom)
        s = s.cod
    return "(-> " + " ".join(sort_str(a) for a in args + [s]) + ")"


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Var:
    id: int
    name: str
    sort: object


@dataclass(frozen=True)
class Const:
    name: str
    sort: object


@dataclass(frozen=True)
class App:
    fn: object
    arg: object


@dataclass(frozen=True)
class Lam:
    var: Var
    body: object


@dataclass(frozen=True)
class Quant:
    kind: str  # "forall" | "exists" | "eps"
    var: Var
    body: object


@dataclass(frozen=True)
class Let:
    bindings: tuple  # ((Var, term), ...), nonempty, vars pairwise distinct
    body: object


QUANT_KINDS = ("forall", "exists", "eps")
# binder kinds the Bind rule ranges over
BIND_KINDS = ("lambda", "forall", "exists")


class DivergenceError(Exception):
    """Beta-reduction exceeded its step cap; the input was not well-sorted."""


_counter = itertools.count(1)


def fresh_var(hint, sort):
    """A variable with a globally unused id; display name taken from hint."""
    return Var(next(_counter), hint, sort)


def make_binder(kind, var, body):
    if kind == "lambda":
        return Lam(var, body)
    if kind in QUANT_KINDS:
        return Quant(kind, var, body)
    raise ValueError(f"unknown binder kind {kind!r}")


def binder_parts(t):
    """(kind, var, body) for binder nodes, else None."""
    if isinstance(t, Lam):
        return ("lambda", t.var, t.body)
    if isinstance(t, Quant):
        return (t.kind, t.var, t.body)
    return None


def sort_of(t):
    if isinstance(t, (Var, Const)):
        return t.sort
    if isinstance(t, App):
        fs = sort_of(t.fn)
        if not isinstance(fs, Fun):
            raise ValueError(f"applying a term of non-functional sort {sort_str(fs)}")
        return fs.cod
    if isinstance(t, Lam):
        return Fun(t.var.sort, sort_of(t.body))
    if isinstance(t, Quant):
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
        elif isinstance(u, (Lam, Quant)):
            todo += (u.body, u.var)
        elif isinstance(u, Let):
            todo.append(u.body)
            for v, img in reversed(u.bindings):
                todo += (img, v)


def free_vars(t):
    """Set of ids of the variables occurring free in t."""
    if isinstance(t, Var):
        return {t.id}
    if isinstance(t, Const):
        return set()
    if isinstance(t, App):
        return free_vars(t.fn) | free_vars(t.arg)
    if isinstance(t, (Lam, Quant)):
        return free_vars(t.body) - {t.var.id}
    if isinstance(t, Let):
        fv = free_vars(t.body) - {v.id for v, _ in t.bindings}
        for _, img in t.bindings:
            fv |= free_vars(img)
        return fv
    raise TypeError(f"not a core term: {t!r}")


# ---------------------------------------------------------------- alpha

def alpha_eq(s, t):
    """Equality up to consistent renaming of bound variables."""
    return _alpha(s, t, {}, {}, 0)


def _alpha(s, t, ms, mt, depth):
    if isinstance(s, Var) and isinstance(t, Var):
        bs = ms.get(s.id)
        bt = mt.get(t.id)
        if bs is None and bt is None:
            return s.id == t.id
        return bs is not None and bs == bt
    if isinstance(s, Const) and isinstance(t, Const):
        return s.name == t.name and s.sort == t.sort
    if isinstance(s, App) and isinstance(t, App):
        return (_alpha(s.fn, t.fn, ms, mt, depth)
                and _alpha(s.arg, t.arg, ms, mt, depth))
    bs = binder_parts(s)
    bt = binder_parts(t)
    if bs is not None and bt is not None:
        (ks, vs, bodys), (kt, vt, bodyt) = bs, bt
        if ks != kt or vs.sort != vt.sort:
            return False
        return _alpha(bodys, bodyt,
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


# --------------------------------------------------------- substitution

def substitute(t, sigma):
    """Simultaneous capture-avoiding substitution.

    sigma maps variable ids to terms; images are not re-substituted, and
    binders whose variable occurs free in an image are renamed fresh.
    """
    if not sigma:
        return t
    img_fv = set()
    for img in sigma.values():
        img_fv |= free_vars(img)
    return _subst(t, dict(sigma), img_fv)


def _subst(t, sigma, img_fv):
    if not sigma:
        return t
    if isinstance(t, Var):
        return sigma.get(t.id, t)
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        return App(_subst(t.fn, sigma, img_fv), _subst(t.arg, sigma, img_fv))
    bp = binder_parts(t)
    if bp is not None:
        kind, v, body = bp
        sigma2 = {k: x for k, x in sigma.items() if k != v.id}
        if not sigma2:
            return t
        if v.id in img_fv:
            v2 = fresh_var(v.name, v.sort)
            sigma2[v.id] = v2
            return make_binder(kind, v2, _subst(body, sigma2, img_fv))
        return make_binder(kind, v, _subst(body, sigma2, img_fv))
    if isinstance(t, Let):
        new_imgs = [(v, _subst(img, sigma, img_fv)) for v, img in t.bindings]
        bound_ids = {v.id for v, _ in t.bindings}
        sigma2 = {k: x for k, x in sigma.items() if k not in bound_ids}
        for i, (v, img) in enumerate(new_imgs):
            if v.id in img_fv:
                v2 = fresh_var(v.name, v.sort)
                sigma2[v.id] = v2
                new_imgs[i] = (v2, img)
        body = _subst(t.body, sigma2, img_fv) if sigma2 else t.body
        return Let(tuple(new_imgs), body)
    raise TypeError(f"not a core term: {t!r}")


# --------------------------------------------------------------- beta

def beta_step(t):
    """Contract the leftmost-outermost beta-redex, or None in normal form."""
    if isinstance(t, App):
        if isinstance(t.fn, Lam):
            return substitute(t.fn.body, {t.fn.var.id: t.arg})
        r = beta_step(t.fn)
        if r is not None:
            return App(r, t.arg)
        r = beta_step(t.arg)
        if r is not None:
            return App(t.fn, r)
        return None
    bp = binder_parts(t)
    if bp is not None:
        kind, v, body = bp
        r = beta_step(body)
        return None if r is None else make_binder(kind, v, r)
    if isinstance(t, Let):
        for i, (v, img) in enumerate(t.bindings):
            r = beta_step(img)
            if r is not None:
                bs = list(t.bindings)
                bs[i] = (v, r)
                return Let(tuple(bs), t.body)
        r = beta_step(t.body)
        return None if r is None else Let(t.bindings, r)
    return None


DEFAULT_STEP_CAP = 100000


def beta_normal_form(t, max_steps=DEFAULT_STEP_CAP):
    """Normal-order beta-normal form; raises DivergenceError past the cap.

    Terminates for well-sorted (simply-sorted) inputs.  `let` bindings are
    left in place; only beta-redexes are contracted.
    """
    budget = [max_steps]

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise DivergenceError(f"beta reduction exceeded {max_steps} steps")

    def whnf(u):
        while isinstance(u, App):
            f = whnf(u.fn)
            if isinstance(f, Lam):
                spend()
                u = substitute(f.body, {f.var.id: u.arg})
            else:
                return App(f, u.arg)
        return u

    def nf(u):
        u = whnf(u)
        if isinstance(u, (Var, Const)):
            return u
        if isinstance(u, App):
            return App(nf(u.fn), nf(u.arg))
        bp = binder_parts(u)
        if bp is not None:
            kind, v, body = bp
            return make_binder(kind, v, nf(body))
        if isinstance(u, Let):
            return Let(tuple((v, nf(img)) for v, img in u.bindings), nf(u.body))
        raise TypeError(f"not a core term: {u!r}")

    return nf(t)


def expand_lets(t):
    """Unfold every let by its simultaneous substitution (non-recursive)."""
    if isinstance(t, (Var, Const)):
        return t
    if isinstance(t, App):
        return App(expand_lets(t.fn), expand_lets(t.arg))
    bp = binder_parts(t)
    if bp is not None:
        kind, v, body = bp
        return make_binder(kind, v, expand_lets(body))
    if isinstance(t, Let):
        body = expand_lets(t.body)
        sigma = {v.id: expand_lets(img) for v, img in t.bindings}
        return substitute(body, sigma)
    raise TypeError(f"not a core term: {t!r}")


# ------------------------------------------------- formula constructors

def eq_term(lhs, rhs):
    s = sort_of(lhs)
    if s != sort_of(rhs):
        raise ValueError("equality between terms of different sorts")
    return App(App(Const("=", Fun(s, Fun(s, BOOL))), lhs), rhs)


IMPLIES = Const("=>", Fun(BOOL, Fun(BOOL, BOOL)))
NOT = Const("not", Fun(BOOL, BOOL))


def implies_term(a, b):
    return App(App(IMPLIES, a), b)


def not_term(a):
    return App(NOT, a)
