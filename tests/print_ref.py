"""The printer that erased core terms to surface terms and printed those.

It is the reference for `hosmt.certprinter.print_term`, which prints core
terms directly: both must give the same text.  At every binder it walks
the whole body again, so it is quadratic in binder depth, and it recurses.
Surface terms are canonical s-expressions (`hosmt.surface`).
"""

from hosmt import core, surface
from hosmt.core import (Applied, Binder, Const, Fun, INT, Let, REAL, Var)
from hosmt.sexpr import DECIMAL, NUMERAL, SYMBOL, SList, Token


def sym(name):
    return Token(SYMBOL, name)


def slist(*items):
    return SList(items)


def sort_to_surface(s):
    if isinstance(s, Applied):
        if not s.args:
            return sym(s.name)
        return slist(sym(s.name), *(sort_to_surface(a) for a in s.args))
    args = []
    while isinstance(s, Fun):
        args.append(sort_to_surface(s.dom))
        s = s.cod
    return slist(sym("->"), *args, sort_to_surface(s))


def _visible_names(t, scope, skip_ids, out):
    """Names a binder must avoid: free variables and constants in its body."""
    if isinstance(t, Var):
        if t.id not in skip_ids:
            out.add(scope.get(t.id, t.name))
    elif isinstance(t, Const):
        out.add(t.name)
    elif isinstance(t, core.App):
        _visible_names(t.fn, scope, skip_ids, out)
        _visible_names(t.arg, scope, skip_ids, out)
    elif isinstance(t, Binder):
        _visible_names(t.body, scope, skip_ids | {t.var.id}, out)
    elif isinstance(t, Let):
        for _, img in t.bindings:
            _visible_names(img, scope, skip_ids, out)
        _visible_names(t.body, scope,
                       skip_ids | {v.id for v, _ in t.bindings}, out)


def _pick_name(var, body, scope):
    """Display name for a binder, renamed apart from names visible in the body."""
    taken = set()
    _visible_names(body, scope, {var.id}, taken)
    name = var.name
    k = 1
    while name in taken:
        name = f"{var.name}{k}"
        k += 1
    return name


def erase(t, scope=None):
    """Core term back to a surface term that reparses and re-elaborates to it.

    `scope` maps variable ids of free variables to their printed names.
    """
    scope = scope or {}
    if isinstance(t, Var):
        return sym(scope.get(t.id, t.name))
    if isinstance(t, Const):
        if t.name.isdigit() and t.sort == INT:
            return Token(NUMERAL, t.name)
        if t.sort == REAL and "." in t.name:
            return Token(DECIMAL, t.name)
        if t.name == "=":
            # outside a full application, = carries its instance sort
            return slist(sym("as"), sym("="), sort_to_surface(t.sort))
        return sym(t.name)
    if isinstance(t, core.App):
        # = must reach the surface fully applied
        if (isinstance(t.fn, core.App) and isinstance(t.fn.fn, Const)
                and t.fn.fn.name == "="):
            return slist(sym("="), erase(t.fn.arg, scope),
                         erase(t.arg, scope))
        # flatten the application spine: ((f a) b) prints as (f a b)
        spine = []
        head = t
        while isinstance(head, core.App):
            spine.append(head.arg)
            head = head.fn
        spine.reverse()
        return slist(erase(head, scope), *(erase(a, scope) for a in spine))
    if isinstance(t, Binder):
        v = t.var
        name = _pick_name(v, t.body, scope)
        inner = erase(t.body, {**scope, v.id: name})
        return slist(sym(t.kind), slist(slist(sym(name),
                                              sort_to_surface(v.sort))), inner)
    if isinstance(t, Let):
        taken = set()
        _visible_names(t.body, scope, {v.id for v, _ in t.bindings}, taken)
        names = []
        for v, _ in t.bindings:
            n = v.name
            k = 1
            while n in taken:
                n = f"{v.name}{k}"
                k += 1
            taken.add(n)
            names.append(n)
        bindings = slist(*(slist(sym(n), erase(img, scope))
                           for n, (_, img) in zip(names, t.bindings)))
        scope2 = dict(scope)
        for n, (v, _) in zip(names, t.bindings):
            scope2[v.id] = n
        return slist(sym("let"), bindings, erase(t.body, scope2))
    raise TypeError(f"not a core term: {t!r}")


def print_core(t, scope=None):
    return surface.print_term(erase(t, scope))
