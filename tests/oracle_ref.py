"""Reference encoding and normalizer for the lambda-encoding oracle.

The encoding `hosmt.oracle` used before it folded each context once: a
judgment's two sides are encoded as chains of boxed abstractions and
redexes, every encoding-level redex is contracted on its own, by a
capture-avoiding substitution over the whole remaining encoding, and the
two normal forms are reified into a universally quantified equality whose
sides are compared.  It is quadratic in the context length and recurses
once per context entry, so it serves only as the reference the one-pass
fold is compared with.

It also holds `beta_step`, the one-redex reduction the tests use to check
normal forms and subject reduction, and `expand_lets`, the let-free form
by named substitution that `hosmt.core` kept before the oracle became
nameless.
"""

from hosmt.context import Fix
from hosmt.core import (DEFAULT_STEP_CAP, App, Binder, Const, Let, Var,
                        alpha_eq, beta_normal_form, free_vars, fresh_var,
                        substitute)
from hosmt.nodes import Record

from gen import eq_term


class EncodingError(Exception):
    """The two encodings do not share a lambda-prefix."""


class Box(Record):
    """A leaf holding an (opaque) core term."""
    __slots__ = ("term",)

    def __init__(self, term):
        self.term = term


class BAbs(Record):
    """lambda x. M at the encoding level."""
    __slots__ = ("var", "body")

    def __init__(self, var, body):
        self.var = var
        self.body = body


class BRedex(Record):
    """(lambda x1 ... xn. M) t1 ... tn at the encoding level."""
    __slots__ = ("vars", "body", "args")

    def __init__(self, vars, body, args):
        self.vars = vars
        self.body = body
        self.args = args  # core terms, len(args) == len(vars)


def encode_left(ctx, t):
    """L(ctx)[t]: fold the context into abstractions and redexes.

    The right-hand encoding R(ctx)[u] is the exact mirror, so both sides of
    a judgment are encoded by this one function.
    """
    boxed = Box(t)
    for entry in reversed(ctx.entries()):
        if isinstance(entry, Fix):
            boxed = BAbs(entry.var, boxed)
        else:
            vs = tuple(v for v, _ in entry.pairs)
            args = tuple(img for _, img in entry.pairs)
            boxed = BRedex(vs, boxed, args)
    return boxed


def _bsubst(m, sigma):
    """Capture-avoiding substitution on a boxed term; boxes are opaque
    except that the substitution is applied to their contents."""
    if not sigma:
        return m
    if isinstance(m, Box):
        return Box(substitute(m.term, sigma))
    img_fv = set()
    for img in sigma.values():
        img_fv |= free_vars(img)
    if isinstance(m, BAbs):
        sigma2 = {k: v for k, v in sigma.items() if k != m.var.id}
        if m.var.id in img_fv:
            v2 = fresh_var(m.var.name, m.var.sort)
            sigma2[m.var.id] = v2
            return BAbs(v2, _bsubst(m.body, sigma2))
        return BAbs(m.var, _bsubst(m.body, sigma2))
    # BRedex: arguments first, then the body under the bound variables
    args = tuple(substitute(a, sigma) for a in m.args)
    bound = {v.id for v in m.vars}
    sigma2 = {k: v for k, v in sigma.items() if k not in bound}
    vs = list(m.vars)
    for i, v in enumerate(vs):
        if v.id in img_fv:
            v2 = fresh_var(v.name, v.sort)
            sigma2[v.id] = v2
            vs[i] = v2
    return BRedex(tuple(vs), _bsubst(m.body, sigma2), args)


def normalize(m):
    """Contract all encoding-level redexes: (prefix variables, box content)."""
    if isinstance(m, Box):
        return [], m.term
    if isinstance(m, BAbs):
        prefix, t = normalize(m.body)
        return [m.var] + prefix, t
    sigma = {v.id: a for v, a in zip(m.vars, m.args)}
    return normalize(_bsubst(m.body, sigma))


def reify(m, n):
    """The formula forall xs. t ~ u from two encodings with matching prefixes."""
    xs, t = normalize(m)
    ys, u = normalize(n)
    if len(xs) != len(ys) or any(x.sort != y.sort for x, y in zip(xs, ys)):
        raise EncodingError("encodings have mismatched lambda-prefixes")
    if ys:
        u = substitute(u, {y.id: x for x, y in zip(xs, ys)})
    formula = eq_term(t, u)
    for x in reversed(xs):
        formula = Binder("forall", x, formula)
    return formula


def verdict(judgment, max_steps=DEFAULT_STEP_CAP):
    """The oracle's verdict on a judgment, reached through the encodings:
    reify, strip the quantifiers, expand lets, normalize and compare."""
    formula = reify(encode_left(judgment.ctx, judgment.lhs),
                    encode_left(judgment.ctx, judgment.rhs))
    while isinstance(formula, Binder):
        formula = formula.body
    # formula is (= t u) applied in curried form
    t, u = formula.fn.arg, formula.arg
    tn = beta_normal_form(expand_lets(t), max_steps)
    un = beta_normal_form(expand_lets(u), max_steps)
    return "lambda-valid" if alpha_eq(tn, un) else "needs-theory"


def expand_lets(t, memo=None):
    """Unfold every let by its simultaneous substitution (non-recursive).

    `memo` maps nodes to their let-free forms; a caller that keeps it
    across calls expands each node once.  Without one, the call keeps its
    own.
    """
    if memo is None:
        memo = {}
    if isinstance(t, (Var, Const)):
        return t
    out = memo.get(t)
    if out is not None:
        return out
    if isinstance(t, App):
        out = App(expand_lets(t.fn, memo), expand_lets(t.arg, memo))
    elif isinstance(t, Binder):
        out = Binder(t.kind, t.var, expand_lets(t.body, memo))
    elif isinstance(t, Let):
        body = expand_lets(t.body, memo)
        sigma = {v.id: expand_lets(img, memo) for v, img in t.bindings}
        out = substitute(body, sigma)
    else:
        raise TypeError(f"not a core term: {t!r}")
    memo[t] = out
    return out


def beta_step(t):
    """Contract the leftmost-outermost beta-redex, or None in normal form."""
    if isinstance(t, App):
        if isinstance(t.fn, Binder) and t.fn.kind == "lambda":
            return substitute(t.fn.body, {t.fn.var.id: t.arg})
        r = beta_step(t.fn)
        if r is not None:
            return App(r, t.arg)
        r = beta_step(t.arg)
        if r is not None:
            return App(t.fn, r)
        return None
    if isinstance(t, Binder):
        r = beta_step(t.body)
        return None if r is None else Binder(t.kind, t.var, r)
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
