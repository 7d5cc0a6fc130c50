"""Reference encoding and normalizer for the lambda-encoding oracle.

The encoding `hosmt.oracle` used before it folded each context once: a
judgment's two sides are encoded as chains of boxed abstractions and
redexes, every encoding-level redex is contracted on its own, by a
capture-avoiding substitution over the whole remaining encoding, and the
two normal forms are reified into a universally quantified equality whose
sides are compared.  It is quadratic in the context length and recurses
once per context entry, so it serves only as the reference the one-pass
fold is compared with.
"""

from hosmt.context import Fix
from hosmt.core import (DEFAULT_STEP_CAP, Quant, alpha_eq, beta_normal_form,
                        eq_term, expand_lets, free_vars, fresh_var,
                        substitute)
from hosmt.nodes import Record


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
        formula = Quant("forall", x, formula)
    return formula


def verdict(judgment, max_steps=DEFAULT_STEP_CAP):
    """The oracle's verdict on a judgment, reached through the encodings:
    reify, strip the quantifiers, expand lets, normalize and compare."""
    formula = reify(encode_left(judgment.ctx, judgment.lhs),
                    encode_left(judgment.ctx, judgment.rhs))
    while isinstance(formula, Quant):
        formula = formula.body
    # formula is (= t u) applied in curried form
    t, u = formula.fn.arg, formula.arg
    tn = beta_normal_form(expand_lets(t), max_steps)
    un = beta_normal_form(expand_lets(u), max_steps)
    return "lambda-valid" if alpha_eq(tn, un) else "needs-theory"
