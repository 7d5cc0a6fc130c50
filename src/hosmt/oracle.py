"""Lambda-calculus encoding of judgments, used as an independent validity
check on the calculus.

A judgment `ctx |> t ~ u` is encoded as a pair of boxed lambda-terms L and R
built by folding the context: a fixed variable becomes an abstraction, a
simultaneous substitution becomes a redex.  Normalizing an encoding is one
pass down its spine that composes the redexes into a single substitution,
renames an abstracted variable when an image mentions it, and applies the
substitution once to the box contents.  Stripping the matching
lambda-prefixes reifies the pair back into a universally quantified
equality, whose sides are then compared in the pure lambda fragment.

The oracle uses only `core` and the `Fix` tag of context entries; it does
not share `context_subst` with the checker, which is what makes it a second
opinion.
"""

from . import core
from .core import (Quant, alpha_eq, beta_normal_form, eq_term,
                   expand_lets, free_vars, fresh_var, substitute)
from .context import Fix
from .nodes import Record


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


def _normalize(m):
    """Contract all encoding-level redexes: (prefix variables, box content).

    One loop down the spine.  sigma is the composition of the redexes
    contracted so far and img_fv holds (a superset of) the free variables
    of its images, so each argument is substituted once and its free
    variables are computed once.
    """
    sigma, img_fv, prefix = {}, set(), []
    while not isinstance(m, Box):
        if isinstance(m, BAbs):
            v = m.var
            sigma.pop(v.id, None)
            if v.id in img_fv:
                # an image mentions the outer v: rename the binder
                v = fresh_var(v.name, v.sort)
                sigma[m.var.id] = v
                img_fv.add(v.id)
            prefix.append(v)
        else:
            imgs = [substitute(a, sigma) for a in m.args]
            for v, img in zip(m.vars, imgs):
                sigma[v.id] = img
                img_fv |= free_vars(img)
        m = m.body
    return prefix, substitute(m.term, sigma)


def reify(m, n):
    """The formula forall xs. t ~ u from two encodings with matching prefixes."""
    xs, t = _normalize(m)
    ys, u = _normalize(n)
    if len(xs) != len(ys) or any(x.sort != y.sort for x, y in zip(xs, ys)):
        raise EncodingError("encodings have mismatched lambda-prefixes")
    # both sides of one judgment share their prefix unless it was renamed
    u = substitute(u, {y.id: x for x, y in zip(xs, ys) if y.id != x.id})
    formula = eq_term(t, u)
    for x in reversed(xs):
        formula = Quant("forall", x, formula)
    return formula


def oracle_check(judgment, max_steps=core.DEFAULT_STEP_CAP):
    """Second opinion on ctx |> t ~ u: `lambda-valid` when the reified
    equality holds in the pure lambda fragment, `needs-theory` otherwise."""
    formula = reify(encode_left(judgment.ctx, judgment.lhs),
                    encode_left(judgment.ctx, judgment.rhs))
    while isinstance(formula, Quant):
        formula = formula.body
    # formula is (= t u) applied in curried form
    t, u = formula.fn.arg, formula.arg
    tn = beta_normal_form(expand_lets(t), max_steps)
    un = beta_normal_form(expand_lets(u), max_steps)
    return "lambda-valid" if alpha_eq(tn, un) else "needs-theory"


def check_certificate_oracle(cert, max_steps=core.DEFAULT_STEP_CAP):
    """Run oracle_check on every equality step; returns [(step id, verdict)]."""
    from .calculus import EqJudgment

    out = []
    for step in cert.steps:
        if isinstance(step.conclusion, EqJudgment):
            out.append((step.id, oracle_check(step.conclusion, max_steps)))
    return out
