"""Reference normalizer for the lambda-encoding oracle.

The straightforward contraction `hosmt.oracle` used before its one-pass
normalizer: every encoding-level redex is contracted on its own, by a
capture-avoiding substitution over the whole remaining encoding.  It is
quadratic in the context length and recurses once per context entry, so
it serves only as the reference the one-pass normalizer is compared with.
"""

from hosmt.core import Quant, eq_term, free_vars, fresh_var, substitute
from hosmt.oracle import BAbs, Box, BRedex, EncodingError


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
