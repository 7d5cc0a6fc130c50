"""Lambda-calculus encoding of judgments, used as an independent validity
check on the calculus.

A judgment `ctx |> t ~ u` stands for the pair of lambda-terms L(ctx)[t] and
R(ctx)[u], which fold the context: a fixed variable becomes an abstraction,
a simultaneous substitution becomes a redex.  Both fold the same context,
so `fold` walks it once, outermost entry first, and returns what
normalizing either encoding yields: the abstracted variables, which
quantify the equality `forall xs. t ~ u`, and the one substitution that
contracts every redex.  An abstracted variable that an image mentions is
renamed, so the image is not captured.  `oracle_check` applies the
substitution to both sides and compares them in the pure lambda fragment.

`check_certificate_oracle` keeps three memos for one certificate and
drops them when it returns: each context node's fold, computed once from
its parent's, and each node's let-free form and beta-normal form.  They
hold what a node stands for, never a verdict, so a judgment checked with
them gets the verdict it gets alone.  A normal form found in the memo
spends no beta-step, so `max_steps` bounds the steps each side of a
judgment spends anew within the certificate.

The oracle uses only `core` and the `Fix` tag of context entries; it does
not share `context_subst` or any cache with the checker, which is what
makes it a second opinion.
"""

from . import core
from .core import (alpha_eq, beta_normal_form, expand_lets, free_vars,
                   fresh_var, substitute)
from .context import Fix


def fold(ctx, cache=None):
    """(abstracted variables, substitution) of ctx's encoding.

    Each context node is folded from its parent's state: the abstracted
    variables so far, the composition of the redexes met so far, and (a
    superset of) the free variables of its images.  So each image is
    substituted once and its free variables are computed once.  `cache`
    maps context nodes to their states; a caller that keeps it across
    calls folds each node once.  The substitution returned may be the
    cache's: do not change it.
    """
    if cache is None:
        cache = {}
    todo = []
    c = ctx
    while c.entry is not None and c not in cache:
        todo.append(c)
        c = c.parent
    prefix, sigma, img_fv = cache.get(c, ((), {}, frozenset()))
    for node in reversed(todo):
        entry = node.entry
        sigma = dict(sigma)
        if isinstance(entry, Fix):
            v = entry.var
            sigma.pop(v.id, None)
            if v.id in img_fv:
                # an image mentions the outer v: rename the abstraction
                v = fresh_var(v.name, v.sort)
                sigma[entry.var.id] = v
                img_fv = img_fv | {v.id}
            prefix = (*prefix, v)
        else:
            imgs = [substitute(img, sigma) for _, img in entry.pairs]
            for (v, _), img in zip(entry.pairs, imgs):
                sigma[v.id] = img
                img_fv = img_fv | free_vars(img)
        cache[node] = prefix, sigma, img_fv
    return list(prefix), sigma


def oracle_check(judgment, max_steps=core.DEFAULT_STEP_CAP, memos=None):
    """Second opinion on ctx |> t ~ u: `lambda-valid` when the encoded
    equality holds in the pure lambda fragment, `needs-theory` otherwise.

    `memos` is (fold cache, let-free forms, normal forms), as
    `check_certificate_oracle` keeps them; without it the call keeps its
    own."""
    folds, lets, nfs = memos or ({}, {}, {})
    _, sigma = fold(judgment.ctx, folds)
    t, u = (substitute(side, sigma) for side in (judgment.lhs, judgment.rhs))
    tn = beta_normal_form(expand_lets(t, lets), max_steps, nfs)
    un = beta_normal_form(expand_lets(u, lets), max_steps, nfs)
    return "lambda-valid" if alpha_eq(tn, un) else "needs-theory"


def check_certificate_oracle(cert, max_steps=core.DEFAULT_STEP_CAP):
    """Run oracle_check on every equality step; returns [(step id, verdict)].

    The steps share one set of memos, dropped on return."""
    from .calculus import EqJudgment

    memos = {}, {}, {}
    out = []
    for step in cert.steps:
        if isinstance(step.conclusion, EqJudgment):
            out.append((step.id,
                        oracle_check(step.conclusion, max_steps, memos)))
    return out
