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

The oracle uses only `core` and the `Fix` tag of context entries; it does
not share `context_subst` with the checker, which is what makes it a second
opinion.
"""

from . import core
from .core import (alpha_eq, beta_normal_form, expand_lets, free_vars,
                   fresh_var, substitute)
from .context import Fix


def fold(ctx):
    """(abstracted variables, substitution) of ctx's encoding.

    sigma is the composition of the redexes met so far and img_fv holds
    (a superset of) the free variables of its images, so each image is
    substituted once and its free variables are computed once.
    """
    sigma, img_fv, prefix = {}, set(), []
    for entry in ctx.entries():
        if isinstance(entry, Fix):
            v = entry.var
            sigma.pop(v.id, None)
            if v.id in img_fv:
                # an image mentions the outer v: rename the abstraction
                v = fresh_var(v.name, v.sort)
                sigma[entry.var.id] = v
                img_fv.add(v.id)
            prefix.append(v)
        else:
            imgs = [substitute(img, sigma) for _, img in entry.pairs]
            for (v, _), img in zip(entry.pairs, imgs):
                sigma[v.id] = img
                img_fv |= free_vars(img)
    return prefix, sigma


def oracle_check(judgment, max_steps=core.DEFAULT_STEP_CAP):
    """Second opinion on ctx |> t ~ u: `lambda-valid` when the encoded
    equality holds in the pure lambda fragment, `needs-theory` otherwise."""
    _, sigma = fold(judgment.ctx)
    t, u = (substitute(side, sigma) for side in (judgment.lhs, judgment.rhs))
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
