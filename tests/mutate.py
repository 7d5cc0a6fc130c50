"""Mutations over certificates, for soundness testing.

Each structural mutation returns a new Certificate differing from the input
in exactly one place; a sound checker should reject (almost) all of them.
The text mutations edit one context-name or term-name reference or
definition of a printed certificate, one `(context ...)`, `(define ...)` or
`(step ...)` per line.
"""

import re

from hosmt.calculus import Certificate, EqJudgment, ProofStep
from hosmt.context import Context
from hosmt.core import (App, Binder, Const, Let, Var, alpha_eq,
                        free_vars, fresh_var, sort_of, subterms)


def _count_leaves(t):
    if isinstance(t, (Var, Const)):
        return 1
    if isinstance(t, App):
        return _count_leaves(t.fn) + _count_leaves(t.arg)
    if isinstance(t, Binder):
        return _count_leaves(t.body)
    if isinstance(t, Let):
        return (sum(_count_leaves(i) for _, i in t.bindings)
                + _count_leaves(t.body))
    return 0


def _replace_leaf(t, k):
    """Replace the k-th leaf (in-order) with a fresh variable of its sort."""
    state = {"k": k}

    def go(u):
        if isinstance(u, (Var, Const)):
            state["k"] -= 1
            if state["k"] == -1:
                return fresh_var("mut", sort_of(u))
            return u
        if isinstance(u, App):
            return App(go(u.fn), go(u.arg))
        if isinstance(u, Binder):
            return Binder(u.kind, u.var, go(u.body))
        if isinstance(u, Let):
            return Let(tuple((v, go(i)) for v, i in u.bindings), go(u.body))
        return u

    return go(t)


def _step(step, premises=None, conclusion=None):
    """A copy of step with its premises or its conclusion replaced."""
    return ProofStep(step.id, step.rule,
                     step.premises if premises is None else premises,
                     step.conclusion if conclusion is None else conclusion,
                     step.binding, step.theory, step.line, step.col)


def _with_step(cert, i, step):
    steps = list(cert.steps)
    steps[i] = step
    return Certificate(tuple(steps), cert.signature)


def _eq_steps(cert):
    return [i for i, s in enumerate(cert.steps)
            if isinstance(s.conclusion, EqJudgment)]


def swap_sides(cert, rng):
    """Swap lhs and rhs of a step whose sides differ."""
    pool = [i for i in _eq_steps(cert)
            if not alpha_eq(cert.steps[i].conclusion.lhs,
                            cert.steps[i].conclusion.rhs)]
    if not pool:
        return None
    i = rng.choice(pool)
    c = cert.steps[i].conclusion
    new = _step(cert.steps[i], conclusion=EqJudgment(c.ctx, c.rhs, c.lhs))
    return _with_step(cert, i, new)


def drop_context_entry(cert, rng):
    """Remove one context entry from a step with a nonempty context."""
    pool = [i for i in _eq_steps(cert)
            if cert.steps[i].conclusion.ctx.entries()]
    if not pool:
        return None
    i = rng.choice(pool)
    c = cert.steps[i].conclusion
    entries = c.ctx.entries()
    entries.pop(rng.randrange(len(entries)))
    ctx = Context()
    for e in entries:
        ctx = Context(ctx, e)
    new = _step(cert.steps[i], conclusion=EqJudgment(ctx, c.lhs, c.rhs))
    return _with_step(cert, i, new)


def rename_premise(cert, rng):
    """Redirect one premise reference to a different step id."""
    ids = [s.id for s in cert.steps]
    pool = [i for i, s in enumerate(cert.steps) if s.premises]
    if not pool or len(ids) < 2:
        return None
    i = rng.choice(pool)
    step = cert.steps[i]
    j = rng.randrange(len(step.premises))
    other = rng.choice([x for x in ids if x != step.premises[j]])
    premises = list(step.premises)
    premises[j] = other
    return _with_step(cert, i, _step(step, premises=tuple(premises)))


def alter_leaf(cert, rng):
    """Replace one leaf of one conclusion side with a fresh variable."""
    pool = _eq_steps(cert)
    if not pool:
        return None
    i = rng.choice(pool)
    c = cert.steps[i].conclusion
    side = rng.choice(("lhs", "rhs"))
    t = getattr(c, side)
    n = _count_leaves(t)
    if n == 0:
        return None
    t2 = _replace_leaf(t, rng.randrange(n))
    new_c = (EqJudgment(c.ctx, t2, c.rhs) if side == "lhs"
             else EqJudgment(c.ctx, c.lhs, t2))
    return _with_step(cert, i, _step(cert.steps[i], conclusion=new_c))


MUTATIONS = (swap_sides, drop_context_entry, rename_premise, alter_leaf)


def break_side_condition(cert, rng):
    """Make one beta or let step fail its side condition Γ(s) = s.

    The step maps a term s with a free variable z, and the certificate
    declares a constant u of z's sort.  The step's context and its
    premises' contexts are extended by the mapping (z u), the body
    premise's last entry kept on top, so that every other check of the
    step still holds; the printed text reads back, since u is declared.
    Not in MUTATIONS, so that their seeded streams stay as they are.
    """
    steps = {s.id: k for k, s in enumerate(cert.steps)}
    pool = []
    for i in _eq_steps(cert):
        step = cert.steps[i]
        if step.rule not in ("beta", "let"):
            continue
        body = cert.steps[steps[step.premises[-1]]].conclusion
        for _, s in body.ctx.entry.pairs:
            fv = free_vars(s)
            for z in subterms(s):
                if isinstance(z, Var) and z.id in fv:
                    us = sorted(n for n, sort in cert.signature.symbols.items()
                                if sort == z.sort)
                    if us:
                        pool.append((i, z, us))
    if not pool:
        return None
    i, z, us = rng.choice(pool)
    step = cert.steps[i]
    ctx = step.conclusion.ctx.map([(z, Const(rng.choice(us), z.sort))])
    for pid in step.premises:
        k = steps[pid]
        p = cert.steps[k].conclusion
        pctx = Context(ctx, p.ctx.entry) if pid == step.premises[-1] else ctx
        cert = _with_step(cert, k, _step(cert.steps[k], conclusion=EqJudgment(
            pctx, p.lhs, p.rhs)))
    c = step.conclusion
    return _with_step(cert, i, _step(step, conclusion=EqJudgment(
        ctx, c.lhs, c.rhs)))


def random_mutation(cert, rng):
    """(name, mutated certificate); retries until a mutation applies."""
    while True:
        m = rng.choice(MUTATIONS)
        out = m(cert, rng)
        if out is not None:
            return m.__name__, out


# ------------------------------------------------------- text mutations

_DEF = re.compile(r"\(context ([^\s()]+) (\(\)|[^\s()]+) ")
_USE = re.compile(r"\(step .*:context ([^\s()]+)")


def _scan_names(text):
    """(lines, defs, uses): defs are (line index, match of _DEF), uses are
    (line index, match of _USE) for steps that name their context."""
    lines = text.split("\n")
    defs, uses = [], []
    for i, line in enumerate(lines):
        m = _DEF.match(line)
        if m:
            defs.append((i, m))
        m = _USE.match(line)
        if m:
            uses.append((i, m))
    return lines, defs, uses


def _edit(lines, i, m, group, new):
    """The text with group `group` of match m on line i replaced by new,
    and the 1-based (line, col) of the edit."""
    lines = list(lines)
    lines[i] = lines[i][:m.start(group)] + new + lines[i][m.end(group):]
    return "\n".join(lines), (i + 1, m.start(group) + 1)


def reparent_context(text, rng):
    """Point one (context ...) line at another earlier context or ()."""
    lines, defs, _ = _scan_names(text)
    pool = []
    for k, (i, m) in enumerate(defs):
        others = [d.group(1) for _, d in defs[:k]] + ["()"]
        others = [n for n in others if n != m.group(2)]
        if others:
            pool.append((i, m, others))
    if not pool:
        return None
    i, m, others = rng.choice(pool)
    return _edit(lines, i, m, 2, rng.choice(others))


def repoint_context(text, rng):
    """Point one step's :context at another context defined before it."""
    lines, defs, uses = _scan_names(text)
    pool = []
    for i, m in uses:
        others = [d.group(1) for j, d in defs
                  if j < i and d.group(1) != m.group(1)]
        if others:
            pool.append((i, m, others))
    if not pool:
        return None
    i, m, others = rng.choice(pool)
    return _edit(lines, i, m, 1, rng.choice(others))


def dangling_context(text, rng):
    """Make one context reference name an undefined or a later context."""
    lines, defs, uses = _scan_names(text)
    refs = [(i, m, 2) for i, m in defs if m.group(2) != "()"]
    refs += [(i, m, 1) for i, m in uses]
    if not refs:
        return None
    i, m, group = rng.choice(refs)
    defined = {d.group(1) for _, d in defs}
    later = [d.group(1) for j, d in defs if j >= i]
    fresh = "c0"
    while fresh in defined:
        fresh += "0"
    return _edit(lines, i, m, group, rng.choice(later + [fresh]))


def duplicate_context(text, rng):
    """Give one (context ...) line the name of an earlier one."""
    lines, defs, _ = _scan_names(text)
    if len(defs) < 2:
        return None
    k = rng.randrange(1, len(defs))
    i, m = defs[k]
    return _edit(lines, i, m, 1, rng.choice(defs[:k])[1].group(1))


_TERM_DEF = re.compile(r"\(define (@[^\s()]+) ")
_TERM_REF = re.compile(r"@[^\s()]+")


def _scan_terms(text):
    """(lines, defs, refs): defs are (line index, match of _TERM_DEF), refs
    are (line index, match of _TERM_REF) for every use of a term name."""
    lines = text.split("\n")
    defs, refs = [], []
    for i, line in enumerate(lines):
        m = _TERM_DEF.match(line)
        if m:
            defs.append((i, m))
        refs += [(i, r) for r in _TERM_REF.finditer(line)
                 if not (m and r.start() == m.start(1))]
    return lines, defs, refs


def repoint_term(text, rng):
    """Point one term reference at another term defined before it."""
    lines, defs, refs = _scan_terms(text)
    pool = []
    for i, m in refs:
        others = [d.group(1) for j, d in defs
                  if j < i and d.group(1) != m.group()]
        if others:
            pool.append((i, m, others))
    if not pool:
        return None
    i, m, others = rng.choice(pool)
    return _edit(lines, i, m, 0, rng.choice(others))


def dangling_term(text, rng):
    """Make one term reference name an undefined, a later or its own term."""
    lines, defs, refs = _scan_terms(text)
    if not refs:
        return None
    i, m = rng.choice(refs)
    defined = {d.group(1) for _, d in defs}
    later = [d.group(1) for j, d in defs if j >= i]
    fresh = "@t0"
    while fresh in defined:
        fresh += "0"
    return _edit(lines, i, m, 0, rng.choice(later + [fresh]))


def duplicate_term(text, rng):
    """Give one (define ...) line the name of an earlier one."""
    lines, defs, _ = _scan_terms(text)
    if len(defs) < 2:
        return None
    k = rng.randrange(1, len(defs))
    i, m = defs[k]
    return _edit(lines, i, m, 1, rng.choice(defs[:k])[1].group(1))


TEXT_MUTATIONS = (reparent_context, repoint_context, dangling_context,
                  duplicate_context, repoint_term, dangling_term,
                  duplicate_term)


def random_text_mutation(text, rng):
    """(name, mutated text, (line, col) of the edit), or None when no text
    mutation applies."""
    for m in rng.sample(TEXT_MUTATIONS, len(TEXT_MUTATIONS)):
        out = m(text, rng)
        if out is not None:
            return (m.__name__, *out)
    return None
