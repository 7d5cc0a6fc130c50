"""Seeded random generators for well-sorted core terms, substitutions, and
contexts over a small fixed signature, and one fixed-shape term over it,
the shared let chain."""

import random

from hosmt.core import (App, BOOL, Binder, Const, Fun, INT, Let, Var,
                        free_vars, fresh_var, sort_of, subterms)
from hosmt.context import EMPTY

INTI = Fun(INT, INT)

CONSTS = (
    Const("a", INT),
    Const("b", INT),
    Const("c0", BOOL),
    Const("f", INTI),
    Const("g", Fun(INT, INTI)),
    Const("p", Fun(INT, BOOL)),
    Const("q", Fun(INTI, BOOL)),
    Const("k", Fun(INTI, INT)),
)

BASE_SORTS = (INT, BOOL, INTI)


def _leaf(rng, sort, env):
    here = [v for v in env if v.sort == sort]
    consts = [c for c in CONSTS if c.sort == sort]
    pool = here + consts
    if pool and (not isinstance(sort, Fun) or rng.random() < 0.7):
        return rng.choice(pool)
    if isinstance(sort, Fun):
        x = fresh_var(rng.choice("xyz"), sort.dom)
        return Binder("lambda", x, _leaf(rng, sort.cod, env + [x]))
    # sorts outside the signature's reach never occur for BASE_SORTS
    return rng.choice(pool)


def gen_term(rng, sort, depth, env=None):
    """A random well-sorted core term of the given sort."""
    env = env if env is not None else []
    if depth <= 0:
        return _leaf(rng, sort, env)
    roll = rng.random()
    if roll < 0.15:
        return _leaf(rng, sort, env)
    if roll < 0.45:
        dom = rng.choice(BASE_SORTS)
        fn = gen_term(rng, Fun(dom, sort), depth - 1, env)
        arg = gen_term(rng, dom, depth - 1, env)
        return App(fn, arg)
    if roll < 0.6 and isinstance(sort, Fun):
        x = fresh_var(rng.choice("xyz"), sort.dom)
        return Binder("lambda", x,
                      gen_term(rng, sort.cod, depth - 1, env + [x]))
    if roll < 0.75:
        n = rng.choice((1, 1, 2))
        pairs = []
        for _ in range(n):
            s = rng.choice(BASE_SORTS)
            pairs.append((fresh_var(rng.choice("uv"), s),
                          gen_term(rng, s, depth - 1, env)))
        body = gen_term(rng, sort, depth - 1, env + [v for v, _ in pairs])
        return Let(tuple(pairs), body)
    if sort == BOOL and roll < 0.9:
        s = rng.choice(BASE_SORTS)
        x = fresh_var(rng.choice("xyz"), s)
        return Binder(rng.choice(("forall", "exists")), x,
                      gen_term(rng, BOOL, depth - 1, env + [x]))
    if isinstance(sort, Fun):
        x = fresh_var(rng.choice("xyz"), sort.dom)
        return Binder("lambda", x,
                      gen_term(rng, sort.cod, depth - 1, env + [x]))
    # force a redex so beta paths get exercised
    dom = rng.choice(BASE_SORTS)
    x = fresh_var("r", dom)
    body = gen_term(rng, sort, depth - 1, env + [x])
    return App(Binder("lambda", x, body), gen_term(rng, dom, depth - 1, env))


def gen_closed(rng, depth=5):
    """A random closed term of a random base sort."""
    return gen_term(rng, rng.choice(BASE_SORTS), depth)


def gen_subst(rng, t, max_vars=3, depth=3):
    """A sort-preserving substitution over some free variables of t.

    The term is generated closed in this suite, so substitutions are built
    against explicitly supplied open terms instead; see gen_open.
    """
    fv = free_vars(t)
    # first occurrences in pre-order, so the shuffle below sees a fixed order
    free = list({u.id: u for u in subterms(t)
                 if isinstance(u, Var) and u.id in fv}.values())
    rng.shuffle(free)
    sigma = {}
    for v in free[:max_vars]:
        sigma[v.id] = gen_term(rng, v.sort, depth)
    return sigma


def gen_open(rng, depth=5, n_free=2):
    """(term, free vars): a term over a few pre-chosen free variables."""
    fv = [fresh_var(n, rng.choice(BASE_SORTS)) for n in ("m", "n")[:n_free]]
    t = gen_term(rng, rng.choice(BASE_SORTS), depth, env=list(fv))
    return t, fv


def gen_context(rng, depth=3, entries=3):
    """A well-formed random context: map images mention only earlier-fixed
    variables (the shape real derivations produce)."""
    ctx = EMPTY
    fixed = []
    mapped = []
    for _ in range(rng.randint(0, entries)):
        if rng.random() < 0.5:
            v = fresh_var("w", rng.choice(BASE_SORTS))
            ctx = ctx.fix(v)
            fixed.append(v)
        else:
            n = rng.choice((1, 1, 2))
            pairs = []
            for _ in range(n):
                s = rng.choice(BASE_SORTS)
                v = fresh_var(rng.choice("xyz"), s)
                if any(v2.id == v.id for v2, _ in pairs):
                    continue
                pairs.append((v, gen_term(rng, s, depth, env=list(fixed))))
            ctx = ctx.map(pairs)
            mapped.extend(v for v, _ in pairs)
    return ctx, fixed, mapped


def gen_judgment_term(rng, ctx, fixed, mapped, depth=4):
    """A term whose free variables live in the given context."""
    sort = rng.choice(BASE_SORTS)
    return gen_term(rng, sort, depth, env=list(fixed) + list(mapped))


def eq_term(lhs, rhs):
    """The core formula (= lhs rhs)."""
    s = sort_of(lhs)
    if s != sort_of(rhs):
        raise ValueError("equality between terms of different sorts")
    return App(App(Const("=", Fun(s, Fun(s, BOOL))), lhs), rhs)


def let_chain(n):
    """(= (let ((x1 a)) (let ((x2 (g x1 x1))) ... xn)) a): n nested lets,
    each image using the variable before it twice, so the let-free form
    has 2^(n-1) leaves in n interned nodes."""
    a, g = CONSTS[0], CONSTS[4]
    xs = [fresh_var(f"x{i}", INT) for i in range(1, n + 1)]
    body = xs[-1]
    for prev, x in reversed(list(zip(xs, xs[1:]))):
        body = Let(((x, App(App(g, prev), prev)),), body)
    return eq_term(Let(((xs[0], a),), body), a)
