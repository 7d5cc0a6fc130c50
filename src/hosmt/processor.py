"""Proof-producing term processing.

`process` rewrites a well-sorted core term to its processed form --
beta-normal, let-free, every binder renamed to a fresh canonical variable --
while emitting a certificate deriving `() |> t ~ u` in the calculus.  The
recursion mirrors the rules: Refl at leaves, Cong at applications, Beta at
redexes, Bind at binders, Let at lets, and Trans where the head of an
application itself reduces to a lambda-abstraction.
"""

import itertools
from collections import namedtuple

from . import core
from .calculus import Certificate, EqJudgment, ProofStep
from .context import EMPTY, apply_context, fixes
from .core import (App, Applied, Binder, Const, DivergenceError, Let, Var,
                   fresh_var)
from .signature import ARITH_SYMBOLS, CORE_SYMBOLS, Signature


# term: the processed form; certificate: a Certificate deriving it
ProcessResult = namedtuple("ProcessResult", ("term", "certificate"))


def signature_for_term(t):
    """A minimal signature declaring the constants and sorts occurring in t."""
    sig = Signature()

    def add_sort(s):
        if isinstance(s, Applied):
            sig.sorts.setdefault(s.name, len(s.args))
            for a in s.args:
                add_sort(a)
        else:
            add_sort(s.dom)
            add_sort(s.cod)

    for u in core.subterms(t):
        if isinstance(u, (Var, Const)):
            add_sort(u.sort)
        if (isinstance(u, Const) and u.name not in sig.symbols
                and u.name not in CORE_SYMBOLS
                and u.name not in ARITH_SYMBOLS and u.name != "="
                and not u.name[0].isdigit()):
            sig.symbols[u.name] = u.sort
    return sig


class _Processor:
    def __init__(self, used_names, max_steps):
        self.steps = []
        self.memo = {}
        self.ids = itertools.count(1)
        self.used_names = used_names
        self.wcount = 0
        self.budget = max_steps

    def spend(self):
        self.budget -= 1
        if self.budget < 0:
            raise DivergenceError("processing exceeded the step cap")

    def fresh_name(self):
        while True:
            name = "w" if self.wcount == 0 else f"w{self.wcount}"
            self.wcount += 1
            if name not in self.used_names:
                self.used_names.add(name)
                return name

    def emit(self, rule, premises, ctx, lhs, rhs):
        step = ProofStep(f"s{next(self.ids)}", rule, tuple(premises),
                         EqJudgment(ctx, lhs, rhs))
        self.steps.append(step)
        return step

    def run(self, ctx, t):
        key = (ctx, t)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        res = self._dispatch(ctx, t)
        self.memo[key] = res
        return res

    def _dispatch(self, ctx, t):
        # a leaf, or a term the context leaves alone and that holds no
        # binder and no let: one refl
        if isinstance(t, (Var, Const)) or (fixes(ctx, t) and not any(
                isinstance(s, (Binder, Let)) for s in core.subterms(t))):
            u = apply_context(ctx, t)
            return self.emit("refl", (), ctx, t, u), u
        if isinstance(t, App):
            return self._app(ctx, t)
        if isinstance(t, Binder):
            if t.kind == "eps":
                raise ValueError("cannot process a term under a choice binder")
            y = fresh_var(self.fresh_name(), t.var.sort)
            ctx2 = ctx.fix(y).map([(t.var, y)])
            s, b2 = self.run(ctx2, t.body)
            u = Binder(t.kind, y, b2)
            return self.emit("bind", (s.id,), ctx, t, u), u
        if isinstance(t, Let):
            val_ids = []
            pairs = []
            for v, img in t.bindings:
                s, img2 = self.run(ctx, img)
                val_ids.append(s.id)
                pairs.append((v, img2))
            ctx2 = ctx.map(pairs)
            sb, u = self.run(ctx2, t.body)
            return self.emit("let", (*val_ids, sb.id), ctx, t, u), u
        raise TypeError(f"not a core term: {t!r}")

    def _app(self, ctx, t):
        f = t.fn
        if type(f) is Binder and f.kind == "lambda":
            s1, v2 = self.run(ctx, t.arg)
            ctx2 = ctx.map([(f.var, v2)])
            s2, u = self.run(ctx2, f.body)
            self.spend()
            return self.emit("beta", (s1.id, s2.id), ctx, t, u), u
        s1, f2 = self.run(ctx, f)
        s2, a2 = self.run(ctx, t.arg)
        cong = self.emit("cong", (s1.id, s2.id), ctx, t, App(f2, a2))
        if not (type(f2) is Binder and f2.kind == "lambda"):
            return cong, App(f2, a2)
        # the processed head became a lambda-abstraction: reduce the new
        # redex with a beta step and chain the two with trans
        refl = self.emit("refl", (), ctx, a2, a2)
        ctx2 = ctx.map([(f2.var, a2)])
        s3, u = self.run(ctx2, f2.body)
        self.spend()
        beta = self.emit("beta", (refl.id, s3.id), ctx, App(f2, a2), u)
        return self.emit("trans", (cong.id, beta.id), ctx, t, u), u


def process(t, signature=None, max_steps=core.DEFAULT_STEP_CAP):
    """Process t, returning (processed term, certificate of () |> t ~ u)."""
    sig = signature if signature is not None else signature_for_term(t)
    used = set(sig.symbols) | set(CORE_SYMBOLS)
    used.update(u.name for u in core.subterms(t) if isinstance(u, (Var, Const)))
    proc = _Processor(used, max_steps)
    _, u = proc.run(EMPTY, t)
    return ProcessResult(u, Certificate(tuple(proc.steps), sig))

