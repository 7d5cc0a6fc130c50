"""Lambda-calculus encoding of judgments, used as an independent validity
check on the calculus.

A judgment `ctx |> t ~ u` stands for the equality, quantified over the
context's fixed variables, of t and u under the substitution the context
folds to: a fixed variable becomes an abstraction, a substitution entry a
redex.  It is `lambda-valid` when the let-free beta-normal forms of the
two sides are alpha-equal.

The oracle decides that on terms of its own.  They are nameless and
hash-consed: a variable that the context fixes or that a binder binds is
its de Bruijn level, the number of fixes and binders around the place
that binds it.  Context fixes come first and term binders continue them,
so the body under a binder and the same body under its premise's `fix`
are one node.  A `map` entry or a `let` binds its variable to its image's
translation, which is shifted where it is used under more binders than
where it was translated.  A variable that nothing binds stays itself.
Each side is beta-normalized in this form, and since alpha-equal terms
are one node, the two normal forms are compared by identity.

`check_certificate_oracle` keeps one `Memos` for a certificate and drops
it on return: the node table, the translations, keyed by term node, depth
and what the term's free variables translate to, and the normal forms.
A key names a variable only when its node is not the one it was bound to
first, or when the side leaves some variable free, so on forall-n keys do
not grow with n.  The memos hold what a node stands for, never a
verdict, so a judgment checked with them gets the verdict it gets alone.
A normal form found in the memo spends no beta-step, so `max_steps`
bounds the steps each side of a judgment spends anew within the
certificate.

The oracle shares no term code with the checker: of `core` it uses the
node classes and, for memo keys, `free_vars`, and of `context` the walk
from one context node to the next.
"""

from .context import EMPTY, Fix, move
from .core import (DEFAULT_STEP_CAP, App, Binder, Const, DivergenceError, Let,
                   Var, free_vars)

_NONE = 1 << 62  # the `lo` of a node that holds no binder


class _Env(dict):
    """Variable ids to their nodes, with the undo stack and the context
    node `at` of a `nodes.Scope`.  `first` keeps the node each variable
    was bound to first, and `moved` the variables now bound to another, so
    that a memo key need name only those."""

    __slots__ = ("undo", "at", "first", "moved")

    def __init__(self):
        super().__init__()
        self.undo, self.at, self.first, self.moved = [], EMPTY, {}, set()

    def put(self, i, x):
        """Bind the id i to the node x, or with x None, unbind it."""
        if x is None:
            del self[i]
            self.moved.discard(i)
            return
        self[i] = x
        if self.first.setdefault(i, x) is x:
            self.moved.discard(i)
        else:
            self.moved.add(i)

    def bind(self, pairs):
        self.undo.append([(i, self.get(i)) for i, _ in pairs])
        for i, x in pairs:
            self.put(i, x)

    def unbind(self):
        for i, old in reversed(self.undo.pop()):
            self.put(i, old)


class _Node:
    # mx: one more than the greatest level in the node, bound or binding,
    # 0 for none; lo: the level of its outermost binders, which is the
    # depth it lives at, or _NONE when it holds no binder
    __slots__ = ("mx", "lo")


class _Leaf(_Node):
    __slots__ = ("term",)  # a constant, or a variable nothing binds


class _Level(_Node):
    __slots__ = ("level",)


class _App(_Node):
    __slots__ = ("fn", "arg")


class _Bind(_Node):
    __slots__ = ("kind", "sort", "level", "body")


class Memos:
    """The nameless nodes of one certificate and what the oracle knows of
    them; `env` maps the ids of the variables in scope to their nodes."""

    def __init__(self):
        self.table = {}  # leaf term, level, (fn, arg) or binder fields -> node
        self.terms = {}  # (term, depth[, moved variables' nodes]) -> node
        self.nfs = {}  # node -> its normal form
        self.shifts = {}  # (node, from level, by) -> node
        self.env = _Env()
        self.depths = {EMPTY: 0}  # context node -> its number of fixes
        self.open = False  # whether `env` leaves a variable of the side free

    # ---------------------------------------------------------- nodes

    def leaf(self, t):
        node = self.table.get(t)
        if node is None:
            node = self.table[t] = _Leaf()
            node.term, node.mx, node.lo = t, 0, _NONE
        return node

    def level(self, k):
        node = self.table.get(k)
        if node is None:
            node = self.table[k] = _Level()
            node.level, node.mx, node.lo = k, k + 1, _NONE
        return node

    def app(self, fn, arg):
        key = fn, arg
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = _App()
            node.fn, node.arg = key
            node.mx = fn.mx if fn.mx > arg.mx else arg.mx
            node.lo = fn.lo if fn.lo < arg.lo else arg.lo
        return node

    def bind(self, kind, sort, k, body):
        key = kind, sort, k, body
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = _Bind()
            node.kind, node.sort, node.level, node.body = key
            node.mx = body.mx if body.mx > k else k + 1
            node.lo = k
        return node

    # ---------------------------------------------------- translation

    def side(self, t, d):
        """The node of a judgment's side or a context image t at depth d,
        under `env`."""
        # in a side that `env` closes, a variable's node is named in the
        # memo key only when it is not the one the variable had first
        if t.__class__ is not Var and t.__class__ is not Const:
            self.open = not self.env.keys() >= free_vars(t)
        return self.term(t, d)

    def term(self, t, d):
        """The node of the core term t, within a side, at depth d."""
        cls = t.__class__
        env = self.env
        if cls is Var:
            x = env.get(t.id)
            if x is None:
                return self.table.get(t) or self.leaf(t)
            return x if x.lo >= d else self.shift(x, x.lo, d - x.lo)
        if cls is Const:
            return self.table.get(t) or self.leaf(t)
        fv = free_vars(t)
        if self.open:
            key = (t, d, *map(env.get, fv))
        elif env.moved.isdisjoint(fv):
            key = t, d
        else:
            key = t, d, frozenset([(i, env[i]) for i in env.moved & fv])
        out = self.terms.get(key)
        if out is not None:
            return out
        if cls is App:
            out = self.app(self.term(t.fn, d), self.term(t.arg, d))
        elif cls is Binder:
            # env.put, inlined: binders are the most frequent binding
            i, moved = t.var.id, env.moved
            old, was = env.get(i), i in moved
            x = env[i] = self.level(d)
            if env.first.setdefault(i, x) is x:
                moved.discard(i)
            else:
                moved.add(i)
            body = self.term(t.body, d + 1)
            if old is None:
                del env[i]
            else:
                env[i] = old
            if was:
                moved.add(i)
            else:
                moved.discard(i)
            out = self.bind(t.kind, t.var.sort, d, body)
        elif cls is Let:
            pairs = []
            for v, img in t.bindings:
                pairs.append((v.id, self.term(img, d)))
            env.bind(pairs)
            out = self.term(t.body, d)
            env.unbind()
        else:
            raise TypeError(f"not a core term: {t!r}")
        self.terms[key] = out
        return out

    def entry(self, node):
        """What entering the context node binds, once `env` holds its
        parent's variables."""
        d = self.depths[node.parent]
        e = node.entry
        if e.__class__ is Fix:
            self.depths[node] = d + 1
            return ((e.var.id, self.level(d)),)
        self.depths[node] = d
        return [(v.id, self.side(img, d)) for v, img in e.pairs]

    # ---------------------------------------------------------- beta

    def shift(self, t, h, k):
        """t with every level from h up raised by k."""
        if t.mx <= h:
            return t
        key = t, h, k
        out = self.shifts.get(key)
        if out is None:
            cls = t.__class__
            if cls is _Level:
                out = self.level(t.level + k)
            elif cls is _App:
                out = self.app(self.shift(t.fn, h, k), self.shift(t.arg, h, k))
            else:
                out = self.bind(t.kind, t.sort, t.level + k,
                                self.shift(t.body, h, k))
            self.shifts[key] = out
        return out

    def subst(self, t, d, a, c, memo):
        """t, at depth c in the body of a lambda at level d, once the
        lambda is contracted with the argument a: level d becomes a, which
        lives at depth d, and every level above d drops by one.  One
        contraction shares `memo`; it is keyed by depth too, as a subterm
        that holds level d gets a shifted by its depth."""
        if t.mx <= d:
            return t
        key = t, c
        out = memo.get(key)
        if out is None:
            cls = t.__class__
            if cls is _Level:
                out = (self.shift(a, d, c - 1 - d) if t.level == d
                       else self.level(t.level - 1))
            elif cls is _App:
                out = self.app(self.subst(t.fn, d, a, c, memo),
                               self.subst(t.arg, d, a, c, memo))
            else:
                out = self.bind(t.kind, t.sort, t.level - 1,
                                self.subst(t.body, d, a, c + 1, memo))
            memo[key] = out
        return out

    def nf(self, t):
        """The beta-normal form of t; each contraction spends one step of
        `budget`."""
        if t.lo == _NONE:  # no binder, so no redex
            return t
        out = self.nfs.get(t)
        if out is not None:
            return out
        if t.__class__ is _App:
            fn, arg = self.nf(t.fn), self.nf(t.arg)
            if fn.__class__ is _Bind and fn.kind == "lambda":
                self.budget -= 1
                if self.budget < 0:
                    raise DivergenceError(
                        f"beta reduction exceeded {self.cap} steps")
                k = fn.level
                out = self.nf(self.subst(fn.body, k, arg, k + 1, {}))
            else:
                out = self.app(fn, arg)
        else:
            out = self.bind(t.kind, t.sort, t.level, self.nf(t.body))
        self.nfs[t] = self.nfs[out] = out
        return out

    def translate(self, ctx, t):
        """The node of the core term t under the context ctx, which lives
        at the depth of ctx's fixes."""
        move(self.env, ctx, self.entry)
        return self.side(t, self.depths[ctx])

    def check(self, judgment, max_steps):
        self.cap = max_steps
        sides = []
        for t in (judgment.lhs, judgment.rhs):
            x = self.translate(judgment.ctx, t)
            if x.lo != _NONE:  # a node with no binder is normal
                self.budget = max_steps
                x = self.nf(x)
            sides.append(x)
        return "lambda-valid" if sides[0] is sides[1] else "needs-theory"


def oracle_check(judgment, max_steps=DEFAULT_STEP_CAP, memos=None):
    """Second opinion on ctx |> t ~ u: `lambda-valid` when the encoded
    equality holds in the pure lambda fragment, `needs-theory` otherwise.

    `memos` is the `Memos` of the judgment's certificate, as
    `check_certificate_oracle` keeps it; without it the call keeps its
    own."""
    return (memos or Memos()).check(judgment, max_steps)


def check_certificate_oracle(cert, max_steps=DEFAULT_STEP_CAP):
    """Run oracle_check on every equality step; returns [(step id, verdict)].

    The steps share one `Memos`, dropped on return."""
    from .calculus import EqJudgment

    memos = Memos()
    return [(step.id, memos.check(step.conclusion, max_steps))
            for step in cert.steps if isinstance(step.conclusion, EqJudgment)]
