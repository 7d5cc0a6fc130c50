"""Writing a `calculus.Certificate` as text, each repeated term once.

The syntax is described in `hosmt.calculus`; `calculus.print_certificate`
is the entry point.  One pass counts how often each interned node occurs
below the certificate's roots (conclusion sides, `map` images, lemma
formulas and bindings); the printer then writes each line, defining a
context node or a repeated term just before the first line that uses it.
"""

import itertools

from . import core, typecheck
from .calculus import EqJudgment, _assign_names, _unseen
from .context import EMPTY, Fix, Map
from .core import App, Const, Var, binder_parts, const_names, free_vars


def _declarations(sig):
    lines = []
    if sig is not None:
        for name, arity in sig.sorts.items():
            if name not in typecheck.BUILTIN_SORTS:
                lines.append(f"(declare-sort {name} {arity})")
        for name, sort in sig.symbols.items():
            args = []
            s = sort
            while isinstance(s, core.Fun):
                args.append(s.dom)
                s = s.cod
            astr = " ".join(core.sort_str(a) for a in args)
            lines.append(f"(declare-fun {name} ({astr}) {core.sort_str(s)})")
    return lines


def _is_eq(t):
    """Whether t is a full application of =, which prints as (= a b)."""
    return (isinstance(t, App) and isinstance(t.fn, App)
            and isinstance(t.fn.fn, Const) and t.fn.fn.name == "=")


class _Printer:
    """Writes one certificate; see print_certificate.

    A variable prints under its canonical name, its context name or else
    its own, unless a binder had to be renamed.  A term is printed in a
    scope: `scope` maps the id of every variable bound there to its printed
    name, and `odd` holds the ids printed under another name than their
    canonical one.  A node used twice is defined at its first use whose
    free variables are all bound there and print canonically, and is
    referred to wherever that holds again: its text is then the same.
    """

    def __init__(self, cert):
        self.names = _assign_names(cert)
        self.ctx_names = {}  # id(context node) -> c1, c2, ...
        self.uses = {}  # non-leaf node -> parent occurrences in the roots
        self.canon = {}  # var id -> canonical name
        self.by_canon = {}  # canonical name -> ids
        self.defs = {}  # node -> @name
        self.lines = _declarations(cert.signature)
        # the variables of the context at `at`, with their multiplicity
        self.at, self.scope, self.held, self.depths = EMPTY, {}, {}, {EMPTY: 0}
        symbols = cert.signature.symbols if cert.signature else {}
        self.term_names = (f"@t{k}" for k in itertools.count(1)
                           if f"@t{k}" not in symbols)
        seen = set()
        for step in cert.steps:
            c = step.conclusion
            if isinstance(c, EqJudgment):
                for node in _unseen(c.ctx, seen):
                    seen.add(id(node))
                    if isinstance(node.entry, Map):
                        for _, img in node.entry.pairs:
                            self.count(img)
                self.count(c.lhs)
                self.count(c.rhs)
            else:
                for _, t in step.binding:
                    self.count(t)
                self.count(c.formula)

    def count(self, root):
        todo = [root]
        while todo:
            u = todo.pop()
            if isinstance(u, Var):
                if u.id not in self.canon:
                    name = self.canon[u.id] = self.names.get(u.id, u.name)
                    self.by_canon.setdefault(name, []).append(u.id)
                continue
            if isinstance(u, Const):
                continue
            n = self.uses.get(u, 0)
            self.uses[u] = n + 1
            if not n:
                todo += (u.fn.arg, u.arg) if _is_eq(u) else core._children(u)

    def term(self, t, scope, odd):
        """t as text; see the class docstring."""
        if isinstance(t, Var):
            return scope.get(t.id) or self.canon[t.id]
        if isinstance(t, Const):
            if t.name == "=":
                return f"(as = {core.sort_str(t.sort)})"
            return t.name
        if self.uses.get(t, 0) > 1:
            fv = free_vars(t)
            if scope.keys() >= fv and odd.isdisjoint(fv):
                name = self.defs.get(t)
                if name is None:
                    text = self.inline(t, scope, odd)
                    name = self.defs[t] = next(self.term_names)
                    self.lines.append(f"(define {name} {text})")
                return name
        return self.inline(t, scope, odd)

    def pick(self, v, body, bound, scope, odd, taken=()):
        """A binder's printed name: its canonical one, so that terms named
        under it stay valid, unless the body shows that name free."""
        fv, consts = free_vars(body), const_names(body)

        def visible(name):
            return (name in taken or name in consts
                    or any(i in fv and i not in bound and i not in odd
                           for i in self.by_canon.get(name, ()))
                    or any(i in fv and i not in bound and scope[i] == name
                           for i in odd))

        name = self.names.get(v.id, v.name)
        k = 1
        while visible(name):
            name = f"{v.name}{k}"
            k += 1
        return name

    def bind(self, scope, odd, v, name):
        """The scope and odd set under a binder of v printed as name."""
        if name != self.canon.get(v.id, name):
            return {**scope, v.id: name}, odd | {v.id}
        return {**scope, v.id: name}, odd - {v.id}

    def inline(self, t, scope, odd):
        if isinstance(t, App):
            if _is_eq(t):
                return (f"(= {self.term(t.fn.arg, scope, odd)} "
                        f"{self.term(t.arg, scope, odd)})")
            args = []
            while isinstance(t, App) and (not args or self.uses.get(t, 0) < 2):
                args.append(t.arg)
                t = t.fn
            parts = [self.term(t, scope, odd)]
            parts += [self.term(a, scope, odd) for a in reversed(args)]
            return "(" + " ".join(parts) + ")"
        bp = binder_parts(t)
        if bp is not None:
            kind, v, body = bp
            name = self.pick(v, body, (v.id,), scope, odd)
            body = self.term(body, *self.bind(scope, odd, v, name))
            return f"({kind} (({name} {core.sort_str(v.sort)})) {body})"
        bound = {v.id for v, _ in t.bindings}
        inner, inner_odd, taken, pairs = scope, odd, set(), []
        for v, img in t.bindings:
            name = self.pick(v, t.body, bound, scope, odd, taken)
            taken.add(name)
            inner, inner_odd = self.bind(inner, inner_odd, v, name)
            pairs.append(f"({name} {self.term(img, scope, odd)})")
        return (f"(let ({' '.join(pairs)}) "
                f"{self.term(t.body, inner, inner_odd)})")

    def depth(self, ctx):
        todo = []
        while ctx not in self.depths:
            todo.append(ctx)
            ctx = ctx.parent
        for node in reversed(todo):
            self.depths[node] = self.depths[node.parent] + 1
        return self.depths[todo[0] if todo else ctx]

    def move(self, ctx):
        """Brings the scope's context part from self.at to ctx."""
        up, path = self.at, []
        while up is not ctx:
            if self.depth(up) >= self.depth(ctx):
                for i in self.entry_ids(up.entry):
                    self.held[i] -= 1
                    if not self.held[i]:
                        del self.held[i], self.scope[i]
                up = up.parent
            else:
                path.append(ctx)
                ctx = ctx.parent
        self.at = up
        for node in reversed(path):
            self.enter(node)

    def enter(self, node):
        for i in self.entry_ids(node.entry):
            self.held[i] = self.held.get(i, 0) + 1
            self.scope[i] = self.names[i]
        self.at = node

    @staticmethod
    def entry_ids(e):
        return (e.var.id,) if isinstance(e, Fix) else [v.id for v, _ in e.pairs]

    def context(self, ctx):
        """Writes the (context ...) lines ctx still needs; the scope then
        holds ctx's variables."""
        unseen = _unseen(ctx, self.ctx_names)
        self.move(unseen[0].parent if unseen else ctx)
        none = frozenset()
        for node in unseen:
            name = self.ctx_names[id(node)] = f"c{len(self.ctx_names) + 1}"
            parent = ("()" if node.parent.is_empty()
                      else self.ctx_names[id(node.parent)])
            e = node.entry
            if isinstance(e, Fix):
                entry = f"(fix {self.names[e.var.id]} {core.sort_str(e.var.sort)})"
            else:
                entry = "(map " + " ".join(
                    f"({self.names[v.id]} {self.term(img, self.scope, none)})"
                    for v, img in e.pairs) + ")"
            self.lines.append(f"(context {name} {parent} {entry})")
            self.enter(node)

    def step(self, step):
        parts = [f"(step {step.id} :rule {step.rule}"]
        if step.premises:
            parts.append(":premises (" + " ".join(step.premises) + ")")
        c = step.conclusion
        none = frozenset()
        if isinstance(c, EqJudgment):
            self.context(c.ctx)
            if not c.ctx.is_empty():
                parts.append(f":context {self.ctx_names[id(c.ctx)]}")
            if step.theory is not None:
                parts.append(f":theory {step.theory}")
            parts.append(f":conclusion (= {self.term(c.lhs, self.scope, none)} "
                         f"{self.term(c.rhs, self.scope, none)}))")
        else:
            if step.binding:
                bs = " ".join(f"({n} {self.term(t, {}, none)})"
                              for n, t in step.binding)
                parts.append(f":binding ({bs})")
            parts.append(f":conclusion {self.term(c.formula, {}, none)})")
        self.lines.append(" ".join(parts))


def write_certificate(cert):
    """The certificate text (`calculus.print_certificate`).

    Each context node is defined once, by a (context ...) line, and named
    c1, c2, ... by identity; each non-leaf term node used twice is defined
    once, by a (define ...) line, and named @t1, @t2, ...  Both kinds of
    line sit just before the first line that uses them.
    """
    printer = _Printer(cert)
    for step in cert.steps:
        printer.step(step)
    return "\n".join(printer.lines) + "\n"
