"""Core terms as text: certificates, processed assertions and the terms
quoted in messages.

`print_term` prints one term.  `write_certificate` prints a
`calculus.Certificate` (the syntax is described in `hosmt.calculus`),
each repeated term once: one pass counts how often each interned node
occurs below the certificate's roots (conclusion sides, `map` images,
lemma formulas and bindings), then each line is written, a context node
or a repeated term defined just before the first line that uses it.
Terms are walked from an explicit work stack, so their depth is not
limited by the Python call stack.
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
    """Prints terms, and with a certificate, its lines; see print_term and
    write_certificate.

    A variable prints under the name its scope gives it, else under its
    canonical name: its context name in the certificate, or its own.  A
    binder prints as the canonical name of its variable unless a constant
    of its body has that name or a free variable of the body prints under
    it; it is then named `x1`, `x2`, ... after its variable `x`.  The
    variables of a `let` are named in order, each apart from the ones
    before it.  A node used twice in a certificate is defined at its first
    use whose free variables are all bound there and print canonically,
    and is referred to wherever that holds again: its text is then the
    same.
    """

    def __init__(self, cert=None):
        self.names = _assign_names(cert) if cert else {}
        self.by_name = {name: i for i, name in self.names.items()}
        self.ctx_names = {}  # id(context node) -> c1, c2, ...
        self.uses = {}  # non-leaf node -> parent occurrences in the roots
        self.defs = {}  # node -> @name
        # printed name -> ids of the binder variables printed under it in
        # the term being printed, innermost last
        self.inner = {}
        # ids of bound variables printed under another name than their
        # canonical one
        self.odd = set()
        if cert is None:
            return
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
            if isinstance(u, (Var, Const)):
                continue
            n = self.uses.get(u, 0)
            self.uses[u] = n + 1
            if not n:
                todo += (u.fn.arg, u.arg) if _is_eq(u) else core._children(u)

    def text(self, root, scope):
        """root as text.  `scope` maps the ids of the variables bound where
        root stands to their printed names; it is changed on the way down
        and restored on the way out."""
        # `outer`: the root's free variables by name, built at the first
        # binder
        self.vars, self.root, self.outer = scope, root, None
        names, uses, defs, odd = self.names, self.uses, self.defs, self.odd
        out, todo = [], [root]
        while todo:
            t = todo.pop()
            kind = type(t)
            if kind is str:
                out.append(t)
                continue
            if kind is tuple:  # a call that an expansion left behind
                t[0](*t[1:])
                continue
            if kind is Var:
                out.append(scope.get(t.id) or names.get(t.id, t.name))
                continue
            if kind is Const:
                out.append(f"(as = {core.sort_str(t.sort)})"
                           if t.name == "=" else t.name)
                continue
            if uses.get(t, 0) > 1:
                fv = free_vars(t)
                if scope.keys() >= fv and odd.isdisjoint(fv):
                    name = defs.get(t)
                    if name is not None:
                        out.append(name)
                        continue
                    todo.append((self.define, t, out, len(out)))
            if kind is App:
                if _is_eq(t):
                    out.append("(= ")
                    todo += (")", t.arg, " ", t.fn.arg)
                    continue
                # flatten the spine ((f a) b) to (f a b), up to a node
                # that may be defined
                out.append("(")
                todo.append(")")
                while True:
                    todo += (t.arg, " ")
                    t = t.fn
                    if type(t) is not App or uses.get(t, 0) > 1:
                        break
                todo.append(t)
                continue
            bp = binder_parts(t)
            if bp is not None:
                kind, v, body = bp
                name, saved = self.pick(v, body, (v.id,)), []
                out.append(f"({kind} (({name} {core.sort_str(v.sort)})) ")
                self.bind(((v, name),), saved)
                todo += (")", (self.unbind, saved), body)
                continue
            bound = {v.id for v, _ in t.bindings}
            taken, pairs, seq, saved = set(), [], [], []
            for v, img in t.bindings:
                name = self.pick(v, t.body, bound, taken)
                taken.add(name)
                pairs.append((v, name))
                seq += (f" ({name} " if seq else f"({name} ", img, ")")
            # the images print in the outer scope, the body in the inner one
            seq += (") ", (self.bind, pairs, saved), t.body,
                    (self.unbind, saved), ")")
            out.append("(let (")
            todo += reversed(seq)
        return "".join(out)

    def pick(self, v, body, bound, taken=()):
        """A binder's printed name: its canonical one, so that terms named
        under it stay valid, unless the body shows that name."""
        if self.outer is None:  # no binder is bound yet: `vars` is root's
            self.outer = self.free_names()
        fv, consts, scope = free_vars(body), const_names(body), self.vars
        name = self.names.get(v.id, v.name)
        k = 1
        while name in taken or name in consts or any(
                i in fv and i not in bound and scope.get(i, name) == name
                for i in self.shown(name)):
            name = f"{v.name}{k}"
            k += 1
        return name

    def shown(self, name):
        """The variables that may print as name where a body stands: the
        innermost binder printed so, which was named apart from every
        variable then printed so, or else the root's free ones and the
        certificate's variable of that name."""
        ids = self.inner.get(name)
        if ids:
            return ids[-1:]
        i = self.by_name.get(name)
        ids = self.outer.get(name, [])
        return ids if i is None else [*ids, i]

    def free_names(self):
        """own name -> ids of the root's free variables that have no name
        in the certificate."""
        fv, out = free_vars(self.root), {}
        if fv <= self.names.keys():
            return out
        missing = {i for i in fv if i not in self.names}
        todo, seen = [self.root], set()
        while missing:
            u = todo.pop()
            if isinstance(u, Var):
                if u.id in missing:
                    missing.discard(u.id)
                    out.setdefault(u.name, []).append(u.id)
            elif id(u) not in seen and not missing.isdisjoint(free_vars(u)):
                seen.add(id(u))
                todo += core._children(u)
        return out

    def bind(self, pairs, saved):
        """Prints v as name from here on, for each (v, name) of pairs;
        appends to saved what unbind needs."""
        scope, odd = self.vars, self.odd
        for v, name in pairs:
            i = v.id
            saved.append((i, name, scope.get(i), i in odd))
            scope[i] = name
            (odd.add if name != self.names.get(i, v.name) else odd.discard)(i)
            self.inner.setdefault(name, []).append(i)

    def unbind(self, saved):
        for i, name, old, was_odd in reversed(saved):
            self.inner[name].pop()
            if old is None:
                del self.vars[i]
            else:
                self.vars[i] = old
            (self.odd.add if was_odd else self.odd.discard)(i)

    def define(self, node, out, start):
        """Defines node as the text after out[start], and refers to it."""
        body = "".join(out[start:])
        del out[start:]
        name = self.defs[node] = next(self.term_names)
        self.lines.append(f"(define {name} {body})")
        out.append(name)

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
        for node in unseen:
            name = self.ctx_names[id(node)] = f"c{len(self.ctx_names) + 1}"
            parent = ("()" if node.parent.is_empty()
                      else self.ctx_names[id(node.parent)])
            e = node.entry
            if isinstance(e, Fix):
                entry = f"(fix {self.names[e.var.id]} {core.sort_str(e.var.sort)})"
            else:
                entry = "(map " + " ".join(
                    f"({self.names[v.id]} {self.text(img, self.scope)})"
                    for v, img in e.pairs) + ")"
            self.lines.append(f"(context {name} {parent} {entry})")
            self.enter(node)

    def step(self, step):
        parts = [f"(step {step.id} :rule {step.rule}"]
        if step.premises:
            parts.append(":premises (" + " ".join(step.premises) + ")")
        c = step.conclusion
        if isinstance(c, EqJudgment):
            self.context(c.ctx)
            if not c.ctx.is_empty():
                parts.append(f":context {self.ctx_names[id(c.ctx)]}")
            if step.theory is not None:
                parts.append(f":theory {step.theory}")
            parts.append(f":conclusion (= {self.text(c.lhs, self.scope)} "
                         f"{self.text(c.rhs, self.scope)}))")
        else:
            if step.binding:
                bs = " ".join(f"({n} {self.text(t, {})})"
                              for n, t in step.binding)
                parts.append(f":binding ({bs})")
            parts.append(f":conclusion {self.text(c.formula, {})})")
        self.lines.append(" ".join(parts))


def print_term(t):
    """A core term as SMT-LIB text that parses and elaborates back to it
    (up to α), its free variables printed under their own names."""
    return _Printer().text(t, {})


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
