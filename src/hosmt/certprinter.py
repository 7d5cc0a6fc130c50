"""Core terms as text: certificates, processed assertions and the terms
quoted in messages.

`print_term` prints one term.  `write_certificate` prints a
`calculus.Certificate` (the syntax is described in `hosmt.calculus`),
each repeated term once: one pass gives each context variable its name
and counts how often each interned node occurs below the certificate's
roots (conclusion sides, `map` images, lemma formulas and bindings),
then each line is written, a context node or a repeated term defined
just before the first line that uses it.
Terms are walked from an explicit work stack, so their depth is not
limited by the Python call stack.
"""

import itertools

from . import core, signature
from .calculus import EqJudgment
from .context import EMPTY, Fix, Map, move
from .core import App, Binder, Const, Var, const_names, free_vars
from .nodes import Scope
from .sexpr import quote


def _declarations(sig):
    lines = []
    if sig is not None:
        for name, arity in sig.sorts.items():
            if name not in signature.BUILTIN_SORTS:
                lines.append(f"(declare-sort {quote(name)} {arity})")
        for name, sort in sig.symbols.items():
            args = []
            s = sort
            while isinstance(s, core.Fun):
                args.append(s.dom)
                s = s.cod
            astr = " ".join(core.sort_str(a) for a in args)
            lines.append(f"(declare-fun {quote(name)} ({astr}) {core.sort_str(s)})")
    return lines


def _unseen(ctx, seen):
    """The nodes of ctx's chain that are not in `seen`, outermost first.

    A node in `seen` has all its ancestors there too, so the walk stops at
    the first one."""
    out = []
    while ctx.entry is not None and id(ctx) not in seen:
        out.append(ctx)
        ctx = ctx.parent
    out.reverse()
    return out


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
        self.names = {}  # id of a context variable -> its canonical name
        # the variables of the context at `scope.at` and of the binders
        # around the term being printed: id -> printed name, and printed
        # name -> id of the innermost binder printed so, over canonical
        # name -> id of the certificate's variable
        self.scope = Scope()
        self.scope.at = EMPTY
        self.ctx_names = {}  # id(context node) -> c1, c2, ...
        self.uses = {}  # non-leaf node -> parent occurrences in the roots
        self.defs = {}  # node -> @name
        # ids of bound variables printed under another name than their
        # canonical one, and per binder what it changed there
        self.odd, self.odd_undo = set(), []
        if cert is None:
            return
        self.lines = _declarations(cert.signature)
        symbols = cert.signature.symbols if cert.signature else {}
        self.term_names = (f"@t{k}" for k in itertools.count(1)
                           if f"@t{k}" not in symbols)
        taken = set(symbols) | set(signature.CORE_SYMBOLS)
        seen = set()
        for step in cert.steps:
            c = step.conclusion
            if isinstance(c, EqJudgment):
                for node in _unseen(c.ctx, seen):
                    seen.add(id(node))
                    for v in node.entry_vars():
                        self.claim(v, taken)
                    if isinstance(node.entry, Map):
                        for _, img in node.entry.pairs:
                            self.count(img)
                self.count(c.lhs)
                self.count(c.rhs)
            else:
                for _, t in step.binding:
                    self.count(t)
                self.count(c)

    def claim(self, v, taken):
        """Gives a context variable its canonical name, one unique in the
        certificate and apart from the names in `taken`."""
        if v.id in self.names:
            return
        name, k = v.name, 1
        while name in taken or name in self.scope:
            name = f"{v.name}{k}"
            k += 1
        self.names[v.id] = name
        self.scope[name] = v.id

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

    def text(self, root):
        """root as text, where the context at `scope.at` binds its
        variables.  Binders bind in `scope` on the way down and unbind on
        the way out."""
        # `outer`: the root's free variables by name, built at the first
        # binder
        self.root, self.outer = root, None
        scope, names, uses, defs, odd = (self.scope, self.names, self.uses,
                                         self.defs, self.odd)
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
                out.append(quote(scope.get(t.id) or names.get(t.id, t.name)))
                continue
            if kind is Const:
                out.append(f"(as = {core.sort_str(t.sort)})"
                           if t.name == "=" else quote(t.name))
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
            if kind is Binder:
                v = t.var
                name = self.pick(v, t.body, (v.id,))
                out.append(f"({t.kind} (({quote(name)} "
                           f"{core.sort_str(v.sort)})) ")
                self.bind(((v, name),))
                todo += (")", (self.unbind,), t.body)
                continue
            bound = {v.id for v, _ in t.bindings}
            taken, pairs, seq = set(), [], []
            for v, img in t.bindings:
                name = self.pick(v, t.body, bound, taken)
                taken.add(name)
                pairs.append((v, name))
                seq += (f" ({quote(name)} " if seq else f"({quote(name)} ",
                        img, ")")
            # the images print in the outer scope, the body in the inner one
            seq += (") ", (self.bind, pairs), t.body, (self.unbind,), ")")
            out.append("(let (")
            todo += reversed(seq)
        return "".join(out)

    def pick(self, v, body, bound, taken=()):
        """A binder's printed name: its canonical one, so that terms named
        under it stay valid, unless the body shows that name."""
        if self.outer is None:  # the first binder below root
            self.outer = self.free_names()
        fv, consts, scope = free_vars(body), const_names(body), self.scope
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
        root's free ones of that name, and the innermost binder printed so
        or else the certificate's variable of that name.  Below a binder
        printed so, none of the root's does: the binder was named apart
        from every variable then printed so."""
        i = self.scope.get(name)
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

    def bind(self, pairs):
        """Prints v as name from here on, for each binder (v, name) of
        pairs."""
        odd = self.odd
        self.scope.bind(kv for v, name in pairs
                        for kv in ((v.id, name), (name, v.id)))
        self.odd_undo.append([(v.id, v.id in odd) for v, _ in pairs])
        for v, name in pairs:
            (odd.add if name != self.names.get(v.id, v.name)
             else odd.discard)(v.id)

    def unbind(self):
        self.scope.unbind()
        for i, was_odd in reversed(self.odd_undo.pop()):
            (self.odd.add if was_odd else self.odd.discard)(i)

    def define(self, node, out, start):
        """Defines node as the text after out[start], and refers to it."""
        body = "".join(out[start:])
        del out[start:]
        name = self.defs[node] = next(self.term_names)
        self.lines.append(f"(define {name} {body})")
        out.append(name)

    def named(self, node):
        """What entering a context node binds in the scope."""
        return [(v.id, self.names[v.id]) for v in node.entry_vars()]

    def context(self, ctx):
        """Writes the (context ...) lines ctx still needs; the scope then
        holds ctx's variables."""
        unseen = _unseen(ctx, self.ctx_names)
        move(self.scope, unseen[0].parent if unseen else ctx, self.named)
        for node in unseen:
            name = self.ctx_names[id(node)] = f"c{len(self.ctx_names) + 1}"
            parent = ("()" if node.parent.is_empty()
                      else self.ctx_names[id(node.parent)])
            e = node.entry
            if isinstance(e, Fix):
                entry = f"(fix {quote(self.names[e.var.id])} {core.sort_str(e.var.sort)})"
            else:
                entry = "(map " + " ".join(
                    f"({quote(self.names[v.id])} {self.text(img)})"
                    for v, img in e.pairs) + ")"
            self.lines.append(f"(context {name} {parent} {entry})")
            move(self.scope, node, self.named)

    def step(self, step):
        parts = [f"(step {quote(step.id)} :rule {step.rule}"]
        if step.premises:
            parts.append(":premises (" + " ".join(map(quote, step.premises)) + ")")
        c = step.conclusion
        if isinstance(c, EqJudgment):
            self.context(c.ctx)
            if not c.ctx.is_empty():
                parts.append(f":context {self.ctx_names[id(c.ctx)]}")
            if step.theory is not None:
                parts.append(f":theory {step.theory}")
            parts.append(f":conclusion (= {self.text(c.lhs)} "
                         f"{self.text(c.rhs)}))")
        else:
            move(self.scope, EMPTY, self.named)  # the terms are closed
            if step.binding:
                bs = " ".join(f"({quote(n)} {self.text(t)})"
                              for n, t in step.binding)
                parts.append(f":binding ({bs})")
            parts.append(f":conclusion {self.text(c)})")
        self.lines.append(" ".join(parts))


def print_term(t):
    """A core term as SMT-LIB text that parses and elaborates back to it
    (up to α), its free variables printed under their own names."""
    return _Printer().text(t)


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
