"""Reading certificate text into a `calculus.Certificate`.

The syntax and the meaning of term names are described in `hosmt.calculus`;
`calculus.parse_certificate` is the entry point.  The text is read by
`sexpr.parse_text`, and each term of the reader's tree is elaborated by
`elaborate.Elaborator`, the elaborator of script terms too, of which
`_CertParser` is the subclass for certificates.  Binder and `let`
variables come from the certificate's (name, sort) registry, as context
variables do, `@`-names are resolved at each use (`_CertParser.term_ref`,
which looks at a definition's free variables only where the scope may
differ from its first use's), and the arithmetic symbols are always in
scope.  A declaration is `Elaborator.command`, as in a script; the walk
checks syntax alone where sorts are not wanted: a definition's body on its
own line, since it is elaborated at its first use, and any other command,
which no certificate may hold.  This module loads neither `hosmt.surface`
nor `hosmt.typecheck`.
"""

from . import sexpr
from .calculus import (LEMMA_RULES, RULES, Certificate, CertificateError,
                       EqJudgment, ProofStep)
from .context import EMPTY, move
from .core import BOOL, const_names, free_vars, fresh_var
from .elaborate import Elaborator, is_sym
from .sexpr import KEYWORD, SYMBOL, SList, Token


# the keywords a step of each rule reads, each at most once
_KEYWORDS = {
    rule: {":rule", ":premises", ":conclusion"}
    | ({":binding"} if rule in LEMMA_RULES else {":context"})
    | ({":theory"} if rule == "taut" else set())
    for rule in RULES}
_ALL_KEYWORDS = set().union(*_KEYWORDS.values())
_DECLARATIONS = ("declare-sort", "declare-fun", "declare-const")


def _named(node):
    """What entering a context node binds in the reader's scope."""
    return [(v.name, v) for v in node.entry_vars()]


class _CertParser(Elaborator):
    """The elaborator of one certificate, and its contexts, term
    definitions, declarations and steps.  `scope` maps names to the
    variables of the context at `scope.at` and, above them, to the binders
    of the term being elaborated."""

    arith = True

    def __init__(self, filename):
        super().__init__(filename)
        # one core variable per (name, sort) across the whole certificate,
        # binders included, so one text denotes one node in every scope
        self.registry = {}
        self.by_id = {}
        self.contexts = {}  # context name -> Context
        # term name -> [its tree, node, sort, the scope of its first use]
        self.terms = {}
        self.scope.at = EMPTY

    def var_for(self, name, sort):
        v = self.registry.get((name, sort))
        if v is None:
            v = self.registry[name, sort] = fresh_var(name, sort)
            self.by_id[v.id] = v
        return v

    def error(self, msg, e, kind=CertificateError):
        return super().error(msg, e, kind)

    def term_ref(self, name, at):
        """The (node, sort) the term name `name` denotes at its use `at`, or
        None for a declared symbol of that name.

        The first use elaborates the definition in its own scope; a later
        use gets the same node when each of its free variables is what its
        name means here and no local variable hides one of its constants.
        Its free variables need no look where the first use's scope bound
        no name, so that the node is closed, or where the scope has not
        changed since: the bind then on top of `scope.undo` still is.
        """
        d = self.terms.get(name)
        if d is None:
            if name in self.sig.symbols:
                return None
            raise self.error(f"unknown term {name}", at)
        top = self.scope.undo[-1] if self.scope else None
        if d[1] is None:
            d[3] = top
            d[1], d[2] = self.term(d[0])
            return d[1], d[2]
        if d[3] is not None and d[3] is not top:
            free = free_vars(d[1])
            for i in free:
                v = self.by_id[i]
                if self.scope.get(v.name) is not v:
                    # of the variables wrong here, the first one registered:
                    # the order of the set depends on the ids, which depend
                    # on the process
                    v = next(v for v in map(self.by_id.get, sorted(free))
                             if self.scope.get(v.name) is not v)
                    raise self.error(f"term {name} uses {v.name}, which "
                                     "means another variable here", at)
        if self.scope.keys().isdisjoint(self.const_names):
            return d[1], d[2]  # no variable hides any constant
        for c in const_names(d[1]):
            if c in self.scope:
                raise self.error(f"term {name} uses constant {c}, which a "
                                 "variable hides here", at)
        return d[1], d[2]

    # ------------------------------------------------------------ lines

    def define_term(self, e):
        """(define @<name> <term>): its body may name earlier terms only."""
        items = e.items
        if (len(items) != 3 or not is_sym(items[1])
                or not items[1].text.startswith("@")):
            raise self.error("expected (define @<name> <term>)", e)
        name = items[1]
        if name.text in self.terms:
            raise self.error(f"term {name.text} defined twice", name)
        if name.text in self.sig.symbols:
            raise self.error(f"term {name.text} is a declared symbol", name)
        todo = [items[2]]
        while todo:
            x = todo.pop()
            if x.__class__ is SList:
                todo += x.items
            elif (x.text[:1] == "@" and x.kind == SYMBOL
                  and x.text not in self.terms
                  and x.text not in self.sig.symbols):
                raise self.error(f"unknown term {x.text}", x)
        self.term(items[2], None)
        self.terms[name.text] = [items[2], None, None, None]

    def declare_fun(self, name, sort, at):
        # what a certificate adds to a declaration: no term has its name
        if name in self.terms:
            raise self.error(f"term {name} is a declared symbol", at.items[1])
        super().declare_fun(name, sort, at)

    def declare(self, e):
        """Add a declare-sort, declare-fun or declare-const command to the
        signature; any other command is an error once its syntax is
        checked."""
        if is_sym(e.items[0]) and e.items[0].text in _DECLARATIONS:
            self.command(e)
        else:
            self.command(e, False)
            raise self.error("only declarations and steps are allowed", e)

    def parse_context(self, e):
        """The context a :context value denotes; `scope` then holds its
        variables."""
        if e is None:
            move(self.scope, EMPTY, _named)
            return EMPTY
        if e.__class__ is Token and e.kind == SYMBOL:
            ctx = self.contexts.get(e.text)
            if ctx is None:
                raise self.error(f"unknown context {e.text}", e)
            move(self.scope, ctx, _named)
            return ctx
        if e.__class__ is not SList:
            raise self.error("expected a context name or entry list", e)
        move(self.scope, EMPTY, _named)
        for entry in e.items:
            self.extend(entry)
        return self.scope.at

    def define_context(self, e):
        """(context <name> <ctx> <entry>): name <ctx> extended by <entry>,
        which `scope` then holds: the next line mostly uses or extends it."""
        items = e.items
        if len(items) != 4 or not is_sym(items[1]):
            raise self.error("expected (context <name> <context> <entry>)", e)
        name = items[1].text
        if name in self.contexts:
            raise self.error(f"context {name} defined twice", items[1])
        self.parse_context(items[2])
        self.contexts[name] = self.extend(items[3])

    def extend(self, entry):
        """The context at `scope.at` extended by one (fix ...) or (map ...)
        entry, whose images are elaborated in `scope`; `scope` then holds
        it."""
        if entry.__class__ is not SList or not entry.items:
            raise self.error("expected (fix ...) or (map ...)", entry)
        items = entry.items
        scope = self.scope
        if is_sym(items[0], "fix"):
            if len(items) != 3 or not is_sym(items[1]):
                raise self.error("expected (fix <name> <sort>)", entry)
            v = self.var_for(items[1].text,
                             self.sort(self.check_sort(items[2])))
            scope.at = scope.at.fix(v)
            scope.bind(((v.name, v),))
            return scope.at
        if not is_sym(items[0], "map"):
            raise self.error("unknown context entry", entry)
        if len(items) < 2:
            raise self.error("expected (map (<name> <term>)+)", entry)
        pairs = []
        for item in items[1:]:
            if (item.__class__ is not SList or len(item.items) != 2
                    or not is_sym(item.items[0])):
                raise self.error("expected (<name> <term>)", item)
            img, sort = self.term(item.items[1])
            pairs.append((self.var_for(item.items[0].text, sort), img))
        try:
            scope.at = scope.at.map(pairs)
        except ValueError as err:
            raise self.error(str(err), entry)
        scope.bind([(v.name, v) for v, _ in pairs])
        return scope.at

    def parse_step(self, e):
        items = e.items
        n = len(items)
        if (n < 2 or items[1].__class__ is not Token
                or items[1].kind != SYMBOL):
            raise self.error("expected (step <id> ...)", e)
        at = {}  # keyword -> the index of its value
        for i in range(2, n, 2):
            k = items[i]
            if k.__class__ is not Token or k.kind != KEYWORD:
                raise self.error("expected a keyword", k)
            word = k.text
            if i + 1 == n:
                raise self.error(f"missing value for {word}", k)
            if word not in _ALL_KEYWORDS:
                raise self.error(f"unknown keyword {word}", k)
            if word in at:
                raise self.error(f"repeated keyword {word}", k)
            at[word] = i + 1
        r = items[at[":rule"]] if ":rule" in at else None
        if r.__class__ is not Token or r.kind != SYMBOL:
            raise self.error("step lacks a :rule", e)
        rule = r.text
        if rule not in RULES:
            raise self.error(f"unknown rule {rule}", r)
        if not at.keys() <= _KEYWORDS[rule]:
            k = next(items[i - 1] for i in at.values()
                     if items[i - 1].text not in _KEYWORDS[rule])
            raise self.error(f"rule {rule} takes no {k.text}", k)
        premises = ()
        if ":premises" in at:
            pe = items[at[":premises"]]
            if pe.__class__ is not SList:
                raise self.error("expected a list of step ids", pe)
            premises = []
            for x in pe.items:
                if x.__class__ is not Token or x.kind != SYMBOL:
                    raise self.error("expected a list of step ids", pe)
                premises.append(x.text)
            premises = tuple(premises)
        theory = None
        if ":theory" in at:
            te = items[at[":theory"]]
            if not is_sym(te):
                raise self.error("expected a theory tag", te)
            theory = te.text
        if ":conclusion" not in at:
            raise self.error("step lacks a :conclusion", e)
        ce = items[at[":conclusion"]]
        binding = ()
        if rule in LEMMA_RULES:
            move(self.scope, EMPTY, _named)  # closed terms
            if ":binding" in at:
                be = items[at[":binding"]]
                if be.__class__ is not SList:
                    raise self.error("expected a binding list", be)
                bs = []
                for item in be.items:
                    if (item.__class__ is not SList or len(item.items) != 2
                            or not is_sym(item.items[0])):
                        raise self.error("expected (<name> <term>)", item)
                    bs.append((item.items[0].text, self.term(item.items[1])[0]))
                binding = tuple(bs)
            conclusion, s = self.term(ce)
            if s is not BOOL:
                raise self.error("lemma formula must have sort Bool", ce)
        else:
            ctx = self.parse_context(items[at[":context"]] if ":context" in at
                                     else None)
            if (ce.__class__ is not SList or len(ce.items) != 3
                    or not is_sym(ce.items[0], "=")):
                raise self.error("expected (= <term> <term>)", ce)
            lhs, ls = self.term(ce.items[1])
            rhs, rs = self.term(ce.items[2])
            if ls is not rs:
                raise self.error("conclusion sides have different sorts", ce)
            conclusion = EqJudgment(ctx, lhs, rhs)
        return ProofStep(items[1].text, rule, premises, conclusion, binding,
                         theory, e.line, e.col)


def read_certificate(text, filename="<certificate>"):
    """The Certificate that `text` denotes (`calculus.parse_certificate`).

    The text is read through `sexpr.parse_text`, looked up at each call.
    """
    exprs = sexpr.parse_text(text, filename)
    parser = _CertParser(filename)
    steps = []
    for e in exprs:
        if e.__class__ is not SList or not e.items:
            raise parser.error("expected a command or step", e)
        head = e.items[0]
        word = (head.text if head.__class__ is Token and head.kind == SYMBOL
                else None)
        if word == "step":
            steps.append(parser.parse_step(e))
        elif word == "context":
            parser.define_context(e)
        elif word == "define":
            parser.define_term(e)
        else:
            parser.declare(e)
    if not steps:
        raise CertificateError("certificate has no steps", 1, 1, filename)
    return Certificate(tuple(steps), parser.sig)
