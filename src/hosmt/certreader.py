"""Reading certificate text into a `calculus.Certificate`.

The syntax and the meaning of term names are described in `hosmt.calculus`;
`calculus.parse_certificate` is the entry point.  The text is read by
`sexpr.parse_text`, and `_CertParser.term` turns each term of the reader's
tree into a core term and its sort in one walk, which checks the term's
syntax and sorts as it goes.  Binder and `let` variables come from the
certificate's (name, sort) registry, as context variables do, and
`@`-names are resolved at each use (`_CertParser.term_ref`).  The same
walk checks syntax alone where sorts are not wanted: a definition's body
on its own line, since it is elaborated at its first use, and the commands
that no certificate may hold.

The checks and messages are those of the script front end
(`hosmt.surface`, `hosmt.typecheck`), which this module does not load.
Only their order differs: the front end checks a term's whole syntax
before any of its sorts, and this walk checks each subterm's sorts as soon
as it has read it.  Sorts are small: each is checked, then elaborated.
"""

from . import sexpr
from .calculus import (LEMMA_RULES, RULES, Certificate, CertificateError,
                       EqJudgment, ProofStep)
from .context import EMPTY, move
from .core import (BINDER_WORDS, BOOL, INT, REAL, App, Applied, Binder, Const,
                   Fun, Let, const_names, free_vars, fresh_var, fun_sort,
                   sort_str)
from .nodes import Scope
from .sexpr import DECIMAL, KEYWORD, NUMERAL, SYMBOL, ParseError, SList, Token
from .signature import Signature, SortError


# the keywords a step of each rule reads, each at most once
_KEYWORDS = {
    rule: {":rule", ":premises", ":conclusion"}
    | ({":binding"} if rule in LEMMA_RULES else {":context"})
    | ({":theory"} if rule == "taut" else set())
    for rule in RULES}
_ALL_KEYWORDS = set().union(*_KEYWORDS.values())

# the words that begin a term form other than an application
_FORMS = frozenset((*BINDER_WORDS, "let", "match", "!", "as", "="))


def _named(node):
    """What entering a context node binds in the reader's scope."""
    return [(v.name, v) for v in node.entry_vars()]


def _is_sym(e, text=None):
    return (e.__class__ is Token and e.kind == SYMBOL
            and (text is None or e.text == text))


class _CertParser:
    def __init__(self, filename):
        self.sig = Signature()
        self.filename = filename
        # one core variable per (name, sort) across the whole certificate,
        # binders included, so one text denotes one node in every scope
        self.registry = {}
        self.by_id = {}
        self.contexts = {}  # context name -> Context
        self.terms = {}  # term name -> [its tree, node, sort]
        self.consts = {}  # name -> (Const, sort) the signature gave it
        self.const_names = {"="}  # of every constant built so far
        # names to variables: those of the context at `scope.at`, and
        # above them the binders of the term being elaborated
        self.scope = Scope()
        self.scope.at = EMPTY

    def var_for(self, name, sort):
        v = self.registry.get((name, sort))
        if v is None:
            v = self.registry[name, sort] = fresh_var(name, sort)
            self.by_id[v.id] = v
        return v

    def error(self, msg, e, kind=CertificateError):
        return kind(msg, e.line, e.col, self.filename)

    def symbol(self, e, what):
        if not _is_sym(e):
            raise self.error(f"expected {what}", e, ParseError)
        return e.text

    # ------------------------------------------------------------ sorts

    def check_sort(self, e):
        if e.__class__ is Token:
            if e.kind != SYMBOL:
                raise self.error("expected a sort", e, ParseError)
            return
        if not e.items:
            raise self.error("empty sort", e, ParseError)
        arrow = _is_sym(e.items[0], "->")
        if not arrow:
            self.symbol(e.items[0], "sort constructor")
        for x in e.items[1:]:
            self.check_sort(x)
        if arrow and len(e.items) < 3:
            raise self.error("arrow sort needs at least two sorts", e,
                             ParseError)

    def sort(self, e):
        """The core sort of a checked sort, arrows curried; a parenthesized
        atomic sort `(S)` is S."""
        if e.__class__ is Token or len(e.items) == 1:
            name, args = (e if e.__class__ is Token else e.items[0]).text, ()
        else:
            name, *args = e.items
            name = name.text
            if name == "->":
                return fun_sort([self.sort(a) for a in args[:-1]],
                                self.sort(args[-1]))
        arity = self.sig.sorts.get(name)
        if arity is None:
            raise self.error(f"unknown sort {name}", e, SortError)
        if arity != len(args):
            raise self.error(f"sort {name} expects {arity} arguments" if args
                             else f"sort {name} expects arguments", e,
                             SortError)
        return Applied(name, tuple([self.sort(a) for a in args]))

    def binders(self, e):
        """The (name, checked sort) pairs of a binder list."""
        if e.__class__ is not SList or not e.items:
            raise self.error("expected a nonempty binder list", e, ParseError)
        out, seen = [], set()
        for b in e.items:
            if b.__class__ is not SList or len(b.items) != 2:
                raise self.error("expected (name sort)", b, ParseError)
            name = self.symbol(b.items[0], "binder name")
            if name in seen:
                raise self.error(f"duplicate binder {name}", b.items[0],
                                 ParseError)
            seen.add(name)
            self.check_sort(b.items[1])
            out.append((name, b.items[1]))
        return out

    # ------------------------------------------------------------ terms

    def term(self, e, elab=True):
        """(core term, sort) of the term e, or with `elab` false, None once
        its syntax is checked."""
        if e.__class__ is Token:
            if e.kind == KEYWORD:
                raise self.error(f"unexpected {e.kind} in term", e, ParseError)
            if not elab:
                return None
            if e.kind == SYMBOL:
                # most leaves: a variable in scope or a declared constant
                name = e.text
                v = self.scope.get(name)
                if v is None:
                    found = self.consts.get(name)
                    if found is not None:
                        return found
                elif name[:1] != "@" and name != "=":
                    return v, v.sort
                return self.identifier(name, None, e)
            if e.kind == NUMERAL or e.kind == DECIMAL:
                s = INT if e.kind == NUMERAL else REAL
                self.const_names.add(e.text)
                return Const(e.text, s), s
            raise self.error("string literals have no sort here", e, SortError)
        items = e.items
        if not items:
            raise self.error("empty application", e, ParseError)
        head = items[0]
        if head.__class__ is Token and head.kind == SYMBOL and head.text in _FORMS:
            return self.form(head.text, e, elab)
        found = self.term(head, elab)
        if len(items) < 2:
            raise self.error("application needs at least one argument", e,
                             ParseError)
        if not elab:
            for a in items[1:]:
                self.term(a, False)
            return None
        fn, hs = found
        for a in items[1:]:
            arg, s = self.term(a)
            if hs.__class__ is not Fun:
                raise self.error("applying a term of non-functional sort "
                                 f"{sort_str(hs)}", e, SortError)
            if hs.dom is not s:
                raise self.error(f"argument sort mismatch: expected "
                                 f"{sort_str(hs.dom)}, found {sort_str(s)}",
                                 a, SortError)
            fn, hs = App(fn, arg), hs.cod
        return fn, hs

    def form(self, word, e, elab):
        """`term` of a list headed by one of the words of _FORMS."""
        items = e.items
        n = len(items)
        if word in BINDER_WORDS:
            if n < 3:
                raise self.error(f"{word} needs binders and a body", e,
                                 ParseError)
            binders = self.binders(items[1])
            if n > 3 and word != "lambda":
                for x in items[2:]:
                    self.term(x, False)
                raise self.error(f"{word} takes exactly one body term", e,
                                 ParseError)
            # a multi-term lambda body t1 ... tn is the term (t1 ... tn)
            body = items[2] if n == 3 else SList(items[2:], e.line, e.col)
            if not elab:
                return self.term(body, False)
            # nested choices would make an outer eps body of the witness sort
            if word == "eps" and len(binders) != 1:
                raise self.error("eps takes exactly one variable", e, SortError)
            vs = [self.var_for(name, self.sort(s)) for name, s in binders]
            self.scope.bind((v.name, v) for v in vs)
            body, s = self.term(body)
            self.scope.unbind()
            if word != "lambda" and s is not BOOL:
                raise self.error(f"{word} body has sort {sort_str(s)}, "
                                 "expected Bool", e, SortError)
            for v in reversed(vs):
                body = Binder(word, v, body)
                # eps: the sort of the chosen witness
                s = (Fun(v.sort, s) if word == "lambda"
                     else v.sort if word == "eps" else BOOL)
            return body, s
        if word == "let":
            if n != 3:
                raise self.error("let takes a binding list and one body", e,
                                 ParseError)
            if items[1].__class__ is not SList or not items[1].items:
                raise self.error("expected a nonempty binding list", e,
                                 ParseError)
            pairs, seen = [], set()
            for b in items[1].items:
                if b.__class__ is not SList or len(b.items) != 2:
                    raise self.error("expected (name term)", b, ParseError)
                name = self.symbol(b.items[0], "bound name")
                if name in seen:
                    raise self.error(f"duplicate let binding {name}",
                                     b.items[0], ParseError)
                seen.add(name)
                found = self.term(b.items[1], elab)
                if elab:
                    pairs.append((self.var_for(name, found[1]), found[0]))
            if not elab:
                return self.term(items[2], False)
            self.scope.bind((v.name, v) for v, _ in pairs)
            body, s = self.term(items[2])
            self.scope.unbind()
            return Let(tuple(pairs), body), s
        if word == "match":
            if n != 3 or items[2].__class__ is not SList:
                raise self.error("match takes a scrutinee and a case list", e,
                                 ParseError)
            self.term(items[1], False)
            for c in items[2].items:
                if c.__class__ is not SList or len(c.items) != 2:
                    raise self.error("expected (pattern term)", c, ParseError)
                self.term(c.items[1], False)
            if not items[2].items:
                raise self.error("match needs at least one case", e, ParseError)
            if elab:
                raise self.error("unsupported construct: match", e, SortError)
            return None
        if word == "!":
            # attributes are kept only by the script front end
            if n < 3:
                raise self.error("annotation needs a term and attributes", e,
                                 ParseError)
            found = self.term(items[1], elab)
            keyword_due = True  # a value may follow a keyword, not a value
            for x in items[2:]:
                if x.__class__ is Token and x.kind == KEYWORD:
                    keyword_due = False
                elif keyword_due:
                    raise self.error("expected a keyword attribute", x,
                                     ParseError)
                else:
                    keyword_due = True
            return found
        if word == "as":
            if n != 3:
                raise self.error("as takes an identifier and a sort", e,
                                 ParseError)
            name = self.symbol(items[1], "identifier")
            self.check_sort(items[2])
            return self.identifier(name, items[2], e) if elab else None
        # =, which the script front end checks as an application
        if n < 2:
            raise self.error("application needs at least one argument", e,
                             ParseError)
        if n != 3 or not elab:
            for x in items[1:]:
                self.term(x, False)
            if elab:
                raise self.error("= takes exactly two arguments", e, SortError)
            return None
        lhs, ls = self.term(items[1])
        rhs, rs = self.term(items[2])
        if ls is not rs:
            raise self.error(f"equality between different sorts: "
                             f"{sort_str(ls)} and {sort_str(rs)}", e, SortError)
        return App(App(Const("=", Fun(ls, Fun(ls, BOOL))), lhs), rhs), BOOL

    def identifier(self, name, ascribed, at):
        """The symbol `name`, with the sort expression `ascribed` or None,
        at the token or list `at`: (core term, sort)."""
        if name == "=":
            # = is polymorphic: a bare or partially applied occurrence
            # needs an ascription (as = (-> S S Bool)) naming its instance
            if ascribed is None:
                raise self.error("cannot infer a sort for bare =", at,
                                 SortError)
            s = self.sort(ascribed)
            if not (s.__class__ is Fun and s.cod.__class__ is Fun
                    and s.cod.cod is BOOL and s.dom is s.cod.dom):
                raise self.error("= must be ascribed a sort (-> S S Bool)",
                                 at, SortError)
            return Const("=", s), s
        found = self.term_ref(name, at) if name[:1] == "@" else None
        if found is None:
            v = self.scope.get(name)
            if v is not None:
                found = v, v.sort
            else:
                s = self.sig.lookup(name, arith=True)
                if s is None:
                    raise self.error(f"unbound symbol {name}", at, SortError)
                found = Const(name, s), s
                self.const_names.add(name)
                if name[:1] != "@":
                    self.consts[name] = found
        if ascribed is not None:
            asc = self.sort(ascribed)
            if asc is not found[1]:
                raise self.error(f"sort ascription mismatch: expected "
                                 f"{sort_str(asc)}, found {sort_str(found[1])}",
                                 at, SortError)
        return found

    def term_ref(self, name, at):
        """The (node, sort) the term name `name` denotes at its use `at`, or
        None for a declared symbol of that name.

        The first use elaborates the definition in its own scope; a later
        use gets the same node when each of its free variables is what its
        name means here and no local variable hides one of its constants.
        """
        d = self.terms.get(name)
        if d is None:
            if name in self.sig.symbols:
                return None
            raise self.error(f"unknown term {name}", at)
        if d[1] is None:
            d[1], d[2] = self.term(d[0])
            return d[1], d[2]
        for i in free_vars(d[1]):
            v = self.by_id[i]
            if self.scope.get(v.name) is not v:
                raise self.error(f"term {name} uses {v.name}, which means "
                                 "another variable here", at)
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
        if (len(items) != 3 or not _is_sym(items[1])
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
        self.term(items[2], False)
        self.terms[name.text] = [items[2], None, None]

    def declare(self, e):
        """Add a declare-sort, declare-fun or declare-const command to the
        signature; any other command is an error."""
        items = e.items
        n = len(items)
        if not _is_sym(items[0]):
            raise self.error("expected a command", e, ParseError)
        word = items[0].text
        if word == "declare-sort":
            if n != 3 or not (items[2].__class__ is Token
                              and items[2].kind == NUMERAL):
                raise self.error("declare-sort takes a name and an arity", e,
                                 ParseError)
            name = self.symbol(items[1], "sort name")
            try:
                arity = int(items[2].text)
            except ValueError:  # past the interpreter's limit on digits
                raise self.error("declare-sort arity has too many digits",
                                 items[2], ParseError) from None
            return self.sig.declare_sort(name, arity, (e.line, e.col),
                                         self.filename)
        if word in ("declare-fun", "declare-const"):
            const = word == "declare-const"
            if const and n != 3:
                raise self.error("declare-const takes a name and a sort", e,
                                 ParseError)
            if not const and (n != 4 or items[2].__class__ is not SList):
                raise self.error("declare-fun takes a name, argument sorts, "
                                 "and a result", e, ParseError)
            name = self.symbol(items[1], "constant name" if const
                               else "function name")
            args = () if const else items[2].items
            for s in (*args, items[-1]):
                self.check_sort(s)
            if name in self.terms:
                raise self.error(f"term {name} is a declared symbol", items[1])
            sort = fun_sort([self.sort(a) for a in args], self.sort(items[-1]))
            self.sig.declare_fun(name, sort, (e.line, e.col), self.filename)
            # a declared symbol hides an arithmetic one of its name
            self.consts.pop(name, None)
            return
        # the script front end's checks of the commands no certificate holds
        if word == "set-logic":
            if n != 2:
                raise self.error("set-logic takes one symbol", e, ParseError)
            self.symbol(items[1], "logic name")
        elif word == "define-fun":
            if n != 5 or items[2].__class__ is not SList:
                raise self.error("define-fun takes a name, parameters, a "
                                 "sort, and a body", e, ParseError)
            self.symbol(items[1], "function name")
            if items[2].items:
                self.binders(items[2])
            self.check_sort(items[3])
            self.term(items[4], False)
        elif word == "assert":
            if n != 2:
                raise self.error("assert takes one term", e, ParseError)
            self.term(items[1], False)
        elif word == "exit" and n != 1:
            raise self.error("exit takes no arguments", e, ParseError)
        raise self.error("only declarations and steps are allowed", e)

    def parse_context(self, e):
        """The context a :context value denotes; `scope` then holds its
        variables."""
        if e is None:
            move(self.scope, EMPTY, _named)
            return EMPTY
        if _is_sym(e):
            if e.text not in self.contexts:
                raise self.error(f"unknown context {e.text}", e)
            move(self.scope, self.contexts[e.text], _named)
            return self.scope.at
        if e.__class__ is not SList:
            raise self.error("expected a context name or entry list", e)
        move(self.scope, EMPTY, _named)
        for entry in e.items:
            move(self.scope, self.extend(entry), _named)
        return self.scope.at

    def define_context(self, e):
        """(context <name> <ctx> <entry>): name <ctx> extended by <entry>."""
        items = e.items
        if len(items) != 4 or not _is_sym(items[1]):
            raise self.error("expected (context <name> <context> <entry>)", e)
        name = items[1]
        if name.text in self.contexts:
            raise self.error(f"context {name.text} defined twice", name)
        self.parse_context(items[2])
        # entered at once: the next line mostly uses or extends it
        ctx = self.contexts[name.text] = self.extend(items[3])
        move(self.scope, ctx, _named)

    def extend(self, entry):
        """The context at `scope.at` extended by one (fix ...) or (map ...)
        entry, whose images are elaborated in `scope`."""
        if entry.__class__ is not SList or not entry.items:
            raise self.error("expected (fix ...) or (map ...)", entry)
        items = entry.items
        if _is_sym(items[0], "fix"):
            if len(items) != 3 or not _is_sym(items[1]):
                raise self.error("expected (fix <name> <sort>)", entry)
            self.check_sort(items[2])
            v = self.var_for(items[1].text, self.sort(items[2]))
            return self.scope.at.fix(v)
        if not _is_sym(items[0], "map"):
            raise self.error("unknown context entry", entry)
        if len(items) < 2:
            raise self.error("expected (map (<name> <term>)+)", entry)
        pairs = []
        for item in items[1:]:
            if (item.__class__ is not SList or len(item.items) != 2
                    or not _is_sym(item.items[0])):
                raise self.error("expected (<name> <term>)", item)
            img, sort = self.term(item.items[1])
            pairs.append((self.var_for(item.items[0].text, sort), img))
        try:
            return self.scope.at.map(pairs)
        except ValueError as err:
            raise self.error(str(err), entry)

    def parse_step(self, e):
        items = e.items
        n = len(items)
        if n < 2 or not _is_sym(items[1]):
            raise self.error("expected (step <id> ...)", e)
        kw = {}  # keyword -> (its token, its value)
        for i in range(2, n, 2):
            k = items[i]
            if k.__class__ is not Token or k.kind != KEYWORD:
                raise self.error("expected a keyword", k)
            if i + 1 == n:
                raise self.error(f"missing value for {k.text}", k)
            if k.text not in _ALL_KEYWORDS:
                raise self.error(f"unknown keyword {k.text}", k)
            if k.text in kw:
                raise self.error(f"repeated keyword {k.text}", k)
            kw[k.text] = k, items[i + 1]
        _, r = kw.get(":rule", (None, None))
        if not _is_sym(r):
            raise self.error("step lacks a :rule", e)
        rule = r.text
        if rule not in RULES:
            raise self.error(f"unknown rule {rule}", r)
        if not kw.keys() <= _KEYWORDS[rule]:
            k = next(k for k, _ in kw.values() if k.text not in _KEYWORDS[rule])
            raise self.error(f"rule {rule} takes no {k.text}", k)
        premises = ()
        if ":premises" in kw:
            _, pe = kw[":premises"]
            if pe.__class__ is not SList or not all(
                    x.__class__ is Token and x.kind == SYMBOL for x in pe.items):
                raise self.error("expected a list of step ids", pe)
            premises = tuple([x.text for x in pe.items])
        theory = None
        if ":theory" in kw:
            _, te = kw[":theory"]
            if not _is_sym(te):
                raise self.error("expected a theory tag", te)
            theory = te.text
        if ":conclusion" not in kw:
            raise self.error("step lacks a :conclusion", e)
        _, ce = kw[":conclusion"]
        binding = ()
        if rule in LEMMA_RULES:
            move(self.scope, EMPTY, _named)  # closed terms
            if ":binding" in kw:
                _, be = kw[":binding"]
                if be.__class__ is not SList:
                    raise self.error("expected a binding list", be)
                bs = []
                for item in be.items:
                    if (item.__class__ is not SList or len(item.items) != 2
                            or not _is_sym(item.items[0])):
                        raise self.error("expected (<name> <term>)", item)
                    bs.append((item.items[0].text, self.term(item.items[1])[0]))
                binding = tuple(bs)
            conclusion, s = self.term(ce)
            if s is not BOOL:
                raise self.error("lemma formula must have sort Bool", ce)
        else:
            ctx = self.parse_context(kw.get(":context", (None, None))[1])
            if (ce.__class__ is not SList or len(ce.items) != 3
                    or not _is_sym(ce.items[0], "=")):
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
        word = e.items[0].text if _is_sym(e.items[0]) else None
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
