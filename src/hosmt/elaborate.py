"""The syntax of scripts and certificates, and elaboration of their terms
and sorts into core terms and sorts.

Scripts (`hosmt.typecheck`) and certificates (`hosmt.certreader`) write
commands, terms and sorts in one language over a `signature.Signature`,
and `Elaborator` is the one code that knows its syntax.  Its `term` turns
a term of the reader's tree into a core term and its sort in one walk,
which checks syntax and sorts as it goes, and its `command` checks a
command and applies it to the signature in the same walk.  Sorts are
small: each is checked, then elaborated.

With `elab` false, `command` and `term` check syntax alone, as
`check_sort` always does, and return the canonical tree: the argument
itself when it is canonical, otherwise a tree in which only the lists on
the path from a rewritten node to the root are new.  With `elab` None,
`term` checks syntax alone and builds no tree, for a caller that wants
none.  A parenthesized atomic sort `(S)` becomes the symbol `S`, and a
multi-term lambda body `t1 ... tn` the term `(t1 ... tn)`, read like any
other: a reserved word at its head begins that form.  `(declare-const c S)`
becomes `(declare-fun c () S)`, and a declare-sort arity loses its
leading zeros.  Each new node takes the position of the node it
replaces, and the inserted `()` that of its command.  `hosmt.surface`
parses and prints scripts in this form.

The canonical shapes (xi, f and C are symbols, n >= 1, and the xi of one
list are distinct):

    commands  (set-logic C) | (declare-sort C k), k a numeral without
              leading zeros | (declare-fun f (S1 ... Sn) R), n >= 0
              | (define-fun f ((x1 S1) ... (xn Sn)) R t), n >= 0
              | (assert t) | (exit)
              | (w e1 ... en), n >= 0, any other symbol w and
                s-expressions ei: kept as they are
    sorts     S | (-> S1 ... Sn R) | (C S1 ... Sn), C not ->
    terms     a numeral, decimal, string or symbol | (as f S)
              | (B ((x1 S1) ... (xn Sn)) t), B in BINDER_WORDS
              | (let ((x1 t1) ... (xn tn)) t)
              | (match t ((p1 t1) ... (pn tn))), any s-expressions pi
              | (! t k1 v1 ... kn vn), keywords ki, each vi a non-keyword
                s-expression or left out
              | (t0 t1 ... tn), t0 no reserved word: an application, or an
                equality when t0 is the symbol =

The two callers differ in three places:

- `var_for(name, sort)` makes each binder, `let` and define-fun variable:
  a fresh one, or in a certificate its one variable of that (name, sort);
- `arith` tells whether `signature.ARITH_SYMBOLS` are in scope: after a
  script's latest `set-logic` with integer arithmetic, and always in a
  certificate;
- `term_ref(name, at)` is asked first about each identifier that starts
  with `@`: only certificates give such names a meaning of their own.
"""

import operator

from .core import (BINDER_WORDS, BOOL, INT, REAL, App, Applied, Binder, Const,
                   Fun, Let, fresh_var, fun_sort, sort_str)
from .nodes import Scope
from .sexpr import DECIMAL, KEYWORD, NUMERAL, SYMBOL, ParseError, SList, Token
from .signature import Signature, SortError


# the words that begin a term form other than an application
_FORMS = frozenset((*BINDER_WORDS, "let", "match", "!", "as", "="))


def is_sym(e, text=None):
    return (e.__class__ is Token and e.kind == SYMBOL
            and (text is None or e.text == text))


def logic_has_arith(logic):
    """Whether the logic named `logic`, or None, puts the arithmetic
    symbols in scope: their sorts are over Int, so only a logic with
    integer arithmetic does."""
    return logic is not None and ("IA" in logic or "IRA" in logic
                                  or logic == "ALL")


def _keep(e, items):
    """The list e when `items` are its own items, else a new list of them
    at e's position."""
    if len(items) == len(e.items) and all(map(operator.is_, items, e.items)):
        return e
    return SList(tuple(items), e.line, e.col)


class Elaborator:
    """The signature `sig`, and `scope`, a `nodes.Scope` that maps names to
    the variables they mean: the binders of the term being elaborated and,
    below them, whatever the caller binds.  `consts` caches the (Const,
    sort) the signature gave a name: a caller that sets `arith` clears it.
    """

    arith = False
    var_for = staticmethod(fresh_var)

    def __init__(self, filename="<input>"):
        self.sig = Signature()
        self.filename = filename
        self.scope = Scope()
        self.consts = {}
        self.const_names = {"="}  # of every constant built so far

    def error(self, msg, e, kind):
        return kind(msg, e.line, e.col, self.filename)

    def symbol(self, e, what):
        if not is_sym(e):
            raise self.error(f"expected {what}", e, ParseError)
        return e.text

    def declare_fun(self, name, sort, at):
        """Declare the symbol `name` at the curried `sort`, where the
        command `at` stands."""
        self.sig.declare_fun(name, sort, (at.line, at.col), self.filename)
        # a declared symbol hides an arithmetic one of its name
        self.consts.pop(name, None)

    def expect(self, what, s, want, at):
        """Check that the body of `what`, at `at`, has the sort `want`."""
        if s is not want:
            raise self.error(f"{what} body has sort {sort_str(s)}, expected "
                             f"{sort_str(want)}", at, SortError)

    # ------------------------------------------------------------ sorts

    def check_sort(self, e):
        """The canonical tree of the sort e, once its syntax is checked."""
        if e.__class__ is Token:
            if e.kind != SYMBOL:
                raise self.error("expected a sort", e, ParseError)
            return e
        items = e.items
        if not items:
            raise self.error("empty sort", e, ParseError)
        arrow = is_sym(items[0], "->")
        if not arrow:
            name = self.symbol(items[0], "sort constructor")
            if len(items) == 1:
                # tolerated: a parenthesized atomic sort such as (Int)
                return Token(SYMBOL, name, e.line, e.col)
        out = [items[0]]
        for x in items[1:]:
            out.append(self.check_sort(x))
        if arrow and len(items) < 3:
            raise self.error("arrow sort needs at least two sorts", e,
                             ParseError)
        return _keep(e, out)

    def sort(self, e):
        """The core sort of a canonical sort, arrows curried."""
        if e.__class__ is Token:
            name, args = e.text, ()
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

    def binders(self, e, elab=True):
        """The binder list e, once its syntax is checked: its canonical
        tree when `elab` is False, otherwise, for `bind`, its (name,
        canonical sort) pairs."""
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
            sort = self.check_sort(b.items[1])
            out.append(_keep(b, (b.items[0], sort)) if elab is False
                       else (name, sort))
        return _keep(e, out) if elab is False else out

    def bind(self, binders):
        """Bind the names of `binders`' (name, canonical sort) pairs in
        `scope` to new variables, which are returned."""
        vs = [self.var_for(name, self.sort(s)) for name, s in binders]
        self.scope.bind((v.name, v) for v in vs)
        return vs

    # ------------------------------------------------------------ terms

    def term(self, e, elab=True):
        """(core term, sort) of the term e, or with `elab` false, its
        canonical tree once its syntax is checked, and with `elab` None,
        the syntax check alone."""
        if e.__class__ is Token:
            if e.kind == KEYWORD:
                raise self.error(f"unexpected {e.kind} in term", e, ParseError)
            if not elab:
                return e
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
            # plain loops here and below: a comprehension costs a second
            # call frame per nesting level
            out = [found]
            for a in items[1:]:
                out.append(self.term(a, elab))
            return None if elab is None else _keep(e, out)
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
        head, n = items[0], len(items)
        if word in BINDER_WORDS:
            if n < 3:
                raise self.error(f"{word} needs binders and a body", e,
                                 ParseError)
            binders = self.binders(items[1], elab)
            if n > 3 and word != "lambda":
                for x in items[2:]:
                    self.term(x, None)
                raise self.error(f"{word} takes exactly one body term", e,
                                 ParseError)
            # a multi-term lambda body t1 ... tn is the term (t1 ... tn)
            body = items[2] if n == 3 else SList(items[2:], e.line, e.col)
            if not elab:
                body = self.term(body, elab)
                return None if elab is None else _keep(e, (head, binders, body))
            # nested choices would make an outer eps body of the witness sort
            if word == "eps" and len(binders) != 1:
                raise self.error("eps takes exactly one variable", e, SortError)
            vs = self.bind(binders)
            body, s = self.term(body)
            self.scope.unbind()
            if word != "lambda":
                self.expect(word, s, BOOL, e)
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
                elif elab is not None:
                    pairs.append(_keep(b, (b.items[0], found)))
            if not elab:
                body = self.term(items[2], elab)
                return None if elab is None else _keep(
                    e, (head, _keep(items[1], pairs), body))
            self.scope.bind((v.name, v) for v, _ in pairs)
            body, s = self.term(items[2])
            self.scope.unbind()
            return Let(tuple(pairs), body), s
        if word == "match":
            if n != 3 or items[2].__class__ is not SList:
                raise self.error("match takes a scrutinee and a case list", e,
                                 ParseError)
            check = False if elab is False else None
            scrutinee = self.term(items[1], check)
            cases = []
            for c in items[2].items:
                if c.__class__ is not SList or len(c.items) != 2:
                    raise self.error("expected (pattern term)", c, ParseError)
                found = self.term(c.items[1], check)
                if check is not None:
                    cases.append(_keep(c, (c.items[0], found)))
            if not items[2].items:
                raise self.error("match needs at least one case", e, ParseError)
            if elab:
                raise self.error("unsupported construct: match", e, SortError)
            return None if elab is None else _keep(
                e, (head, scrutinee, _keep(items[2], cases)))
        if word == "!":
            # attributes are kept only in a script's canonical trees
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
            if elab is None:
                return None
            return found if elab else _keep(e, (head, found, *items[2:]))
        if word == "as":
            if n != 3:
                raise self.error("as takes an identifier and a sort", e,
                                 ParseError)
            name = self.symbol(items[1], "identifier")
            sort = self.check_sort(items[2])
            if elab is None:
                return None
            return (self.identifier(name, sort, e) if elab
                    else _keep(e, (head, items[1], sort)))
        # =, whose syntax is that of an application
        if n < 2:
            raise self.error("application needs at least one argument", e,
                             ParseError)
        if n != 3 or not elab:
            check = False if elab is False else None
            out = [head]
            for x in items[1:]:
                out.append(self.term(x, check))
            if elab:
                raise self.error("= takes exactly two arguments", e, SortError)
            return None if elab is None else _keep(e, out)
        lhs, ls = self.term(items[1])
        rhs, rs = self.term(items[2])
        if ls is not rs:
            raise self.error(f"equality between different sorts: "
                             f"{sort_str(ls)} and {sort_str(rs)}", e, SortError)
        return App(App(Const("=", Fun(ls, Fun(ls, BOOL))), lhs), rhs), BOOL

    def identifier(self, name, ascribed, at):
        """The symbol `name`, with the canonical sort `ascribed` or None,
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
                s = self.sig.lookup(name, self.arith)
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
        """The (node, sort) that the name `name`, which starts with `@`,
        denotes at its use `at`, or None to look it up as any other
        symbol."""
        return None

    # --------------------------------------------------------- commands

    def command(self, e, elab=True):
        """Check the command e.  With `elab` false, return its canonical
        tree.  With `elab`, apply it in the same walk and return None, or
        for an assert, the core term it asserts, which must have sort Bool:
        a declaration or definition adds to `sig`, and set-logic sets
        `arith`."""
        if e.__class__ is not SList or not e.items or not is_sym(e.items[0]):
            raise self.error("expected a command", e, ParseError)
        items = e.items
        head, n = items[0], len(items)
        word = head.text
        if word == "assert":
            if n != 2:
                raise self.error("assert takes one term", e, ParseError)
            if not elab:
                return _keep(e, (head, self.term(items[1], False)))
            term, s = self.term(items[1])
            self.expect("assert", s, BOOL, e)
            return term
        if word == "set-logic":
            if n != 2:
                raise self.error("set-logic takes one symbol", e, ParseError)
            logic = self.symbol(items[1], "logic name")
            if elab:
                self.arith = logic_has_arith(logic)
                self.consts.clear()  # the arithmetic symbols came or went
        elif word == "declare-sort":
            if n != 3 or not (items[2].__class__ is Token
                              and items[2].kind == NUMERAL):
                raise self.error("declare-sort takes a name and an arity", e,
                                 ParseError)
            name = self.symbol(items[1], "sort name")
            arity = items[2]
            try:
                k = int(arity.text)
            except ValueError:  # past the interpreter's limit on digits
                raise self.error("declare-sort arity has too many digits",
                                 arity, ParseError) from None
            if elab:
                self.sig.declare_sort(name, k, (e.line, e.col), self.filename)
            elif str(k) != arity.text:  # leading zeros dropped
                e = SList((head, items[1],
                           Token(NUMERAL, str(k), arity.line, arity.col)),
                          e.line, e.col)
        elif word in ("declare-fun", "declare-const"):
            const = word == "declare-const"
            if const and n != 3:
                raise self.error("declare-const takes a name and a sort", e,
                                 ParseError)
            if not const and (n != 4 or items[2].__class__ is not SList):
                raise self.error("declare-fun takes a name, argument sorts, "
                                 "and a result", e, ParseError)
            name = self.symbol(items[1], "constant name" if const
                               else "function name")
            args = [self.check_sort(s) for s in
                    (() if const else items[2].items)]
            result = self.check_sort(items[-1])
            if elab:
                self.declare_fun(name, fun_sort([self.sort(a) for a in args],
                                                self.sort(result)), e)
            elif const:
                e = SList((Token(SYMBOL, "declare-fun", head.line, head.col),
                           items[1], SList((), e.line, e.col), result),
                          e.line, e.col)
            else:
                e = _keep(e, (head, items[1], _keep(items[2], args), result))
        elif word == "define-fun":
            if n != 5 or items[2].__class__ is not SList:
                raise self.error("define-fun takes a name, parameters, a "
                                 "sort, and a body", e, ParseError)
            name = self.symbol(items[1], "function name")
            if items[2].items:
                params = self.binders(items[2], elab)
            else:
                params = () if elab else items[2]
            result = self.check_sort(items[3])
            if not elab:
                return _keep(e, (head, items[1], params, result,
                                 self.term(items[4], False)))
            vs = self.bind(params)
            _, s = self.term(items[4])
            self.scope.unbind()
            declared = self.sort(result)
            self.expect("define-fun", s, declared, e)
            self.declare_fun(name, fun_sort([v.sort for v in vs], declared), e)
        elif word == "exit" and n != 1:
            raise self.error("exit takes no arguments", e, ParseError)
        return None if elab else e
