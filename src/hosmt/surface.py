"""Frontend for the extended SMT-LIB concrete syntax.

Parses scripts into commands and surface terms, and prints them back in a
canonical single-space form that reparses to an identical AST.  The sort
grammar admits arrow sorts `(-> S1 ... Sn R)` and applications may have any
term in head position.
"""

from . import sexpr
from .nodes import Record
from .sexpr import (KEYWORD, NUMERAL, DECIMAL, STRING, SYMBOL,
                    ParseError, SList, Token, quote)


# ---------------------------------------------------------------- sorts

class SIdent(Record):
    __slots__ = ("name", "pos")

    def __init__(self, name, pos=(0, 0)):
        self.name = name
        self.pos = pos


class SParam(Record):
    # args: nonempty
    __slots__ = ("name", "args", "pos")

    def __init__(self, name, args, pos=(0, 0)):
        self.name = name
        self.args = args
        self.pos = pos


class SArrow(Record):
    # args: nonempty
    __slots__ = ("args", "result", "pos")

    def __init__(self, args, result, pos=(0, 0)):
        self.args = args
        self.result = result
        self.pos = pos


# ---------------------------------------------------------------- terms

class SLit(Record):
    # kind: "numeral" | "decimal" | "string"
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos=(0, 0)):
        self.kind = kind
        self.text = text
        self.pos = pos


class SId(Record):
    # ascribed: sort from (as f S), or None
    __slots__ = ("name", "ascribed", "pos")

    def __init__(self, name, ascribed=None, pos=(0, 0)):
        self.name = name
        self.ascribed = ascribed
        self.pos = pos


class SApply(Record):
    # args: nonempty
    __slots__ = ("head", "args", "pos")

    def __init__(self, head, args, pos=(0, 0)):
        self.head = head
        self.args = args
        self.pos = pos


class SBinder(Record):
    # kind: "lambda" | "forall" | "exists" | "eps"
    # binders: ((name, sort), ...), nonempty, names distinct
    __slots__ = ("kind", "binders", "body", "pos")

    def __init__(self, kind, binders, body, pos=(0, 0)):
        self.kind = kind
        self.binders = binders
        self.body = body
        self.pos = pos


class SLet(Record):
    # bindings: ((name, term), ...), nonempty, names distinct
    __slots__ = ("bindings", "body", "pos")

    def __init__(self, bindings, body, pos=(0, 0)):
        self.bindings = bindings
        self.body = body
        self.pos = pos


class SMatch(Record):
    # cases: ((pattern-sexpr-as-string, term), ...)
    __slots__ = ("scrutinee", "cases", "pos")

    def __init__(self, scrutinee, cases, pos=(0, 0)):
        self.scrutinee = scrutinee
        self.cases = cases
        self.pos = pos


class SAnnot(Record):
    # attributes: ((keyword, value-string-or-None), ...)
    __slots__ = ("term", "attributes", "pos")

    def __init__(self, term, attributes, pos=(0, 0)):
        self.term = term
        self.attributes = attributes
        self.pos = pos


# -------------------------------------------------------------- commands

class CSetLogic(Record):
    __slots__ = ("name", "pos")

    def __init__(self, name, pos=(0, 0)):
        self.name = name
        self.pos = pos


class CDeclareSort(Record):
    __slots__ = ("name", "arity", "pos")

    def __init__(self, name, arity, pos=(0, 0)):
        self.name = name
        self.arity = arity
        self.pos = pos


class CDeclareFun(Record):
    # arg_sorts: may be empty
    __slots__ = ("name", "arg_sorts", "result", "pos")

    def __init__(self, name, arg_sorts, result, pos=(0, 0)):
        self.name = name
        self.arg_sorts = arg_sorts
        self.result = result
        self.pos = pos


class CDefineFun(Record):
    # params: ((name, sort), ...)
    __slots__ = ("name", "params", "result", "body", "pos")

    def __init__(self, name, params, result, body, pos=(0, 0)):
        self.name = name
        self.params = params
        self.result = result
        self.body = body
        self.pos = pos


class CAssert(Record):
    __slots__ = ("term", "pos")

    def __init__(self, term, pos=(0, 0)):
        self.term = term
        self.pos = pos


class CExit(Record):
    __slots__ = ("pos",)

    def __init__(self, pos=(0, 0)):
        self.pos = pos


class CUnknown(Record):
    # text: verbatim canonical s-expression, preserved for round-trips
    __slots__ = ("text", "pos")

    def __init__(self, text, pos=(0, 0)):
        self.text = text
        self.pos = pos


BINDER_WORDS = ("lambda", "forall", "exists", "eps")


def _sym(e):
    return isinstance(e, Token) and e.kind == SYMBOL


def _expect_symbol(e, what, filename):
    if not _sym(e):
        line, col = sexpr.sexpr_pos(e)
        raise ParseError(f"expected {what}", line, col, filename)
    return e.text


# ---------------------------------------------------------------- sorts

def sort_from_sexpr(e, filename="<input>"):
    if _sym(e):
        return SIdent(e.text, pos=(e.line, e.col))
    if isinstance(e, Token):
        raise ParseError("expected a sort", e.line, e.col, filename)
    if not e.items:
        raise ParseError("empty sort", e.line, e.col, filename)
    head = e.items[0]
    if _sym(head) and head.text == "->":
        rest = [sort_from_sexpr(x, filename) for x in e.items[1:]]
        if len(rest) < 2:
            raise ParseError("arrow sort needs at least two sorts",
                             e.line, e.col, filename)
        return SArrow(tuple(rest[:-1]), rest[-1], pos=(e.line, e.col))
    name = _expect_symbol(head, "sort constructor", filename)
    args = tuple(sort_from_sexpr(x, filename) for x in e.items[1:])
    if not args:
        # tolerated: a parenthesized atomic sort such as (Int)
        return SIdent(name, pos=(e.line, e.col))
    return SParam(name, args, pos=(e.line, e.col))


def parse_sort(text, filename="<input>"):
    exprs = sexpr.parse_text(text, filename)
    if len(exprs) != 1:
        raise ParseError("expected exactly one sort", 1, 1, filename)
    return sort_from_sexpr(exprs[0], filename)


# ---------------------------------------------------------------- terms

def _parse_sorted_vars(e, filename):
    if not isinstance(e, SList) or not e.items:
        line, col = sexpr.sexpr_pos(e)
        raise ParseError("expected a nonempty binder list", line, col, filename)
    binders = []
    seen = set()
    for b in e.items:
        if not isinstance(b, SList) or len(b.items) != 2:
            line, col = sexpr.sexpr_pos(b)
            raise ParseError("expected (name sort)", line, col, filename)
        name = _expect_symbol(b.items[0], "binder name", filename)
        if name in seen:
            raise ParseError(f"duplicate binder {name}",
                             b.items[0].line, b.items[0].col, filename)
        seen.add(name)
        binders.append((name, sort_from_sexpr(b.items[1], filename)))
    return tuple(binders)


def term_from_sexpr(e, filename="<input>"):
    if isinstance(e, Token):
        if e.kind in (NUMERAL, DECIMAL, STRING):
            return SLit(e.kind, e.text, pos=(e.line, e.col))
        if e.kind == SYMBOL:
            return SId(e.text, pos=(e.line, e.col))
        raise ParseError(f"unexpected {e.kind} in term", e.line, e.col, filename)
    if not e.items:
        raise ParseError("empty application", e.line, e.col, filename)
    pos = (e.line, e.col)
    head = e.items[0]
    if _sym(head):
        word = head.text
        if word in BINDER_WORDS:
            if len(e.items) < 3:
                raise ParseError(f"{word} needs binders and a body",
                                 e.line, e.col, filename)
            binders = _parse_sorted_vars(e.items[1], filename)
            # plain loops here and below: a comprehension costs a second
            # call frame per nesting level
            body_terms = []
            for x in e.items[2:]:
                body_terms.append(term_from_sexpr(x, filename))
            if word != "lambda" and len(body_terms) != 1:
                raise ParseError(f"{word} takes exactly one body term",
                                 e.line, e.col, filename)
            # a multi-term lambda body `t1 t2 ... tn` is the application (t1 t2 ... tn)
            body = (body_terms[0] if len(body_terms) == 1
                    else SApply(body_terms[0], tuple(body_terms[1:]), pos=pos))
            return SBinder(word, binders, body, pos=pos)
        if word == "let":
            if len(e.items) != 3:
                raise ParseError("let takes a binding list and one body",
                                 e.line, e.col, filename)
            blist = e.items[1]
            if not isinstance(blist, SList) or not blist.items:
                raise ParseError("expected a nonempty binding list",
                                 e.line, e.col, filename)
            bindings = []
            seen = set()
            for b in blist.items:
                if not isinstance(b, SList) or len(b.items) != 2:
                    line, col = sexpr.sexpr_pos(b)
                    raise ParseError("expected (name term)", line, col, filename)
                name = _expect_symbol(b.items[0], "bound name", filename)
                if name in seen:
                    raise ParseError(f"duplicate let binding {name}",
                                     b.items[0].line, b.items[0].col, filename)
                seen.add(name)
                bindings.append((name, term_from_sexpr(b.items[1], filename)))
            return SLet(tuple(bindings), term_from_sexpr(e.items[2], filename), pos=pos)
        if word == "match":
            if len(e.items) != 3 or not isinstance(e.items[2], SList):
                raise ParseError("match takes a scrutinee and a case list",
                                 e.line, e.col, filename)
            scrut = term_from_sexpr(e.items[1], filename)
            cases = []
            for c in e.items[2].items:
                if not isinstance(c, SList) or len(c.items) != 2:
                    line, col = sexpr.sexpr_pos(c)
                    raise ParseError("expected (pattern term)", line, col, filename)
                cases.append((sexpr.sexpr_to_str(c.items[0]),
                              term_from_sexpr(c.items[1], filename)))
            if not cases:
                raise ParseError("match needs at least one case",
                                 e.line, e.col, filename)
            return SMatch(scrut, tuple(cases), pos=pos)
        if word == "!":
            if len(e.items) < 3:
                raise ParseError("annotation needs a term and attributes",
                                 e.line, e.col, filename)
            term = term_from_sexpr(e.items[1], filename)
            attrs = []
            i = 2
            while i < len(e.items):
                k = e.items[i]
                if not (isinstance(k, Token) and k.kind == KEYWORD):
                    line, col = sexpr.sexpr_pos(k)
                    raise ParseError("expected a keyword attribute", line, col, filename)
                value = None
                if i + 1 < len(e.items) and not (
                        isinstance(e.items[i + 1], Token)
                        and e.items[i + 1].kind == KEYWORD):
                    value = sexpr.sexpr_to_str(e.items[i + 1])
                    i += 1
                attrs.append((k.text, value))
                i += 1
            return SAnnot(term, tuple(attrs), pos=pos)
        if word == "as":
            if len(e.items) != 3:
                raise ParseError("as takes an identifier and a sort",
                                 e.line, e.col, filename)
            name = _expect_symbol(e.items[1], "identifier", filename)
            return SId(name, ascribed=sort_from_sexpr(e.items[2], filename), pos=pos)
    # generalized application: any term may be applied
    head_term = term_from_sexpr(head, filename)
    if len(e.items) < 2:
        raise ParseError("application needs at least one argument",
                         e.line, e.col, filename)
    args = []
    for x in e.items[1:]:
        args.append(term_from_sexpr(x, filename))
    return SApply(head_term, tuple(args), pos=pos)


def parse_term(text, filename="<input>"):
    exprs = sexpr.parse_text(text, filename)
    if len(exprs) != 1:
        raise ParseError("expected exactly one term", 1, 1, filename)
    return term_from_sexpr(exprs[0], filename)


# -------------------------------------------------------------- commands

def command_from_sexpr(e, filename="<input>"):
    if not isinstance(e, SList) or not e.items or not _sym(e.items[0]):
        line, col = sexpr.sexpr_pos(e)
        raise ParseError("expected a command", line, col, filename)
    pos = (e.line, e.col)
    word = e.items[0].text
    items = e.items
    if word == "set-logic":
        if len(items) != 2:
            raise ParseError("set-logic takes one symbol", e.line, e.col, filename)
        return CSetLogic(_expect_symbol(items[1], "logic name", filename), pos=pos)
    if word == "declare-sort":
        if len(items) != 3 or not (isinstance(items[2], Token)
                                   and items[2].kind == NUMERAL):
            raise ParseError("declare-sort takes a name and an arity",
                             e.line, e.col, filename)
        return CDeclareSort(_expect_symbol(items[1], "sort name", filename),
                            int(items[2].text), pos=pos)
    if word == "declare-fun":
        if len(items) != 4 or not isinstance(items[2], SList):
            raise ParseError("declare-fun takes a name, argument sorts, and a result",
                             e.line, e.col, filename)
        name = _expect_symbol(items[1], "function name", filename)
        args = tuple(sort_from_sexpr(x, filename) for x in items[2].items)
        return CDeclareFun(name, args, sort_from_sexpr(items[3], filename), pos=pos)
    if word == "declare-const":
        if len(items) != 3:
            raise ParseError("declare-const takes a name and a sort",
                             e.line, e.col, filename)
        name = _expect_symbol(items[1], "constant name", filename)
        return CDeclareFun(name, (), sort_from_sexpr(items[2], filename), pos=pos)
    if word == "define-fun":
        if len(items) != 5 or not isinstance(items[2], SList):
            raise ParseError("define-fun takes a name, parameters, a sort, and a body",
                             e.line, e.col, filename)
        name = _expect_symbol(items[1], "function name", filename)
        params = (_parse_sorted_vars(items[2], filename) if items[2].items else ())
        return CDefineFun(name, params, sort_from_sexpr(items[3], filename),
                          term_from_sexpr(items[4], filename), pos=pos)
    if word == "assert":
        if len(items) != 2:
            raise ParseError("assert takes one term", e.line, e.col, filename)
        return CAssert(term_from_sexpr(items[1], filename), pos=pos)
    if word == "exit":
        if len(items) != 1:
            raise ParseError("exit takes no arguments", e.line, e.col, filename)
        return CExit(pos=pos)
    return CUnknown(sexpr.sexpr_to_str(e), pos=pos)


def parse_script(text, filename="<input>"):
    """Parse a whole script; unknown commands are preserved verbatim."""
    return [command_from_sexpr(e, filename)
            for e in sexpr.parse_text(text, filename)]


# ------------------------------------------------------------- printing

def print_sort(s):
    if isinstance(s, SIdent):
        return quote(s.name)
    if isinstance(s, SParam):
        return "(" + " ".join([quote(s.name)] + [print_sort(a) for a in s.args]) + ")"
    return ("(-> " + " ".join(print_sort(a) for a in s.args)
            + " " + print_sort(s.result) + ")")


def print_term(t):
    if isinstance(t, SLit):
        if t.kind == "string":
            return '"' + t.text.replace('"', '""') + '"'
        return t.text
    if isinstance(t, SId):
        if t.ascribed is not None:
            return f"(as {quote(t.name)} {print_sort(t.ascribed)})"
        return quote(t.name)
    if isinstance(t, SApply):
        parts = [print_term(t.head)]
        for a in t.args:  # not a comprehension: one call frame per level
            parts.append(print_term(a))
        return "(" + " ".join(parts) + ")"
    if isinstance(t, SBinder):
        bs = " ".join(f"({quote(n)} {print_sort(s)})" for n, s in t.binders)
        return f"({t.kind} ({bs}) {print_term(t.body)})"
    if isinstance(t, SLet):
        bs = " ".join(f"({quote(n)} {print_term(v)})" for n, v in t.bindings)
        return f"(let ({bs}) {print_term(t.body)})"
    if isinstance(t, SMatch):
        cs = " ".join(f"({p} {print_term(b)})" for p, b in t.cases)
        return f"(match {print_term(t.scrutinee)} ({cs}))"
    if isinstance(t, SAnnot):
        parts = [print_term(t.term)]
        for k, v in t.attributes:
            parts.append(k)
            if v is not None:
                parts.append(v)
        return "(! " + " ".join(parts) + ")"
    raise TypeError(f"not a surface term: {t!r}")


def print_command(c):
    if isinstance(c, CSetLogic):
        return f"(set-logic {quote(c.name)})"
    if isinstance(c, CDeclareSort):
        return f"(declare-sort {quote(c.name)} {c.arity})"
    if isinstance(c, CDeclareFun):
        args = " ".join(print_sort(s) for s in c.arg_sorts)
        return f"(declare-fun {quote(c.name)} ({args}) {print_sort(c.result)})"
    if isinstance(c, CDefineFun):
        ps = " ".join(f"({quote(n)} {print_sort(s)})" for n, s in c.params)
        return (f"(define-fun {quote(c.name)} ({ps}) {print_sort(c.result)} "
                f"{print_term(c.body)})")
    if isinstance(c, CAssert):
        return f"(assert {print_term(c.term)})"
    if isinstance(c, CExit):
        return "(exit)"
    if isinstance(c, CUnknown):
        return c.text
    raise TypeError(f"not a command: {c!r}")


def print_script(cmds):
    return "\n".join(print_command(c) for c in cmds) + "\n"
