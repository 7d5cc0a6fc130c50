"""Reference script front end: the walk `hosmt.surface` made.

Before `elaborate.Elaborator` checked commands, terms and sorts itself,
`hosmt.surface` walked every command once to check its syntax and
rewrite it into canonical form, and the elaborator walked it again.  That
walk is kept unchanged as the reference the elaborator's syntax-only mode
is compared with, apart from imports, and as the front end of
`certreader_ref`.

`command_from_sexpr`, `sort_from_sexpr` and `term_from_sexpr` return their
argument itself when it is canonical; otherwise only the lists on the path
from a rewritten node to the root are rebuilt.  The rewrites and the
canonical shapes are those the `hosmt.elaborate` docstring states.
"""

from hosmt import sexpr
from hosmt.core import BINDER_WORDS
from hosmt.sexpr import KEYWORD, NUMERAL, SYMBOL, ParseError, SList, Token

from sexpr_ref import sexpr_pos


def _sym(e):
    return isinstance(e, Token) and e.kind == SYMBOL


def _expect_symbol(e, what, filename):
    if not _sym(e):
        line, col = sexpr_pos(e)
        raise ParseError(f"expected {what}", line, col, filename)
    return e.text


def _keep(e, items):
    """The list e when `items` are its own items, else a new list of them
    at e's position."""
    for old, new in zip(e.items, items):
        if old is not new:
            return SList(tuple(items), e.line, e.col)
    return e


# ---------------------------------------------------------------- sorts

def sort_from_sexpr(e, filename="<input>"):
    if _sym(e):
        return e
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
        return _keep(e, [head, *rest])
    name = _expect_symbol(head, "sort constructor", filename)
    if len(e.items) == 1:
        # tolerated: a parenthesized atomic sort such as (Int)
        return Token(SYMBOL, name, e.line, e.col)
    return _keep(e, [head, *(sort_from_sexpr(x, filename)
                             for x in e.items[1:])])


# ---------------------------------------------------------------- terms

def _parse_sorted_vars(e, filename):
    if not isinstance(e, SList) or not e.items:
        line, col = sexpr_pos(e)
        raise ParseError("expected a nonempty binder list", line, col, filename)
    binders = []
    seen = set()
    for b in e.items:
        if not isinstance(b, SList) or len(b.items) != 2:
            line, col = sexpr_pos(b)
            raise ParseError("expected (name sort)", line, col, filename)
        name = _expect_symbol(b.items[0], "binder name", filename)
        if name in seen:
            raise ParseError(f"duplicate binder {name}",
                             b.items[0].line, b.items[0].col, filename)
        seen.add(name)
        binders.append(_keep(b, (b.items[0],
                                 sort_from_sexpr(b.items[1], filename))))
    return _keep(e, binders)


def term_from_sexpr(e, filename="<input>"):
    if isinstance(e, Token):
        if e.kind == KEYWORD:
            raise ParseError(f"unexpected {e.kind} in term", e.line, e.col,
                             filename)
        return e
    items = e.items
    if not items:
        raise ParseError("empty application", e.line, e.col, filename)
    head = items[0]
    if _sym(head):
        word = head.text
        if word in BINDER_WORDS:
            if len(items) < 3:
                raise ParseError(f"{word} needs binders and a body",
                                 e.line, e.col, filename)
            binders = _parse_sorted_vars(items[1], filename)
            if len(items) == 3:
                return _keep(e, (head, binders,
                                 term_from_sexpr(items[2], filename)))
            if word == "lambda":
                # a multi-term lambda body `t1 t2 ... tn` is the term
                # (t1 t2 ... tn)
                body = SList(items[2:], e.line, e.col)
                return SList((head, binders, term_from_sexpr(body, filename)),
                             e.line, e.col)
            # plain loops here and below: a comprehension costs a second
            # call frame per nesting level
            for x in items[2:]:
                term_from_sexpr(x, filename)
            raise ParseError(f"{word} takes exactly one body term",
                             e.line, e.col, filename)
        if word == "let":
            if len(items) != 3:
                raise ParseError("let takes a binding list and one body",
                                 e.line, e.col, filename)
            blist = items[1]
            if not isinstance(blist, SList) or not blist.items:
                raise ParseError("expected a nonempty binding list",
                                 e.line, e.col, filename)
            bindings = []
            seen = set()
            for b in blist.items:
                if not isinstance(b, SList) or len(b.items) != 2:
                    line, col = sexpr_pos(b)
                    raise ParseError("expected (name term)", line, col, filename)
                name = _expect_symbol(b.items[0], "bound name", filename)
                if name in seen:
                    raise ParseError(f"duplicate let binding {name}",
                                     b.items[0].line, b.items[0].col, filename)
                seen.add(name)
                bindings.append(_keep(b, (b.items[0], term_from_sexpr(
                    b.items[1], filename))))
            return _keep(e, (head, _keep(blist, bindings),
                             term_from_sexpr(items[2], filename)))
        if word == "match":
            if len(items) != 3 or not isinstance(items[2], SList):
                raise ParseError("match takes a scrutinee and a case list",
                                 e.line, e.col, filename)
            scrut = term_from_sexpr(items[1], filename)
            cases = []
            for c in items[2].items:
                if not isinstance(c, SList) or len(c.items) != 2:
                    line, col = sexpr_pos(c)
                    raise ParseError("expected (pattern term)", line, col, filename)
                cases.append(_keep(c, (c.items[0],
                                       term_from_sexpr(c.items[1], filename))))
            if not cases:
                raise ParseError("match needs at least one case",
                                 e.line, e.col, filename)
            return _keep(e, (head, scrut, _keep(items[2], cases)))
        if word == "!":
            if len(items) < 3:
                raise ParseError("annotation needs a term and attributes",
                                 e.line, e.col, filename)
            term = term_from_sexpr(items[1], filename)
            keyword_due = True  # a value may follow a keyword, not a value
            for x in items[2:]:
                if isinstance(x, Token) and x.kind == KEYWORD:
                    keyword_due = False
                elif keyword_due:
                    line, col = sexpr_pos(x)
                    raise ParseError("expected a keyword attribute",
                                     line, col, filename)
                else:
                    keyword_due = True
            return _keep(e, (head, term, *items[2:]))
        if word == "as":
            if len(items) != 3:
                raise ParseError("as takes an identifier and a sort",
                                 e.line, e.col, filename)
            _expect_symbol(items[1], "identifier", filename)
            return _keep(e, (head, items[1],
                             sort_from_sexpr(items[2], filename)))
    # generalized application: any term may be applied
    terms = [term_from_sexpr(head, filename)]
    if len(items) < 2:
        raise ParseError("application needs at least one argument",
                         e.line, e.col, filename)
    for x in items[1:]:
        terms.append(term_from_sexpr(x, filename))
    return _keep(e, terms)


def parse_term(text, filename="<input>"):
    exprs = sexpr.parse_text(text, filename)
    if len(exprs) != 1:
        raise ParseError("expected exactly one term", 1, 1, filename)
    return term_from_sexpr(exprs[0], filename)


# -------------------------------------------------------------- commands

def command_from_sexpr(e, filename="<input>"):
    if not isinstance(e, SList) or not e.items or not _sym(e.items[0]):
        line, col = sexpr_pos(e)
        raise ParseError("expected a command", line, col, filename)
    items = e.items
    head = items[0]
    word = head.text
    if word == "set-logic":
        if len(items) != 2:
            raise ParseError("set-logic takes one symbol", e.line, e.col, filename)
        _expect_symbol(items[1], "logic name", filename)
        return e
    if word == "declare-sort":
        if len(items) != 3 or not (isinstance(items[2], Token)
                                   and items[2].kind == NUMERAL):
            raise ParseError("declare-sort takes a name and an arity",
                             e.line, e.col, filename)
        _expect_symbol(items[1], "sort name", filename)
        arity = items[2]
        try:
            digits = str(int(arity.text))  # leading zeros dropped
        except ValueError:  # past the interpreter's limit on digits
            raise ParseError("declare-sort arity has too many digits",
                             arity.line, arity.col, filename) from None
        return _keep(e, (head, items[1], arity if arity.text == digits else
                         Token(NUMERAL, digits, arity.line, arity.col)))
    if word == "declare-fun":
        if len(items) != 4 or not isinstance(items[2], SList):
            raise ParseError("declare-fun takes a name, argument sorts, and a result",
                             e.line, e.col, filename)
        _expect_symbol(items[1], "function name", filename)
        args = [sort_from_sexpr(x, filename) for x in items[2].items]
        return _keep(e, (head, items[1], _keep(items[2], args),
                         sort_from_sexpr(items[3], filename)))
    if word == "declare-const":
        if len(items) != 3:
            raise ParseError("declare-const takes a name and a sort",
                             e.line, e.col, filename)
        _expect_symbol(items[1], "constant name", filename)
        return SList((Token(SYMBOL, "declare-fun", head.line, head.col),
                      items[1], SList((), e.line, e.col),
                      sort_from_sexpr(items[2], filename)), e.line, e.col)
    if word == "define-fun":
        if len(items) != 5 or not isinstance(items[2], SList):
            raise ParseError("define-fun takes a name, parameters, a sort, and a body",
                             e.line, e.col, filename)
        _expect_symbol(items[1], "function name", filename)
        params = (_parse_sorted_vars(items[2], filename) if items[2].items
                  else items[2])
        return _keep(e, (head, items[1], params,
                         sort_from_sexpr(items[3], filename),
                         term_from_sexpr(items[4], filename)))
    if word == "assert":
        if len(items) != 2:
            raise ParseError("assert takes one term", e.line, e.col, filename)
        return _keep(e, (head, term_from_sexpr(items[1], filename)))
    if word == "exit" and len(items) != 1:
        raise ParseError("exit takes no arguments", e.line, e.col, filename)
    return e


def parse_script(text, filename="<input>"):
    """Parse a whole script; unknown commands are kept as they are."""
    return [command_from_sexpr(e, filename)
            for e in sexpr.parse_text(text, filename)]
