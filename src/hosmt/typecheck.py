"""Well-sortedness and elaboration of script terms into core.

Declarations are normalized to fully curried sorts and kept in a
`signature.Signature`, so the three spellings of a binary function declaration
coincide; partial application is then well-typed for every symbol.
Elaboration and sort inference happen in one pass over the canonical
surface terms of `hosmt.surface`.  Certificates are read by
`hosmt.certreader`, which does not use this module.  Core terms print
through `hosmt.certprinter`.
"""

from . import core, surface
from .core import (BINDER_WORDS, Applied, BOOL, Binder, Const, Fun, INT, REAL,
                   Let, fresh_var, fun_sort, sort_str)
from .nodes import Record, Scope
from .sexpr import DECIMAL, NUMERAL, SYMBOL, Token
from .signature import Signature, SortError


def logic_has_arith(logic):
    return logic is not None and ("IA" in logic or "RA" in logic or logic == "ALL")


class TypingEnv:
    """A signature plus `scope`, which maps the names of the local binder
    variables to them (a `nodes.Scope`).  Each binder and let variable is
    a fresh one."""

    def __init__(self, signature, arith=False, filename="<input>"):
        self.signature = signature
        self.arith = arith
        self.filename = filename
        self.scope = Scope()


def normalize_sort(s, signature, filename="<input>"):
    """Canonical surface sort (`hosmt.surface`) to core sort, arrows fully
    curried right-associated."""
    if isinstance(s, Token):
        arity = signature.sorts.get(s.text)
        if arity is None:
            raise SortError(f"unknown sort {s.text}", s.line, s.col, filename)
        if arity != 0:
            raise SortError(f"sort {s.text} expects arguments",
                            s.line, s.col, filename)
        return Applied(s.text, ())
    head, *args = s.items
    name = head.text
    if name == "->":
        return fun_sort([normalize_sort(a, signature, filename)
                         for a in args[:-1]],
                        normalize_sort(args[-1], signature, filename))
    arity = signature.sorts.get(name)
    if arity is None:
        raise SortError(f"unknown sort {name}", s.line, s.col, filename)
    if arity != len(args):
        raise SortError(f"sort {name} expects {arity} arguments",
                        s.line, s.col, filename)
    return Applied(name, tuple(normalize_sort(a, signature, filename)
                               for a in args))


def normalize_decl(arg_sorts, result, signature=None, filename="<input>"):
    """Curried sort of a declaration: `f (A B) R` becomes A -> (B -> R')."""
    signature = signature if signature is not None else Signature()
    args = [normalize_sort(a, signature, filename) for a in arg_sorts]
    return fun_sort(args, normalize_sort(result, signature, filename))


def _identifier(env, name, ascribed, at):
    """The symbol `name`, with the sort `ascribed` or None, at the token or
    list `at`: (core term, sort)."""
    f = env.filename
    if name == "=":
        # = is polymorphic: a bare or partially applied occurrence
        # needs an ascription (as = (-> S S Bool)) naming its instance
        if ascribed is None:
            raise SortError("cannot infer a sort for bare =", at.line, at.col, f)
        s = normalize_sort(ascribed, env.signature, f)
        if not (isinstance(s, Fun) and isinstance(s.cod, Fun)
                and s.cod.cod == BOOL and s.dom == s.cod.dom):
            raise SortError("= must be ascribed a sort (-> S S Bool)",
                            at.line, at.col, f)
        return Const("=", s), s
    v = env.scope.get(name)
    if v is not None:
        result, s = v, v.sort
    else:
        s = env.signature.lookup(name, env.arith)
        if s is None:
            raise SortError(f"unbound symbol {name}", at.line, at.col, f)
        result = Const(name, s)
    if ascribed is not None:
        asc = normalize_sort(ascribed, env.signature, f)
        if asc != s:
            raise SortError(
                f"sort ascription mismatch: expected {sort_str(asc)}, "
                f"found {sort_str(s)}", at.line, at.col, f)
    return result, s


def infer_sort(env, t):
    """Elaborate a canonical surface term (`hosmt.surface`) to core,
    returning (core term, sort)."""
    f = env.filename
    if isinstance(t, Token):
        if t.kind == SYMBOL:
            return _identifier(env, t.text, None, t)
        if t.kind == NUMERAL:
            return Const(t.text, INT), INT
        if t.kind == DECIMAL:
            return Const(t.text, REAL), REAL
        raise SortError("string literals have no sort here", t.line, t.col, f)
    items = t.items
    head = items[0]
    word = (head.text if isinstance(head, Token) and head.kind == SYMBOL
            else None)
    if word == "as":
        return _identifier(env, items[1].text, items[2], t)
    if word in BINDER_WORDS:
        # nested choices would make an outer eps body of the witness sort
        if word == "eps" and len(items[1].items) != 1:
            raise SortError("eps takes exactly one variable", t.line, t.col, f)
        vars_ = [fresh_var(b.items[0].text,
                           normalize_sort(b.items[1], env.signature, f))
                 for b in items[1].items]
        env.scope.bind((v.name, v) for v in vars_)
        try:
            body, bs = infer_sort(env, items[2])
        finally:
            env.scope.unbind()
        if word != "lambda" and bs != BOOL:
            raise SortError(f"{word} body has sort {sort_str(bs)}, expected "
                            "Bool", t.line, t.col, f)
        for v in reversed(vars_):
            body = Binder(word, v, body)
            # eps: the sort of the chosen witness
            bs = (Fun(v.sort, bs) if word == "lambda"
                  else v.sort if word == "eps" else BOOL)
        return body, bs
    if word == "let":
        pairs = []
        for b in items[1].items:
            cimg, s = infer_sort(env, b.items[1])
            pairs.append((fresh_var(b.items[0].text, s), cimg))
        env.scope.bind((v.name, v) for v, _ in pairs)
        try:
            body, bs = infer_sort(env, items[2])
        finally:
            env.scope.unbind()
        return Let(tuple(pairs), body), bs
    if word == "match":
        raise SortError("unsupported construct: match", t.line, t.col, f)
    if word == "!":
        # attributes are preserved only at the surface level
        return infer_sort(env, items[1])
    if word == "=":
        if len(items) != 3:
            raise SortError("= takes exactly two arguments", t.line, t.col, f)
        lhs, ls = infer_sort(env, items[1])
        rhs, rs = infer_sort(env, items[2])
        if ls != rs:
            raise SortError(
                f"equality between different sorts: {sort_str(ls)} "
                f"and {sort_str(rs)}", t.line, t.col, f)
        return core.eq_term(lhs, rhs), BOOL
    fn, hs = infer_sort(env, head)
    for a in items[1:]:
        arg, as_ = infer_sort(env, a)
        if not isinstance(hs, Fun):
            raise SortError(
                f"applying a term of non-functional sort {sort_str(hs)}",
                t.line, t.col, f)
        if hs.dom != as_:
            raise SortError(
                f"argument sort mismatch: expected {sort_str(hs.dom)}, "
                f"found {sort_str(as_)}", a.line, a.col, f)
        fn, hs = core.App(fn, arg), hs.cod
    return fn, hs


class CheckedScript(Record):
    __slots__ = ("signature", "asserts")

    def __init__(self, signature, asserts):
        self.signature = signature
        self.asserts = asserts  # core terms of sort Bool


def declare(sig, cmd, filename="<input>"):
    """Add the canonical (declare-sort ...) or (declare-fun ...) command
    `cmd` to the signature `sig`."""
    word, name, args, *result = cmd.items
    pos = (cmd.line, cmd.col)
    if word.text == "declare-sort":
        sig.declare_sort(name.text, int(args.text), pos, filename)
    else:
        sort = normalize_decl(args.items, result[0], sig, filename)
        sig.declare_fun(name.text, sort, pos, filename)


def check_script(cmds, filename="<input>"):
    """Process the canonical commands (`hosmt.surface`) in order, and
    elaborate every assert to Bool."""
    sig = Signature()
    logic = None
    asserts = []
    for c in cmds:
        word = c.items[0].text
        if word == "set-logic":
            logic = c.items[1].text
        elif word in ("declare-sort", "declare-fun"):
            declare(sig, c, filename)
        elif word == "define-fun":
            _, name, params, result, body = c.items
            env = TypingEnv(sig, logic_has_arith(logic), filename)
            vars_ = [fresh_var(p.items[0].text,
                               normalize_sort(p.items[1], sig, filename))
                     for p in params.items]
            env.scope.bind((v.name, v) for v in vars_)
            _, bs = infer_sort(env, body)
            declared = normalize_sort(result, sig, filename)
            if bs != declared:
                raise SortError(
                    f"define-fun body has sort {sort_str(bs)}, expected "
                    f"{sort_str(declared)}", c.line, c.col, filename)
            sort = fun_sort([v.sort for v in vars_], declared)
            sig.declare_fun(name.text, sort, (c.line, c.col), filename)
        elif word == "assert":
            env = TypingEnv(sig, logic_has_arith(logic), filename)
            term, s = infer_sort(env, c.items[1])
            if s != BOOL:
                raise SortError(
                    f"assert body has sort {sort_str(s)}, expected Bool",
                    c.line, c.col, filename)
            asserts.append(term)
    return CheckedScript(sig, asserts)


# ------------------------------------------------------- core -> surface

def erase(t):
    """Core term back to a surface term that re-elaborates to it: the parse
    of its printed text."""
    from . import certprinter

    return surface.parse_term(certprinter.print_term(t))
