"""Signatures, well-sortedness, and elaboration of surface terms into core.

Declarations are normalized to fully curried sorts, so the three spellings
of a binary function declaration coincide; partial application is then
well-typed for every symbol.  Elaboration and sort inference happen in one
pass.  Core terms print through `hosmt.certprinter`.
"""

from . import core, surface
from .core import (Applied, Atom, BOOL, Const, Fun, INT, REAL,
                   Lam, Let, Quant, fresh_var, fun_sort, sort_str)
from .nodes import Record, Scope
from .sexpr import SourceError
from .surface import (CAssert, CDeclareFun, CDeclareSort, CDefineFun, CExit,
                      CSetLogic, CUnknown, SAnnot, SApply, SArrow, SBinder,
                      SId, SIdent, SLet, SLit, SMatch, SParam)


class SortError(SourceError):
    pass


BUILTIN_SORTS = {"Bool": 0, "Int": 0, "Real": 0}

_B2 = Fun(BOOL, Fun(BOOL, BOOL))
CORE_SYMBOLS = {
    "true": BOOL,
    "false": BOOL,
    "not": Fun(BOOL, BOOL),
    "and": _B2,
    "or": _B2,
    "xor": _B2,
    "=>": _B2,
}

_I2I = Fun(INT, Fun(INT, INT))
_I2B = Fun(INT, Fun(INT, BOOL))
ARITH_SYMBOLS = {
    "+": _I2I, "-": _I2I, "*": _I2I,
    "<=": _I2B, "<": _I2B, ">=": _I2B, ">": _I2B,
}


def logic_has_arith(logic):
    return logic is not None and ("IA" in logic or "RA" in logic or logic == "ALL")


class Signature(Record):
    """Declared symbols and sort names.  Symbols map to curried core sorts."""

    __slots__ = ("symbols", "sorts")

    def __init__(self, symbols=None, sorts=None):
        self.symbols = {} if symbols is None else symbols
        self.sorts = dict(BUILTIN_SORTS) if sorts is None else sorts

    def copy(self):
        return Signature(dict(self.symbols), dict(self.sorts))

    def declare_sort(self, name, arity, pos=(0, 0), filename="<input>"):
        if name in self.sorts:
            raise SortError(f"sort {name} declared twice", *pos, filename)
        self.sorts[name] = arity

    def declare_fun(self, name, sort, pos=(0, 0), filename="<input>"):
        if name in self.symbols or name in CORE_SYMBOLS:
            raise SortError(f"symbol {name} declared twice", *pos, filename)
        self.symbols[name] = sort

    def lookup(self, name, arith=False):
        if name in self.symbols:
            return self.symbols[name]
        if name in CORE_SYMBOLS:
            return CORE_SYMBOLS[name]
        if arith and name in ARITH_SYMBOLS:
            return ARITH_SYMBOLS[name]
        return None


class TypingEnv:
    """A signature plus `scope`, which maps the names of the local binder
    variables to them (a `nodes.Scope`).

    Two hooks let a reader change how names are elaborated: `make_var(name,
    sort)` makes each binder and let variable (a fresh one by default), and
    `lookup_ref(env, sid)`, when set, is asked first about every identifier
    that starts with `@`; it returns (term, sort), or None to look the name
    up as usual.
    """

    def __init__(self, signature, arith=False, filename="<input>",
                 make_var=fresh_var, lookup_ref=None):
        self.signature = signature
        self.arith = arith
        self.filename = filename
        self.scope = Scope()
        self.make_var = make_var
        self.lookup_ref = lookup_ref


def normalize_sort(s, signature, filename="<input>"):
    """Surface sort to core sort, arrows fully curried right-associated."""
    if isinstance(s, SIdent):
        if s.name not in signature.sorts:
            raise SortError(f"unknown sort {s.name}", *s.pos, filename)
        if signature.sorts[s.name] != 0:
            raise SortError(f"sort {s.name} expects arguments", *s.pos, filename)
        return Atom(s.name)
    if isinstance(s, SParam):
        arity = signature.sorts.get(s.name)
        if arity is None:
            raise SortError(f"unknown sort {s.name}", *s.pos, filename)
        if arity != len(s.args):
            raise SortError(f"sort {s.name} expects {arity} arguments", *s.pos, filename)
        return Applied(s.name, tuple(normalize_sort(a, signature, filename)
                                     for a in s.args))
    if isinstance(s, SArrow):
        args = [normalize_sort(a, signature, filename) for a in s.args]
        return fun_sort(args, normalize_sort(s.result, signature, filename))
    raise TypeError(f"not a surface sort: {s!r}")


def normalize_decl(arg_sorts, result, signature=None, filename="<input>"):
    """Curried sort of a declaration: `f (A B) R` becomes A -> (B -> R')."""
    signature = signature if signature is not None else Signature()
    args = [normalize_sort(a, signature, filename) for a in arg_sorts]
    return fun_sort(args, normalize_sort(result, signature, filename))


def infer_sort(env, t):
    """Elaborate a surface term to core, returning (core term, sort)."""
    f = env.filename
    if isinstance(t, SLit):
        if t.kind == "numeral":
            return Const(t.text, INT), INT
        if t.kind == "decimal":
            return Const(t.text, REAL), REAL
        raise SortError("string literals have no sort here", *t.pos, f)
    if isinstance(t, SId):
        if t.name == "=":
            # = is polymorphic: a bare or partially applied occurrence
            # needs an ascription (as = (-> S S Bool)) naming its instance
            if t.ascribed is None:
                raise SortError("cannot infer a sort for bare =", *t.pos, f)
            s = normalize_sort(t.ascribed, env.signature, f)
            if not (isinstance(s, Fun) and isinstance(s.cod, Fun)
                    and s.cod.cod == BOOL and s.dom == s.cod.dom):
                raise SortError("= must be ascribed a sort (-> S S Bool)",
                                *t.pos, f)
            return Const("=", s), s
        found = None
        if env.lookup_ref is not None and t.name[:1] == "@":
            found = env.lookup_ref(env, t)
        v = env.scope.get(t.name) if found is None else None
        if found is not None:
            result, s = found
        elif v is not None:
            result, s = v, v.sort
        else:
            s = env.signature.lookup(t.name, env.arith)
            if s is None:
                raise SortError(f"unbound symbol {t.name}", *t.pos, f)
            result = Const(t.name, s)
        if t.ascribed is not None:
            asc = normalize_sort(t.ascribed, env.signature, f)
            if asc != s:
                raise SortError(
                    f"sort ascription mismatch: expected {sort_str(asc)}, "
                    f"found {sort_str(s)}", *t.pos, f)
        return result, s
    if isinstance(t, SApply):
        if isinstance(t.head, SId) and t.head.name == "=" and t.head.ascribed is None:
            if len(t.args) != 2:
                raise SortError("= takes exactly two arguments", *t.pos, f)
            lhs, ls = infer_sort(env, t.args[0])
            rhs, rs = infer_sort(env, t.args[1])
            if ls != rs:
                raise SortError(
                    f"equality between different sorts: {sort_str(ls)} "
                    f"and {sort_str(rs)}", *t.pos, f)
            return core.eq_term(lhs, rhs), BOOL
        head, hs = infer_sort(env, t.head)
        for a in t.args:
            arg, as_ = infer_sort(env, a)
            if not isinstance(hs, Fun):
                raise SortError(
                    f"applying a term of non-functional sort {sort_str(hs)}",
                    *t.pos, f)
            if hs.dom != as_:
                raise SortError(
                    f"argument sort mismatch: expected {sort_str(hs.dom)}, "
                    f"found {sort_str(as_)}", *getattr(a, "pos", t.pos), f)
            head, hs = core.App(head, arg), hs.cod
        return head, hs
    if isinstance(t, SBinder):
        vars_ = [env.make_var(n, normalize_sort(s, env.signature, f))
                 for n, s in t.binders]
        env.scope.bind((v.name, v) for v in vars_)
        try:
            body, bs = infer_sort(env, t.body)
        finally:
            env.scope.unbind()
        if t.kind == "lambda":
            for v in reversed(vars_):
                body = Lam(v, body)
                bs = Fun(v.sort, bs)
            return body, bs
        if t.kind in ("forall", "exists"):
            if bs != BOOL:
                raise SortError(
                    f"{t.kind} body has sort {sort_str(bs)}, expected Bool",
                    *t.pos, f)
            for v in reversed(vars_):
                body = Quant(t.kind, v, body)
            return body, BOOL
        # eps: the sort of the chosen witness
        if bs != BOOL:
            raise SortError(
                f"eps body has sort {sort_str(bs)}, expected Bool", *t.pos, f)
        for v in reversed(vars_):
            body = Quant("eps", v, body)
        return body, vars_[0].sort
    if isinstance(t, SLet):
        pairs = []
        for n, img in t.bindings:
            cimg, s = infer_sort(env, img)
            pairs.append((env.make_var(n, s), cimg))
        env.scope.bind((v.name, v) for v, _ in pairs)
        try:
            body, bs = infer_sort(env, t.body)
        finally:
            env.scope.unbind()
        return Let(tuple(pairs), body), bs
    if isinstance(t, SMatch):
        raise SortError("unsupported construct: match", *t.pos, f)
    if isinstance(t, SAnnot):
        # attributes are preserved only at the surface level
        return infer_sort(env, t.term)
    raise TypeError(f"not a surface term: {t!r}")


class CheckedScript(Record):
    __slots__ = ("signature", "asserts", "logic", "commands")

    def __init__(self, signature, asserts, logic=None, commands=None):
        self.signature = signature
        self.asserts = asserts  # core terms of sort Bool
        self.logic = logic
        self.commands = commands


def check_script(cmds, filename="<input>"):
    """Process declarations in order and elaborate every assert to Bool."""
    sig = Signature()
    logic = None
    asserts = []
    for c in cmds:
        if isinstance(c, CSetLogic):
            logic = c.name
        elif isinstance(c, CDeclareSort):
            sig.declare_sort(c.name, c.arity, c.pos, filename)
        elif isinstance(c, CDeclareFun):
            sort = normalize_decl(c.arg_sorts, c.result, sig, filename)
            sig.declare_fun(c.name, sort, c.pos, filename)
        elif isinstance(c, CDefineFun):
            env = TypingEnv(sig, logic_has_arith(logic), filename)
            vars_ = [fresh_var(n, normalize_sort(s, sig, filename))
                     for n, s in c.params]
            env.scope.bind((v.name, v) for v in vars_)
            _, bs = infer_sort(env, c.body)
            declared = normalize_sort(c.result, sig, filename)
            if bs != declared:
                raise SortError(
                    f"define-fun body has sort {sort_str(bs)}, expected "
                    f"{sort_str(declared)}", *c.pos, filename)
            sig.declare_fun(c.name, fun_sort([v.sort for v in vars_], declared),
                            c.pos, filename)
        elif isinstance(c, CAssert):
            env = TypingEnv(sig, logic_has_arith(logic), filename)
            term, s = infer_sort(env, c.term)
            if s != BOOL:
                raise SortError(
                    f"assert body has sort {sort_str(s)}, expected Bool",
                    *c.pos, filename)
            asserts.append(term)
        elif isinstance(c, (CExit, CUnknown)):
            pass
        else:
            raise TypeError(f"not a command: {c!r}")
    return CheckedScript(sig, asserts, logic, list(cmds))


# ------------------------------------------------------- core -> surface

def erase(t):
    """Core term back to a surface term that re-elaborates to it: the parse
    of its printed text."""
    from . import certprinter

    return surface.parse_term(certprinter.print_term(t))
