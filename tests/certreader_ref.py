"""Reference certificate reader and script front end.

The reader `hosmt.certreader` used before it elaborated the reader's
trees itself.  It is kept unchanged as the reference the one-walk reader
is compared with, apart from imports, and together with the hooked
elaborator it used: each term is checked by the reference front end's
`term_from_sexpr` (`surface_ref`) and then elaborated by `infer_sort`
below, whose `TypingEnv` takes two reader hooks.  Binder and `let` variables come from the certificate's (name,
sort) registry through `make_var`, and `@`-names are resolved by
`_CertParser.term_ref` through `lookup_ref`.

With its default hooks, `infer_sort` is the script front end's
elaborator from before scripts were elaborated by `hosmt.elaborate`;
`normalize_sort`, `normalize_decl`, `declare` and `check_script` below
are that front end's, unchanged apart from imports, and are the reference
`typecheck.check_script` is compared with.
"""

from hosmt import core, sexpr
from hosmt.calculus import (LEMMA_RULES, RULES, Certificate, CertificateError,
                            EqJudgment, ProofStep)
from hosmt.context import EMPTY, move
from hosmt.core import (BINDER_WORDS, BOOL, Applied, Binder, Const, Fun, INT,
                        Let, REAL, const_names, free_vars, fresh_var, fun_sort,
                        sort_str)
from hosmt.elaborate import logic_has_arith
from hosmt.nodes import Scope
from hosmt.sexpr import DECIMAL, NUMERAL, SYMBOL, SList, Token
from hosmt.signature import Signature, SortError
from hosmt.typecheck import CheckedScript

import surface_ref as surface
from gen import eq_term
from sexpr_ref import sexpr_pos


# ------------------------------------------- the hooked elaborator

def normalize_sort(s, signature, filename="<input>"):
    """Canonical surface sort (`surface_ref`) to core sort, arrows fully
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


class TypingEnv:
    """A signature plus `scope`, which maps the names of the local binder
    variables to them (a `nodes.Scope`).

    Two hooks let a reader change how names are elaborated: `make_var(name,
    sort)` makes each binder and let variable (a fresh one by default), and
    `lookup_ref(env, name, at)`, when set, is asked first about every
    identifier that starts with `@`, where `at` is the token or list that
    names it; it returns (term, sort), or None to look the name up as usual.
    """

    def __init__(self, signature, arith=False, filename="<input>",
                 make_var=fresh_var, lookup_ref=None):
        self.signature = signature
        self.arith = arith
        self.filename = filename
        self.scope = Scope()
        self.make_var = make_var
        self.lookup_ref = lookup_ref


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
    found = None
    if env.lookup_ref is not None and name[:1] == "@":
        found = env.lookup_ref(env, name, at)
    v = env.scope.get(name) if found is None else None
    if found is not None:
        result, s = found
    elif v is not None:
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
    """Elaborate a canonical surface term (`surface_ref`) to core,
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
        vars_ = [env.make_var(b.items[0].text,
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
            pairs.append((env.make_var(b.items[0].text, s), cimg))
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
        return eq_term(lhs, rhs), BOOL
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


# ------------------------------------------- the script front end

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
    """Process the canonical commands (`surface_ref`) in order, and
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


# ------------------------------------------------------ the reader

# the keywords a step of each rule reads, each at most once
_KEYWORDS = {
    rule: {":rule", ":premises", ":conclusion"}
    | ({":binding"} if rule in LEMMA_RULES else {":context"})
    | ({":theory"} if rule == "taut" else set())
    for rule in RULES}
_ALL_KEYWORDS = set().union(*_KEYWORDS.values())


def _named(node):
    """What entering a context node binds in the reader's scope."""
    return [(v.name, v) for v in node.entry_vars()]


def _is_sym(e, text=None):
    return (isinstance(e, Token) and e.kind == sexpr.SYMBOL
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
        self.terms = {}  # term name -> [surface term, node, sort]
        self.env = TypingEnv(self.sig, arith=True, filename=filename,
                             make_var=self.var_for, lookup_ref=self.term_ref)
        # env.scope maps names to variables: those of the context at
        # `env.scope.at`, and above them the binders of the term being
        # elaborated
        self.env.scope.at = EMPTY

    def var_for(self, name, sort):
        key = (name, sort)
        if key not in self.registry:
            v = self.registry[key] = core.fresh_var(name, sort)
            self.by_id[v.id] = v
        return self.registry[key]

    def error(self, msg, e):
        return CertificateError(msg, *sexpr_pos(e), self.filename)

    def elab(self, e):
        return infer_sort(self.env, surface.term_from_sexpr(e, self.filename))

    def term_ref(self, env, name, at):
        """The node the term name `name` denotes at its use `at` (TypingEnv
        hook).

        The first use elaborates the definition in its own scope; a later
        use gets the same node when each of its free variables is what its
        name means here and no local variable hides one of its constants.
        """
        d = self.terms.get(name)
        if d is None:
            if name in self.sig.symbols:
                return None
            raise CertificateError(f"unknown term {name}", at.line, at.col,
                                   self.filename)
        if d[1] is None:
            d[1], d[2] = infer_sort(env, d[0])
            return d[1], d[2]
        for i in free_vars(d[1]):
            v = self.by_id[i]
            if env.scope.get(v.name) is not v:
                raise CertificateError(f"term {name} uses {v.name}, which "
                                       "means another variable here",
                                       at.line, at.col, self.filename)
        for c in const_names(d[1]):
            if c in env.scope:
                raise CertificateError(f"term {name} uses constant {c}, "
                                       "which a variable hides here",
                                       at.line, at.col, self.filename)
        return d[1], d[2]

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
            if isinstance(x, SList):
                todo += x.items
            elif (_is_sym(x) and x.text.startswith("@")
                  and x.text not in self.terms
                  and x.text not in self.sig.symbols):
                raise self.error(f"unknown term {x.text}", x)
        self.terms[name.text] = [
            surface.term_from_sexpr(items[2], self.filename), None, None]

    def parse_context(self, e):
        """The context a :context value denotes; `env.scope` then holds
        its variables."""
        if e is None:
            move(self.env.scope, EMPTY, _named)
            return EMPTY
        if _is_sym(e):
            if e.text not in self.contexts:
                raise self.error(f"unknown context {e.text}", e)
            move(self.env.scope, self.contexts[e.text], _named)
            return self.env.scope.at
        if not isinstance(e, SList):
            raise self.error("expected a context name or entry list", e)
        move(self.env.scope, EMPTY, _named)
        for entry in e.items:
            move(self.env.scope, self.extend(entry), _named)
        return self.env.scope.at

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
        move(self.env.scope, ctx, _named)

    def extend(self, entry):
        """The context at `env.scope.at` extended by one (fix ...) or
        (map ...) entry, whose images are elaborated in `env.scope`."""
        if not isinstance(entry, SList) or not entry.items:
            raise self.error("expected (fix ...) or (map ...)", entry)
        head = entry.items[0]
        if _is_sym(head, "fix"):
            if len(entry.items) != 3 or not _is_sym(entry.items[1]):
                raise self.error("expected (fix <name> <sort>)", entry)
            name = entry.items[1].text
            ssort = surface.sort_from_sexpr(entry.items[2], self.filename)
            sort = normalize_sort(ssort, self.sig, self.filename)
            return self.env.scope.at.fix(self.var_for(name, sort))
        if not _is_sym(head, "map"):
            raise self.error("unknown context entry", entry)
        if len(entry.items) < 2:
            raise self.error("expected (map (<name> <term>)+)", entry)
        pairs = []
        for item in entry.items[1:]:
            if (not isinstance(item, SList) or len(item.items) != 2
                    or not _is_sym(item.items[0])):
                raise self.error("expected (<name> <term>)", item)
            name = item.items[0].text
            img, sort = self.elab(item.items[1])
            pairs.append((self.var_for(name, sort), img))
        try:
            return self.env.scope.at.map(pairs)
        except ValueError as err:
            raise self.error(str(err), entry)

    def parse_step(self, e):
        items = e.items
        if len(items) < 2 or not _is_sym(items[0], "step") or not _is_sym(items[1]):
            raise self.error("expected (step <id> ...)", e)
        step_id = items[1].text
        kw, keys = {}, []
        for i in range(2, len(items), 2):
            k = items[i]
            if not (isinstance(k, Token) and k.kind == sexpr.KEYWORD):
                raise self.error("expected a keyword", k)
            if i + 1 >= len(items):
                raise self.error(f"missing value for {k.text}", k)
            if k.text not in _ALL_KEYWORDS:
                raise self.error(f"unknown keyword {k.text}", k)
            if k.text in kw:
                raise self.error(f"repeated keyword {k.text}", k)
            kw[k.text] = items[i + 1]
            keys.append(k)
        if ":rule" not in kw or not _is_sym(kw[":rule"]):
            raise self.error("step lacks a :rule", e)
        rule = kw[":rule"].text
        if rule not in RULES:
            raise self.error(f"unknown rule {rule}", kw[":rule"])
        for k in keys:
            if k.text not in _KEYWORDS[rule]:
                raise self.error(f"rule {rule} takes no {k.text}", k)
        premises = ()
        if ":premises" in kw:
            pe = kw[":premises"]
            if not isinstance(pe, SList) or not all(_is_sym(x) for x in pe.items):
                raise self.error("expected a list of step ids", pe)
            premises = tuple(x.text for x in pe.items)
        theory = None
        if ":theory" in kw:
            if not _is_sym(kw[":theory"]):
                raise self.error("expected a theory tag", kw[":theory"])
            theory = kw[":theory"].text
        if ":conclusion" not in kw:
            raise self.error("step lacks a :conclusion", e)
        binding = ()
        if rule in LEMMA_RULES:
            move(self.env.scope, EMPTY, _named)  # closed terms
            if ":binding" in kw:
                be = kw[":binding"]
                if not isinstance(be, SList):
                    raise self.error("expected a binding list", be)
                bs = []
                for item in be.items:
                    if (not isinstance(item, SList) or len(item.items) != 2
                            or not _is_sym(item.items[0])):
                        raise self.error("expected (<name> <term>)", item)
                    t, _ = self.elab(item.items[1])
                    bs.append((item.items[0].text, t))
                binding = tuple(bs)
            conclusion, fsort = self.elab(kw[":conclusion"])
            if fsort != BOOL:
                raise self.error("lemma formula must have sort Bool",
                                 kw[":conclusion"])
        else:
            ctx = self.parse_context(kw.get(":context"))
            ce = kw[":conclusion"]
            if (not isinstance(ce, SList) or len(ce.items) != 3
                    or not _is_sym(ce.items[0], "=")):
                raise self.error("expected (= <term> <term>)", ce)
            lhs, ls = self.elab(ce.items[1])
            rhs, rs = self.elab(ce.items[2])
            if ls != rs:
                raise self.error("conclusion sides have different sorts", ce)
            conclusion = EqJudgment(ctx, lhs, rhs)
        return ProofStep(step_id, rule, premises, conclusion, binding, theory,
                         *sexpr_pos(e))


def read_certificate(text, filename="<certificate>"):
    """The Certificate that `text` denotes (`calculus.parse_certificate`).

    The text is read through `sexpr.parse_text`, looked up at each call.
    """
    exprs = sexpr.parse_text(text, filename)
    parser = _CertParser(filename)
    steps = []
    for e in exprs:
        if not isinstance(e, SList) or not e.items:
            raise parser.error("expected a command or step", e)
        if _is_sym(e.items[0], "step"):
            steps.append(parser.parse_step(e))
            continue
        if _is_sym(e.items[0], "context"):
            parser.define_context(e)
            continue
        if _is_sym(e.items[0], "define"):
            parser.define_term(e)
            continue
        cmd = surface.command_from_sexpr(e, filename)
        word = cmd.items[0].text
        if word not in ("declare-sort", "declare-fun"):
            raise parser.error("only declarations and steps are allowed", e)
        name = cmd.items[1]
        if word == "declare-fun" and name.text in parser.terms:
            raise parser.error(f"term {name.text} is a declared symbol", name)
        declare(parser.sig, cmd, filename)
    if not steps:
        raise CertificateError("certificate has no steps", 1, 1, filename)
    return Certificate(tuple(steps), parser.sig)
