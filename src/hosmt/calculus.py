"""The extended fine-grained proof calculus.

Certificates are DAGs of steps, each carrying a context and an equality
conclusion `ctx |> lhs ~ rhs` (or, for instantiation lemmas, a closed
Boolean formula).  The checker validates every rule locally from the step,
its premises' conclusions, and the context; terms are always compared up to
alpha.

Concrete syntax, one step per line:

    (step <id> :rule <name> :premises (<id>*) :context <ctx>
          :conclusion (= <term> <term>))

A context `<ctx>` is either an inline entry list `(<entry>*)`, ordered
outermost-first, with `()` for the empty context, or the name of a context
defined on an earlier line by

    (context <name> <ctx> <entry>)

which names `<ctx>` extended by one entry.  Entries are `(fix <name> <sort>)`
or `(map (<name> <term>)+)`.  For example

    (context c1 () (fix y Int))
    (context c2 c1 (map (x y)))
    (step s1 :rule refl :context c2 :conclusion (= x y))

A name must be defined before it is used and only once; context names are a
namespace of their own, apart from symbols and step ids.  The printer
defines each context node once, just before the first step that uses it.
Lemma steps use `:conclusion <formula>` and `:binding ((<name> <term>)+)`;
taut steps name their theory with `:theory <tag>`.  Files may open with
declare-sort/declare-fun commands.
"""

from . import core, sexpr, surface, typecheck
from .context import EMPTY, Fix, Map, apply_context, contexts_equal
from .core import (App, BOOL, Const, Lam, Let, Quant, Var, alpha_eq,
                   beta_normal_form, binder_parts, free_vars,
                   make_binder, not_term, sort_of, substitute)
from .nodes import Record
from .sexpr import ParseError, SList, Token
from .typecheck import Signature, TypingEnv, infer_sort, normalize_sort


LEMMA_RULES = ("inst_forall", "inst_exists")

# the one built-in taut validator: equality in the pure beta fragment
BETA_THEORY = "beta"


class CertificateError(ParseError):
    pass


class EqJudgment(Record):
    __slots__ = ("ctx", "lhs", "rhs")

    def __init__(self, ctx, lhs, rhs):
        self.ctx = ctx  # Context
        self.lhs = lhs
        self.rhs = rhs


class LemmaFormula(Record):
    __slots__ = ("formula",)

    def __init__(self, formula):
        self.formula = formula  # closed core term of sort Bool


class ProofStep(Record):
    __slots__ = ("id", "rule", "premises", "conclusion", "binding", "theory",
                 "line", "col")

    def __init__(self, id, rule, premises, conclusion, binding=(),
                 theory=None, line=0, col=0):
        self.id = id
        self.rule = rule
        self.premises = premises  # step ids
        self.conclusion = conclusion  # EqJudgment | LemmaFormula
        self.binding = binding  # ((name, term), ...) for lemma steps
        self.theory = theory  # for taut steps
        self.line = line  # of the (step ...) form
        self.col = col


class Certificate(Record):
    __slots__ = ("steps", "signature")

    def __init__(self, steps, signature=None):
        self.steps = steps
        self.signature = signature

    @property
    def final(self):
        return self.steps[-1]


class StepResult(Record):
    __slots__ = ("id", "status", "message", "line", "col")

    def __init__(self, id, status, message="", line=0, col=0):
        self.id = id
        self.status = status  # "ok" | "trusted" | "invalid"
        self.message = message
        self.line = line  # the step's source position, 0 if it has none
        self.col = col


class Report(Record):
    __slots__ = ("results", "verdict", "final_conclusion", "trusted_count")

    def __init__(self, results, verdict, final_conclusion=None,
                 trusted_count=0):
        self.results = results
        self.verdict = verdict  # "valid" | "invalid" | "valid-with-trust"
        self.final_conclusion = final_conclusion
        self.trusted_count = trusted_count

    @property
    def first_failure(self):
        for r in self.results:
            if r.status == "invalid":
                return r
        return None


def _result(step, status, msg=""):
    return StepResult(step.id, status, msg, step.line, step.col)


def _bad(step, msg):
    return _result(step, "invalid", f"{step.rule} step {step.id}: {msg}")


def _pc(t):
    return typecheck.print_core(t)


# Each rule handler takes (step, premise steps, beta-step cap).  It raises
# ValueError to reject the step; it returns None to accept it, or a
# "trusted" result.

_COUNTS = {0: "no premises", 1: "one premise", 2: "two premises",
           None: "the binding premises plus a body premise"}


def _judgments(step, premises, n):
    """The step's equality conclusion and its premises' conclusions.

    `n` is the number of premises the rule takes; None means two or more.
    """
    if (len(premises) < 2) if n is None else (len(premises) != n):
        raise ValueError(f"{step.rule} takes {_COUNTS[n]}")
    if not isinstance(step.conclusion, EqJudgment):
        raise ValueError("expected an equality conclusion")
    ps = [p.conclusion for p in premises]
    if not all(isinstance(p, EqJudgment) for p in ps):
        raise ValueError("premises must be equality judgments")
    return step.conclusion, ps


def _same_context(c, ps):
    if not all(contexts_equal(p.ctx, c.ctx) for p in ps):
        raise ValueError("premise context differs from the conclusion context")


def _appended(c, p, *shape):
    """The entries that p's context appends to c's context.

    `shape` has one item per entry: Fix for a fixed variable, or n for a
    mapping of n variables.
    """
    entries, ctx = [], p.ctx
    while len(entries) < len(shape) and ctx.entry is not None:
        entries.append(ctx.entry)
        ctx = ctx.parent
    entries.reverse()
    if (len(entries) != len(shape)
            or not all(isinstance(e, Fix) if k is Fix
                       else isinstance(e, Map) and len(e.pairs) == k
                       for e, k in zip(entries, shape))
            or not contexts_equal(ctx, c.ctx)):
        want = " and ".join("a fixed variable" if k is Fix
                            else f"a mapping of {k} variable(s)" for k in shape)
        raise ValueError("premise context must be the conclusion context "
                         f"followed by {want}")
    return entries


def _check_refl(step, premises, max_steps):
    c, _ = _judgments(step, premises, 0)
    if not alpha_eq(apply_context(c.ctx, c.lhs), c.rhs):
        raise ValueError("context applied to the left side does not match "
                         "the right side")


def _check_cong(step, premises, max_steps):
    if not premises:  # a zero-premise cong is checked as refl
        return _check_refl(step, premises, max_steps)
    c, (p1, p2) = _judgments(step, premises, 2)
    _same_context(c, (p1, p2))
    if not isinstance(c.lhs, App) or not isinstance(c.rhs, App):
        raise ValueError("conclusion sides must be applications")
    if not alpha_eq(c.lhs.fn, p1.lhs) or not alpha_eq(c.rhs.fn, p1.rhs):
        raise ValueError(f"head does not match the first premise ({_pc(c.lhs.fn)})")
    if not alpha_eq(c.lhs.arg, p2.lhs) or not alpha_eq(c.rhs.arg, p2.rhs):
        raise ValueError("argument does not match the second premise "
                         f"({_pc(c.lhs.arg)})")


def _check_trans(step, premises, max_steps):
    c, (p1, p2) = _judgments(step, premises, 2)
    _same_context(c, (p1, p2))
    if not alpha_eq(p1.rhs, p2.lhs):
        raise ValueError(f"middle terms differ ({_pc(p1.rhs)} vs {_pc(p2.lhs)})")
    if not alpha_eq(c.lhs, p1.lhs) or not alpha_eq(c.rhs, p2.rhs):
        raise ValueError("conclusion does not chain the premises")


def _check_bind(step, premises, max_steps):
    c, (p,) = _judgments(step, premises, 1)
    fix, mapping = _appended(c, p, Fix, 1)
    y = fix.var
    (x, img), = mapping.pairs
    if not (isinstance(img, Var) and img.id == y.id):
        raise ValueError("premise mapping must send the bound variable to "
                         "the fixed one")
    bl = binder_parts(c.lhs)
    br = binder_parts(c.rhs)
    if bl is None or br is None or bl[0] != br[0] or bl[0] not in core.BIND_KINDS:
        raise ValueError("conclusion sides must share a forall/exists/lambda binder")
    if not alpha_eq(make_binder(bl[0], x, p.lhs), c.lhs):
        raise ValueError("left side does not rebind the premise's left term")
    if not alpha_eq(make_binder(bl[0], y, p.rhs), c.rhs):
        raise ValueError("right side does not rebind the premise's right term")
    if y.id in free_vars(c.lhs):
        raise ValueError(f"side condition violated: {y.name} occurs free in "
                         f"{_pc(c.lhs)}")


def _check_beta(step, premises, max_steps):
    c, (p1, p2) = _judgments(step, premises, 2)
    _same_context(c, (p1,))
    (mapping,) = _appended(c, p2, 1)
    (x, s), = mapping.pairs
    if not alpha_eq(s, p1.rhs):
        raise ValueError("mapped term does not match the first premise's right side")
    if not (isinstance(c.lhs, App) and isinstance(c.lhs.fn, Lam)):
        raise ValueError("conclusion left side must be a beta-redex")
    if not alpha_eq(c.lhs.arg, p1.lhs):
        raise ValueError("redex argument does not match the first premise's left side")
    if not alpha_eq(c.lhs.fn, Lam(x, p2.lhs)):
        raise ValueError("redex body does not match the second premise's left side")
    if not alpha_eq(c.rhs, p2.rhs):
        raise ValueError("conclusion right side does not match the second premise")
    if not alpha_eq(apply_context(c.ctx, s), s):
        raise ValueError(f"side condition violated: context changes {_pc(s)}")


def _check_let(step, premises, max_steps):
    c, (*vals, body) = _judgments(step, premises, None)
    _same_context(c, vals)
    (mapping,) = _appended(c, body, len(vals))
    for (x, s), p in zip(mapping.pairs, vals):
        if not alpha_eq(s, p.rhs):
            raise ValueError(f"mapped term for {x.name} does not match its premise")
        if not alpha_eq(apply_context(c.ctx, s), s):
            raise ValueError(f"side condition violated: context changes {_pc(s)}")
    if not isinstance(c.lhs, Let):
        raise ValueError("conclusion left side must be a let")
    expected = Let(tuple((x, p.lhs) for (x, _), p in zip(mapping.pairs, vals)),
                   body.lhs)
    if not alpha_eq(c.lhs, expected):
        raise ValueError("let bindings or body do not match the premises")
    if not alpha_eq(c.rhs, body.rhs):
        raise ValueError("conclusion right side does not match the body premise")


def _check_sko(step, premises, max_steps):
    c, (p,) = _judgments(step, premises, 1)
    (mapping,) = _appended(c, p, 1)
    (x, img), = mapping.pairs
    forall = step.rule == "sko_all"
    if not alpha_eq(img, Quant("eps", x, not_term(p.lhs) if forall else p.lhs)):
        raise ValueError("mapped term is not the matching choice term")
    if not alpha_eq(c.lhs, Quant("forall" if forall else "exists", x, p.lhs)):
        raise ValueError("conclusion left side does not quantify the premise's "
                         "left term")
    if not alpha_eq(c.rhs, p.rhs):
        raise ValueError("conclusion right side does not match the premise")


def _check_taut(step, premises, max_steps):
    c, _ = _judgments(step, premises, 0)
    if step.theory != BETA_THEORY:
        return _result(step, "trusted", f"taut step {step.id} trusted "
                       f"for theory {step.theory or '<untagged>'}")
    if not alpha_eq(beta_normal_form(c.lhs, max_steps),
                    beta_normal_form(c.rhs, max_steps)):
        raise ValueError("sides have different beta-normal forms")


def _check_inst(step, premises, max_steps):
    if premises:
        raise ValueError(f"{step.rule} takes no premises")
    if not isinstance(step.conclusion, LemmaFormula):
        raise ValueError("expected a lemma formula conclusion")
    f = step.conclusion.formula
    if not (isinstance(f, App) and isinstance(f.fn, App)
            and isinstance(f.fn.fn, Const) and f.fn.fn.name == "=>"):
        raise ValueError("lemma must be an implication")
    kind = "forall" if step.rule == "inst_forall" else "exists"
    quant_side, inst_side = (f.fn.arg, f.arg) if kind == "forall" else (f.arg, f.fn.arg)
    bp = binder_parts(quant_side)
    if bp is None or bp[0] != kind:
        raise ValueError(f"lemma lacks a {kind} on the quantified side")
    _, x, body = bp
    if len(step.binding) != 1:
        raise ValueError("binding must name exactly one variable")
    name, t = step.binding[0]
    if name != x.name:
        raise ValueError(f"binding names {name}, the quantifier binds {x.name}")
    if sort_of(t) != x.sort:
        raise ValueError("instantiation term has the wrong sort")
    if not alpha_eq(inst_side, substitute(body, {x.id: t})):
        raise ValueError("instance side is not the substituted body")


_HANDLERS = {
    "refl": _check_refl,
    "trans": _check_trans,
    "cong": _check_cong,
    "bind": _check_bind,
    "beta": _check_beta,
    "let": _check_let,
    "sko_ex": _check_sko,
    "sko_all": _check_sko,
    "taut": _check_taut,
    "inst_forall": _check_inst,
    "inst_exists": _check_inst,
}
RULES = tuple(_HANDLERS)


def check_step(step, premises, max_steps=core.DEFAULT_STEP_CAP):
    """Check one rule application given its premise steps (already checked).

    `max_steps` caps the beta-steps a `taut :theory beta` step may spend.
    """
    handler = _HANDLERS.get(step.rule)
    if handler is None:
        return _bad(step, f"unknown rule {step.rule}")
    try:
        return handler(step, premises, max_steps) or _result(step, "ok")
    except (ValueError, TypeError) as e:
        return _bad(step, str(e))


def check_certificate(cert, max_steps=core.DEFAULT_STEP_CAP):
    """Check all steps in order and summarize the verdict."""
    by_id = {}
    results = []
    ok = True
    trusted = 0
    for step in cert.steps:
        if step.id in by_id:
            results.append(_result(step, "invalid",
                                   f"duplicate step id {step.id}"))
            ok = False
            continue
        missing = [p for p in step.premises if p not in by_id]
        if missing:
            results.append(_result(
                step, "invalid",
                f"step {step.id} references unknown or later step {missing[0]}"))
            by_id[step.id] = step
            ok = False
            continue
        r = check_step(step, [by_id[p] for p in step.premises], max_steps)
        by_id[step.id] = step
        results.append(r)
        if r.status == "invalid":
            ok = False
        elif r.status == "trusted":
            trusted += 1
    final = cert.final.conclusion if cert.steps else None
    if isinstance(final, EqJudgment) and not final.ctx.is_empty():
        results.append(_result(cert.final, "invalid",
                               "final judgment has a non-empty context"))
        ok = False
    if not ok:
        verdict = "invalid"
    elif trusted:
        verdict = "valid-with-trust"
    else:
        verdict = "valid"
    return Report(results, verdict, final, trusted)


# ---------------------------------------------------------------- parsing

def _is_sym(e, text=None):
    return (isinstance(e, Token) and e.kind == sexpr.SYMBOL
            and (text is None or e.text == text))


class _CertParser:
    def __init__(self, filename):
        self.sig = Signature()
        self.filename = filename
        # one core variable per (name, sort) across the whole certificate,
        # so identical contexts in different steps share variable identity
        self.registry = {}
        self.contexts = {}  # context name -> (Context, scope)

    def var_for(self, name, sort):
        key = (name, sort)
        if key not in self.registry:
            self.registry[key] = core.fresh_var(name, sort)
        return self.registry[key]

    def error(self, msg, e):
        return CertificateError(msg, *sexpr.sexpr_pos(e), self.filename)

    def elab(self, e, scope):
        term = surface.term_from_sexpr(e, self.filename)
        env = TypingEnv(self.sig, arith=True, filename=self.filename)
        env.push(scope.values())
        t, s = infer_sort(env, term)
        return t, s

    def parse_context(self, e):
        """The context a :context value denotes, with its name -> variable
        scope.  A named context's scope is shared: callers only read it."""
        if e is None:
            return EMPTY, {}
        if _is_sym(e):
            if e.text not in self.contexts:
                raise self.error(f"unknown context {e.text}", e)
            return self.contexts[e.text]
        if not isinstance(e, SList):
            raise self.error("expected a context name or entry list", e)
        ctx, scope = EMPTY, {}
        for entry in e.items:
            ctx = self.extend(ctx, scope, entry)
        return ctx, scope

    def define_context(self, e):
        """(context <name> <ctx> <entry>): name <ctx> extended by <entry>."""
        items = e.items
        if len(items) != 4 or not _is_sym(items[1]):
            raise self.error("expected (context <name> <context> <entry>)", e)
        name = items[1]
        if name.text in self.contexts:
            raise self.error(f"context {name.text} defined twice", name)
        ctx, scope = self.parse_context(items[2])
        scope = dict(scope)
        self.contexts[name.text] = self.extend(ctx, scope, items[3]), scope

    def extend(self, ctx, scope, entry):
        """ctx extended by one (fix ...) or (map ...) entry; binds the
        entry's variables in `scope`."""
        if not isinstance(entry, SList) or not entry.items:
            raise self.error("expected (fix ...) or (map ...)", entry)
        head = entry.items[0]
        if _is_sym(head, "fix"):
            if len(entry.items) != 3 or not _is_sym(entry.items[1]):
                raise self.error("expected (fix <name> <sort>)", entry)
            name = entry.items[1].text
            ssort = surface.sort_from_sexpr(entry.items[2], self.filename)
            sort = normalize_sort(ssort, self.sig, self.filename)
            v = self.var_for(name, sort)
            scope[name] = v
            return ctx.fix(v)
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
            img, sort = self.elab(item.items[1], scope)
            pairs.append((self.var_for(name, sort), img))
        try:
            ctx = ctx.map(pairs)
        except ValueError as err:
            raise self.error(str(err), entry)
        for v, _ in pairs:
            scope[v.name] = v
        return ctx

    def parse_step(self, e):
        items = e.items
        if len(items) < 2 or not _is_sym(items[0], "step") or not _is_sym(items[1]):
            raise self.error("expected (step <id> ...)", e)
        step_id = items[1].text
        kw = {}
        i = 2
        while i < len(items):
            k = items[i]
            if not (isinstance(k, Token) and k.kind == sexpr.KEYWORD):
                raise self.error("expected a keyword", k)
            if i + 1 >= len(items):
                raise self.error(f"missing value for {k.text}", k)
            kw[k.text] = items[i + 1]
            i += 2
        if ":rule" not in kw or not _is_sym(kw[":rule"]):
            raise self.error("step lacks a :rule", e)
        rule = kw[":rule"].text
        if rule not in RULES:
            raise self.error(f"unknown rule {rule}", kw[":rule"])
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
        if ":binding" in kw:
            be = kw[":binding"]
            if not isinstance(be, SList):
                raise self.error("expected a binding list", be)
            bs = []
            for item in be.items:
                if (not isinstance(item, SList) or len(item.items) != 2
                        or not _is_sym(item.items[0])):
                    raise self.error("expected (<name> <term>)", item)
                t, _ = self.elab(item.items[1], {})
                bs.append((item.items[0].text, t))
            binding = tuple(bs)
        if rule in LEMMA_RULES:
            formula, fsort = self.elab(kw[":conclusion"], {})
            if fsort != BOOL:
                raise self.error("lemma formula must have sort Bool",
                                 kw[":conclusion"])
            conclusion = LemmaFormula(formula)
        else:
            ctx, scope = self.parse_context(kw.get(":context"))
            ce = kw[":conclusion"]
            if (not isinstance(ce, SList) or len(ce.items) != 3
                    or not _is_sym(ce.items[0], "=")):
                raise self.error("expected (= <term> <term>)", ce)
            lhs, ls = self.elab(ce.items[1], scope)
            rhs, rs = self.elab(ce.items[2], scope)
            if ls != rs:
                raise self.error("conclusion sides have different sorts", ce)
            conclusion = EqJudgment(ctx, lhs, rhs)
        return ProofStep(step_id, rule, premises, conclusion, binding, theory,
                         *sexpr.sexpr_pos(e))


def parse_certificate(text, filename="<certificate>"):
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
        cmd = surface.command_from_sexpr(e, filename)
        if isinstance(cmd, surface.CDeclareSort):
            parser.sig.declare_sort(cmd.name, cmd.arity, cmd.pos, filename)
        elif isinstance(cmd, surface.CDeclareFun):
            sort = typecheck.normalize_decl(cmd.arg_sorts, cmd.result,
                                            parser.sig, filename)
            parser.sig.declare_fun(cmd.name, sort, cmd.pos, filename)
        else:
            raise parser.error("only declarations and steps are allowed", e)
    if not steps:
        raise CertificateError("certificate has no steps", 1, 1, filename)
    return Certificate(tuple(steps), parser.sig)


# --------------------------------------------------------------- printing

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


def _assign_names(cert):
    """Unique printed name per context-variable id across the certificate."""
    names = {}
    used = set(cert.signature.symbols) if cert.signature else set()
    used |= set(typecheck.CORE_SYMBOLS)

    def claim(v):
        if v.id in names:
            return
        name = v.name
        k = 1
        while name in used:
            name = f"{v.name}{k}"
            k += 1
        names[v.id] = name
        used.add(name)

    seen = set()
    for step in cert.steps:
        if isinstance(step.conclusion, EqJudgment):
            for node in _unseen(step.conclusion.ctx, seen):
                seen.add(id(node))
                e = node.entry
                if isinstance(e, Fix):
                    claim(e.var)
                else:
                    for v, _ in e.pairs:
                        claim(v)
    return names


def _print_entry(e, names):
    if isinstance(e, Fix):
        return f"(fix {names[e.var.id]} {core.sort_str(e.var.sort)})"
    pairs = " ".join(
        f"({names[v.id]} {typecheck.print_core(img, names)})" for v, img in e.pairs)
    return f"(map {pairs})"


def print_step(step, names, ctx_names):
    """One step line; `ctx_names` maps id(node) to the name of every
    non-empty context node the step uses."""
    parts = [f"(step {step.id} :rule {step.rule}"]
    if step.premises:
        parts.append(":premises (" + " ".join(step.premises) + ")")
    if isinstance(step.conclusion, EqJudgment):
        c = step.conclusion
        if not c.ctx.is_empty():
            parts.append(f":context {ctx_names[id(c.ctx)]}")
        if step.theory is not None:
            parts.append(f":theory {step.theory}")
        parts.append(f":conclusion (= {typecheck.print_core(c.lhs, names)} "
                     f"{typecheck.print_core(c.rhs, names)}))")
    else:
        if step.binding:
            bs = " ".join(f"({n} {typecheck.print_core(t, names)})"
                          for n, t in step.binding)
            parts.append(f":binding ({bs})")
        parts.append(
            f":conclusion {typecheck.print_core(step.conclusion.formula, names)})")
    return " ".join(parts)


def print_certificate(cert):
    """The certificate text.  Each context node is defined once, by a
    (context ...) line just before the first step that uses it, and named
    c1, c2, ... by identity."""
    lines = []
    if cert.signature is not None:
        for name, arity in cert.signature.sorts.items():
            if name not in typecheck.BUILTIN_SORTS:
                lines.append(f"(declare-sort {name} {arity})")
        for name, sort in cert.signature.symbols.items():
            args = []
            s = sort
            while isinstance(s, core.Fun):
                args.append(s.dom)
                s = s.cod
            astr = " ".join(core.sort_str(a) for a in args)
            lines.append(f"(declare-fun {name} ({astr}) {core.sort_str(s)})")
    names = _assign_names(cert)
    ctx_names = {}
    for step in cert.steps:
        if isinstance(step.conclusion, EqJudgment):
            for node in _unseen(step.conclusion.ctx, ctx_names):
                name = ctx_names[id(node)] = f"c{len(ctx_names) + 1}"
                parent = ("()" if node.parent.is_empty()
                          else ctx_names[id(node.parent)])
                lines.append(f"(context {name} {parent} "
                             f"{_print_entry(node.entry, names)})")
        lines.append(print_step(step, names, ctx_names))
    return "\n".join(lines) + "\n"
