"""The extended fine-grained proof calculus.

Certificates are DAGs of steps.  A step concludes one of two shapes: an
`EqJudgment`, the equality `ctx |> lhs ~ rhs` under a context, or, for the
instantiation lemmas `inst_forall` and `inst_exists`, the lemma formula
itself, a closed core term of sort Bool.  The checker validates every rule
locally from the step, its premises' conclusions, and the context; terms
are always compared up to alpha.

Concrete syntax, one step per line:

    (step <id> :rule <name> :premises (<id>*) :context <ctx>
          :conclusion (= <term> <term>))

A context `<ctx>` is either an inline entry list `(<entry>*)`, ordered
outermost-first, with `()` for the empty context, or the name of a context
defined on an earlier line by

    (context <name> <ctx> <entry>)

which names `<ctx>` extended by one entry.  Entries are `(fix <name> <sort>)`
or `(map (<name> <term>)+)`.  A term may be defined once and then named,
by

    (define @<name> <term>)

For example

    (context c1 () (fix y Int))
    (context c2 c1 (map (x y)))
    (define @t1 (f x))
    (step s1 :rule refl :context c2 :conclusion (= @t1 (f y)))
    (step s2 :rule bind :premises (s1) :conclusion
          (= (lambda ((x Int)) @t1) (lambda ((y Int)) (f y))))

A name must be defined before it is used and only once.  Context names are
a namespace of their own, apart from symbols and step ids; term names
start with `@`, which SMT-LIB leaves to solvers, and may not be declared
symbols.  A definition may use earlier term names only.

A term name means its text written in place.  The reader elaborates a
definition at its first use, in that use's scope, and reuses the node at
every later use where each of its free variables is what its name means
there and no local variable hides one of its constants; any other use is
an error at the reference.  Every variable, binder and `let` variables
included, is read as the one variable of its (name, sort) in the
certificate, so one text denotes one node in every scope: a binder over a
context variable of the same name, as `bind` conclusions have, takes a
term named under that context as its body.

The printer (`hosmt.certprinter`) defines each context node and each
non-leaf term node used twice once, just before the first line that uses
it.  Lemma steps use `:conclusion <formula>` and `:binding ((<name>
<term>)+)`; taut steps name their theory with `:theory <tag>`.  A step
carries each keyword at most once, and only those its rule reads: every
rule reads `:rule`, `:conclusion` and, optionally, `:premises`; the
judgment rules read `:context`, `taut` also `:theory`, and the lemma rules
`:binding`.  Files may open with declare-sort, declare-fun and
declare-const commands.

The reader (`hosmt.certreader`) turns the s-expressions of each line into
core terms and sorts in one walk per term, through the elaborator of
script terms too (`hosmt.elaborate`); it loads neither `hosmt.surface`
nor `hosmt.typecheck`.  Reader and printer are each imported on first use, so
that a call that only reads, or only writes, certificates compiles one of
them.
"""

from . import core
from .context import Fix, Map, apply_context, contexts_equal, fixes
from .core import (App, Binder, Const, Let, Var, alpha_eq, beta_normal_form,
                   free_vars, not_term, sort_of, substitute)
from .nodes import Record
from .sexpr import ParseError


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


class ProofStep(Record):
    __slots__ = ("id", "rule", "premises", "conclusion", "binding", "theory",
                 "line", "col")

    def __init__(self, id, rule, premises, conclusion, binding=(),
                 theory=None, line=0, col=0):
        self.id = id
        self.rule = rule
        self.premises = premises  # step ids
        self.conclusion = conclusion  # EqJudgment, or a lemma step's formula
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
    __slots__ = ("results", "verdict", "trusted_count")

    def __init__(self, results, verdict, trusted_count):
        self.results = results
        self.verdict = verdict  # "valid" | "invalid" | "valid-with-trust"
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
    from . import certprinter  # only a rejected step prints a term

    return certprinter.print_term(t)


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
    lhs, rhs = c.lhs, c.rhs
    if not (isinstance(lhs, Binder) and isinstance(rhs, Binder)
            and lhs.kind == rhs.kind and lhs.kind in core.BIND_KINDS):
        raise ValueError("conclusion sides must share a forall/exists/lambda binder")
    if not alpha_eq(Binder(lhs.kind, x, p.lhs), lhs):
        raise ValueError("left side does not rebind the premise's left term")
    if not alpha_eq(Binder(lhs.kind, y, p.rhs), rhs):
        raise ValueError("right side does not rebind the premise's right term")
    if y.id in free_vars(lhs):
        raise ValueError(f"side condition violated: {y.name} occurs free in "
                         f"{_pc(lhs)}")


def _check_beta(step, premises, max_steps):
    c, (p1, p2) = _judgments(step, premises, 2)
    _same_context(c, (p1,))
    (mapping,) = _appended(c, p2, 1)
    (x, s), = mapping.pairs
    if not alpha_eq(s, p1.rhs):
        raise ValueError("mapped term does not match the first premise's right side")
    if not (isinstance(c.lhs, App) and isinstance(c.lhs.fn, Binder)
            and c.lhs.fn.kind == "lambda"):
        raise ValueError("conclusion left side must be a beta-redex")
    if not alpha_eq(c.lhs.arg, p1.lhs):
        raise ValueError("redex argument does not match the first premise's left side")
    if not alpha_eq(c.lhs.fn, Binder("lambda", x, p2.lhs)):
        raise ValueError("redex body does not match the second premise's left side")
    if not alpha_eq(c.rhs, p2.rhs):
        raise ValueError("conclusion right side does not match the second premise")
    if not fixes(c.ctx, s):
        raise ValueError(f"side condition violated: context changes {_pc(s)}")


def _check_let(step, premises, max_steps):
    c, (*vals, body) = _judgments(step, premises, None)
    _same_context(c, vals)
    (mapping,) = _appended(c, body, len(vals))
    for (x, s), p in zip(mapping.pairs, vals):
        if not alpha_eq(s, p.rhs):
            raise ValueError(f"mapped term for {x.name} does not match its premise")
        if not fixes(c.ctx, s):
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
    if not alpha_eq(img, Binder("eps", x, not_term(p.lhs) if forall else p.lhs)):
        raise ValueError("mapped term is not the matching choice term")
    if not alpha_eq(c.lhs, Binder("forall" if forall else "exists", x, p.lhs)):
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
    f = step.conclusion
    if isinstance(f, EqJudgment):
        raise ValueError("expected a lemma formula conclusion")
    if not (isinstance(f, App) and isinstance(f.fn, App)
            and isinstance(f.fn.fn, Const) and f.fn.fn.name == "=>"):
        raise ValueError("lemma must be an implication")
    kind = "forall" if step.rule == "inst_forall" else "exists"
    quant_side, inst_side = (f.fn.arg, f.arg) if kind == "forall" else (f.arg, f.fn.arg)
    if not (isinstance(quant_side, Binder) and quant_side.kind == kind):
        raise ValueError(f"lemma lacks a {kind} on the quantified side")
    x = quant_side.var
    if len(step.binding) != 1:
        raise ValueError("binding must name exactly one variable")
    name, t = step.binding[0]
    if name != x.name:
        raise ValueError(f"binding names {name}, the quantifier binds {x.name}")
    if sort_of(t) != x.sort:
        raise ValueError("instantiation term has the wrong sort")
    if not alpha_eq(inst_side, substitute(quant_side.body, {x.id: t})):
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
    return Report(results, verdict, trusted)


# ------------------------------------------------------- text format

def parse_certificate(text, filename="<certificate>"):
    """The Certificate that certificate text denotes; see the module
    docstring for its syntax."""
    from . import certreader

    return certreader.read_certificate(text, filename)


def print_certificate(cert):
    """The certificate text; see `hosmt.certprinter`."""
    from . import certprinter

    return certprinter.write_certificate(cert)
