"""Reading certificate text into a `calculus.Certificate`.

The syntax and the meaning of term names are described in `hosmt.calculus`;
`calculus.parse_certificate` is the entry point.  Terms are elaborated by
`typecheck.infer_sort` with two reader hooks: binder and `let` variables
come from the certificate's (name, sort) registry, as context variables do,
and `@`-names are resolved by `_CertParser.term_ref`.
"""

from . import core, sexpr, surface, typecheck
from .calculus import (LEMMA_RULES, RULES, Certificate, CertificateError,
                       EqJudgment, LemmaFormula, ProofStep)
from .context import EMPTY, Fix, path
from .core import BOOL, const_names, free_vars
from .sexpr import SList, Token
from .typecheck import Signature, TypingEnv, infer_sort, normalize_sort


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
        # scope maps the names of the variables of the context at `at` to
        # them; undo holds, per entry of that context, what entering it
        # overwrote in scope
        self.at, self.scope, self.undo = EMPTY, {}, []
        self.terms = {}  # term name -> [surface term, node, sort]
        self.env = TypingEnv(self.sig, arith=True, filename=filename,
                             make_var=self.var_for, lookup_ref=self.term_ref)

    def var_for(self, name, sort):
        key = (name, sort)
        if key not in self.registry:
            v = self.registry[key] = core.fresh_var(name, sort)
            self.by_id[v.id] = v
        return self.registry[key]

    def error(self, msg, e):
        return CertificateError(msg, *sexpr.sexpr_pos(e), self.filename)

    def elab(self, e, scope):
        self.env.scopes = [scope]
        return infer_sort(self.env, surface.term_from_sexpr(e, self.filename))

    def term_ref(self, env, sid):
        """The node a term name denotes at this use (TypingEnv hook).

        The first use elaborates the definition in its own scope; a later
        use gets the same node when each of its free variables is what its
        name means here and no local variable hides one of its constants.
        """
        name = sid.name
        d = self.terms.get(name)
        if d is None:
            if name in self.sig.symbols:
                return None
            raise CertificateError(f"unknown term {name}", *sid.pos,
                                   self.filename)
        if d[1] is None:
            d[1], d[2] = infer_sort(env, d[0])
            return d[1], d[2]
        for i in free_vars(d[1]):
            v = self.by_id[i]
            if env.lookup_var(v.name) is not v:
                raise CertificateError(f"term {name} uses {v.name}, which "
                                       "means another variable here",
                                       *sid.pos, self.filename)
        for c in const_names(d[1]):
            if env.lookup_var(c) is not None:
                raise CertificateError(f"term {name} uses constant {c}, "
                                       "which a variable hides here",
                                       *sid.pos, self.filename)
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
        """The context a :context value denotes; `scope` then holds its
        variables."""
        if e is None:
            self.move(EMPTY)
            return EMPTY
        if _is_sym(e):
            if e.text not in self.contexts:
                raise self.error(f"unknown context {e.text}", e)
            self.move(self.contexts[e.text])
            return self.at
        if not isinstance(e, SList):
            raise self.error("expected a context name or entry list", e)
        self.move(EMPTY)
        for entry in e.items:
            self.enter(self.extend(entry))
        return self.at

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
        self.enter(self.extend(items[3]))
        self.contexts[name.text] = self.at

    def move(self, ctx):
        """Brings `scope` from the context at `at` to ctx."""
        if ctx is self.at:
            return
        up, down = path(self.at, ctx)
        scope = self.scope
        for _ in up:
            for name, old in reversed(self.undo.pop()):
                if old is None:
                    del scope[name]
                else:
                    scope[name] = old
        for node in down:
            self.enter(node)
        self.at = ctx

    def enter(self, node):
        """Binds the variables of node's entry; node extends `at`."""
        e, scope, saved = node.entry, self.scope, []
        for v, _ in ((e.var, None),) if isinstance(e, Fix) else e.pairs:
            saved.append((v.name, scope.get(v.name)))
            scope[v.name] = v
        self.undo.append(saved)
        self.at = node

    def extend(self, entry):
        """The context at `at` extended by one (fix ...) or (map ...)
        entry, whose images are elaborated in `scope`."""
        if not isinstance(entry, SList) or not entry.items:
            raise self.error("expected (fix ...) or (map ...)", entry)
        head = entry.items[0]
        if _is_sym(head, "fix"):
            if len(entry.items) != 3 or not _is_sym(entry.items[1]):
                raise self.error("expected (fix <name> <sort>)", entry)
            name = entry.items[1].text
            ssort = surface.sort_from_sexpr(entry.items[2], self.filename)
            sort = normalize_sort(ssort, self.sig, self.filename)
            return self.at.fix(self.var_for(name, sort))
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
            img, sort = self.elab(item.items[1], self.scope)
            pairs.append((self.var_for(name, sort), img))
        try:
            return self.at.map(pairs)
        except ValueError as err:
            raise self.error(str(err), entry)

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
            ctx = self.parse_context(kw.get(":context"))
            ce = kw[":conclusion"]
            if (not isinstance(ce, SList) or len(ce.items) != 3
                    or not _is_sym(ce.items[0], "=")):
                raise self.error("expected (= <term> <term>)", ce)
            lhs, ls = self.elab(ce.items[1], self.scope)
            rhs, rs = self.elab(ce.items[2], self.scope)
            if ls != rs:
                raise self.error("conclusion sides have different sorts", ce)
            conclusion = EqJudgment(ctx, lhs, rhs)
        return ProofStep(step_id, rule, premises, conclusion, binding, theory,
                         *sexpr.sexpr_pos(e))


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
        if isinstance(cmd, surface.CDeclareSort):
            parser.sig.declare_sort(cmd.name, cmd.arity, cmd.pos, filename)
        elif isinstance(cmd, surface.CDeclareFun):
            if cmd.name in parser.terms:
                raise parser.error(f"term {cmd.name} is a declared symbol",
                                   e.items[1])
            sort = typecheck.normalize_decl(cmd.arg_sorts, cmd.result,
                                            parser.sig, filename)
            parser.sig.declare_fun(cmd.name, sort, cmd.pos, filename)
        else:
            raise parser.error("only declarations and steps are allowed", e)
    if not steps:
        raise CertificateError("certificate has no steps", 1, 1, filename)
    return Certificate(tuple(steps), parser.sig)
