"""Certificate checking: rule contracts, parsing, printing, soundness."""

import itertools
import math
import random

import pytest

from hosmt import certprinter, core, processor, signature, surface, typecheck
from hosmt.calculus import (BETA_THEORY, RULES, CertificateError, EqJudgment,
                            ProofStep, check_certificate, check_step,
                            parse_certificate, print_certificate)
from hosmt.context import EMPTY, apply_context, contexts_equal
from hosmt.core import (App, BOOL, Binder, Const, Fun, INT, Let, alpha_eq,
                        fresh_var, not_term)
from hosmt.sexpr import SourceError

from conftest import DATA

import cert_ref
import gen
import mutate

GOLDEN = ("example1.hoproof", "example2.hoproof", "example3.hoproof")


def load(name):
    path = DATA / name
    return parse_certificate(path.read_text(), filename=str(path))


def step(sid, rule, premises, ctx, lhs, rhs, **kw):
    return ProofStep(sid, rule, tuple(premises),
                     EqJudgment(ctx, lhs, rhs), **kw)


class TestGolden:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_valid_without_trust(self, name):
        report = check_certificate(load(name))
        assert report.verdict == "valid"
        assert report.trusted_count == 0

    def test_example1_final(self):
        cert = load("example1.hoproof")
        c = cert.final.conclusion
        assert c.ctx.is_empty()
        assert cert.final.rule == "beta"
        a = Const("a", INT)
        p = Const("p", Fun(INT, Fun(INT, INT)))
        x = fresh_var("x", INT)
        lhs = App(Binder("lambda", x, App(App(p, x), x)), a)
        rhs = App(App(p, a), a)
        assert alpha_eq(c.lhs, lhs) and alpha_eq(c.rhs, rhs)

    def test_example3_contains_trans_under_bind(self):
        cert = load("example3.hoproof")
        assert cert.final.rule == "bind"
        by_id = {s.id: s for s in cert.steps}
        (child,) = cert.final.premises
        assert by_id[child].rule == "trans"

    def test_rule_locality(self):
        # each step's verdict is a function of the step and its premises alone
        for name in GOLDEN:
            cert = load(name)
            report = check_certificate(cert)
            by_id = {s.id: s for s in cert.steps}
            for s, r in zip(cert.steps, report.results):
                local = check_step(s, [by_id[p] for p in s.premises])
                assert local.status == r.status

    def test_beta_let_kinship(self):
        # every beta step's premises also justify the corresponding let step
        found = 0
        for name in GOLDEN:
            cert = load(name)
            by_id = {s.id: s for s in cert.steps}
            for s in cert.steps:
                if s.rule != "beta":
                    continue
                p1, p2 = (by_id[p] for p in s.premises)
                tail = p2.conclusion.ctx.entry
                (x, _), = tail.pairs
                c = s.conclusion
                let_lhs = Let(((x, p1.conclusion.lhs),), p2.conclusion.lhs)
                ls = step("k", "let", (p1.id, p2.id), c.ctx, let_lhs, c.rhs)
                assert check_step(ls, [p1, p2]).status == "ok"
                found += 1
        assert found >= 5


class TestParsing:
    def test_unknown_rule(self):
        with pytest.raises(CertificateError) as e:
            parse_certificate("(step s1 :rule bita :conclusion (= 1 1))")
        assert "unknown rule bita" in str(e.value)

    def test_direct_refl(self):
        cert = parse_certificate(
            "(declare-fun a () Int)\n"
            "(step s1 :rule refl :context ((map (x a))) "
            ":conclusion (= x a))\n"
            "(step s2 :rule refl :conclusion (= a a))")
        assert [s.rule for s in cert.steps] == ["refl", "refl"]
        c = cert.steps[0].conclusion
        assert len(c.ctx.entries()) == 1
        assert apply_context(c.ctx, c.lhs) == c.rhs

    def test_missing_conclusion(self):
        with pytest.raises(CertificateError) as e:
            parse_certificate("(step s1 :rule refl)")
        assert "lacks a :conclusion" in str(e.value)

    def test_shared_variable_identity(self):
        # the same (name, sort) across steps is one variable
        cert = parse_certificate(
            "(declare-fun f (Int) Int)\n"
            "(step s1 :rule refl :context ((fix w Int) (map (x w))) "
            ":conclusion (= (f x) (f w)))\n"
            "(step s2 :rule refl :context ((fix w Int) (map (x w))) "
            ":conclusion (= x w))")
        c1, c2 = (s.conclusion for s in cert.steps)
        assert c1.ctx.entries()[0].var.id == c2.ctx.entries()[0].var.id

    @pytest.mark.parametrize("name", GOLDEN)
    def test_print_roundtrip(self, name):
        cert = load(name)
        text = print_certificate(cert)
        cert2 = parse_certificate(text)
        assert check_certificate(cert2).verdict == "valid"
        assert print_certificate(cert2) == text
        assert [s.rule for s in cert2.steps] == [s.rule for s in cert.steps]


class TestPerturbations:
    def test_example1_bad_leaf(self):
        text = (DATA / "example1.hoproof").read_text()
        bad = text.replace("(step r3 :rule refl :context ((map (x a))) "
                           ":conclusion (= x a))",
                           "(step r3 :rule refl :context ((map (x a))) "
                           ":conclusion (= x (p a a)))")
        assert bad != text
        report = check_certificate(parse_certificate(bad))
        assert report.verdict == "invalid"
        assert report.first_failure.id == "r3"

    def test_final_context_must_be_empty(self):
        cert = parse_certificate(
            "(declare-fun a () Int)\n"
            "(step s1 :rule refl :context ((map (x a))) "
            ":conclusion (= x a))")
        report = check_certificate(cert)
        assert report.verdict == "invalid"
        assert "non-empty context" in report.first_failure.message

    def test_duplicate_step_id(self):
        cert = parse_certificate(
            "(declare-fun a () Int)\n"
            "(step s1 :rule refl :conclusion (= a a))\n"
            "(step s1 :rule refl :conclusion (= a a))")
        assert check_certificate(cert).verdict == "invalid"

    def test_forward_premise_reference(self):
        cert = parse_certificate(
            "(declare-fun a () Int)\n"
            "(step s1 :rule trans :premises (s2 s2) :conclusion (= a a))\n"
            "(step s2 :rule refl :conclusion (= a a))")
        report = check_certificate(cert)
        assert report.verdict == "invalid"
        assert "unknown or later" in report.first_failure.message


class TestTaut:
    def test_beta_theory_validated(self):
        cert = parse_certificate(
            "(declare-fun a () Int)\n"
            "(step s1 :rule taut :theory beta "
            ":conclusion (= ((lambda ((x Int)) x) a) a))")
        report = check_certificate(cert)
        assert report.verdict == "valid" and report.trusted_count == 0

    def test_beta_theory_rejects(self):
        cert = parse_certificate(
            "(declare-fun a () Int)(declare-fun b () Int)\n"
            "(step s1 :rule taut :theory beta :conclusion (= a b))")
        report = check_certificate(cert)
        assert report.verdict == "invalid"
        assert "beta-normal" in report.first_failure.message

    def test_other_theories_trusted(self):
        cert = parse_certificate(
            "(step s1 :rule taut :theory arith "
            ":conclusion (= (+ 1 1) 2))")
        report = check_certificate(cert)
        assert report.verdict == "valid-with-trust"
        assert report.trusted_count == 1
        assert report.results[0].status == "trusted"


class TestSko:
    def setup_method(self):
        self.p = Const("p", Fun(INT, BOOL))
        self.x = fresh_var("x", INT)

    def test_sko_ex(self):
        x, p = self.x, self.p
        body = App(p, x)
        eps = Binder("eps", x, body)
        prem = step("p1", "refl", (), EMPTY.map([(x, eps)]),
                    body, App(p, eps))
        conc = step("c", "sko_ex", ("p1",), EMPTY,
                    Binder("exists", x, body), App(p, eps))
        assert check_step(prem, []).status == "ok"
        assert check_step(conc, [prem]).status == "ok"

    def test_sko_all(self):
        x, p = self.x, self.p
        body = App(p, x)
        eps = Binder("eps", x, not_term(body))
        prem = step("p1", "refl", (), EMPTY.map([(x, eps)]),
                    body, App(p, eps))
        conc = step("c", "sko_all", ("p1",), EMPTY,
                    Binder("forall", x, body), App(p, eps))
        assert check_step(conc, [prem]).status == "ok"

    def test_sko_ex_wrong_witness(self):
        # the mapped term must be the choice term for the body, not its negation
        x, p = self.x, self.p
        body = App(p, x)
        eps = Binder("eps", x, not_term(body))
        prem = step("p1", "refl", (), EMPTY.map([(x, eps)]),
                    body, App(p, eps))
        conc = step("c", "sko_ex", ("p1",), EMPTY,
                    Binder("exists", x, body), App(p, eps))
        r = check_step(conc, [prem])
        assert r.status == "invalid" and "choice term" in r.message


class TestInst:
    def test_inst_forall(self):
        cert = parse_certificate(
            "(declare-fun p (Int) Bool)(declare-fun a () Int)\n"
            "(step s1 :rule inst_forall :binding ((x a)) "
            ":conclusion (=> (forall ((x Int)) (p x)) (p a)))")
        assert check_certificate(cert).verdict == "valid"

    def test_inst_exists(self):
        cert = parse_certificate(
            "(declare-fun p (Int) Bool)(declare-fun a () Int)\n"
            "(step s1 :rule inst_exists :binding ((x a)) "
            ":conclusion (=> (p a) (exists ((x Int)) (p x))))")
        assert check_certificate(cert).verdict == "valid"

    def test_inst_forall_wrong_instance(self):
        cert = parse_certificate(
            "(declare-fun p (Int) Bool)"
            "(declare-fun a () Int)(declare-fun b () Int)\n"
            "(step s1 :rule inst_forall :binding ((x a)) "
            ":conclusion (=> (forall ((x Int)) (p x)) (p b)))")
        report = check_certificate(cert)
        assert report.verdict == "invalid"
        assert "not the substituted body" in report.first_failure.message

    def test_inst_forall_wrong_sort(self):
        cert = parse_certificate(
            "(declare-fun p (Int) Bool)(declare-fun f (Int) Int)\n"
            "(step s1 :rule inst_forall :binding ((x f)) "
            ":conclusion (=> (forall ((x Int)) (p x)) (p 1)))")
        report = check_certificate(cert)
        assert report.verdict == "invalid"
        assert "wrong sort" in report.first_failure.message


# premises each rule takes; let takes two or more
PREMISE_COUNTS = {"refl": 0, "trans": 2, "cong": 2, "bind": 1, "beta": 2,
                  "let": 2, "sko_ex": 1, "sko_all": 1, "taut": 0,
                  "inst_forall": 0, "inst_exists": 0}


class TestEveryRule:
    """Shape errors that every rule rejects the same way."""

    a = Const("a", INT)
    leaf = step("p", "refl", (), EMPTY, a, a)
    eq = EqJudgment(EMPTY, a, a)
    lemma = Const("c", BOOL)

    def rejected(self, rule, conclusion, n, premise=leaf):
        s = ProofStep("s9", rule, ("p",) * n, conclusion, theory=BETA_THEORY)
        r = check_step(s, [premise] * n)
        assert r.status == "invalid"
        assert r.message.startswith(f"{rule} step s9: ")
        return r.message

    def test_table_covers_every_rule(self):
        assert set(PREMISE_COUNTS) == set(RULES) and len(RULES) == 11

    @pytest.mark.parametrize("rule", RULES)
    def test_wrong_premise_count(self, rule):
        conclusion = self.lemma if rule.startswith("inst_") else self.eq
        n = 2 if PREMISE_COUNTS[rule] == 1 else 1
        assert "takes" in self.rejected(rule, conclusion, n)

    @pytest.mark.parametrize("rule", [r for r in RULES
                                      if not r.startswith("inst_")])
    def test_equality_rule_rejects_lemma(self, rule):
        message = self.rejected(rule, self.lemma, PREMISE_COUNTS[rule])
        assert "expected an equality conclusion" in message

    @pytest.mark.parametrize("rule", [r for r in RULES if PREMISE_COUNTS[r]])
    def test_rule_rejects_lemma_premise(self, rule):
        premise = ProofStep("p", "inst_forall", (), self.lemma)
        message = self.rejected(rule, self.eq, PREMISE_COUNTS[rule], premise)
        assert "premises must be equality judgments" in message

    @pytest.mark.parametrize("rule", ("inst_forall", "inst_exists"))
    def test_lemma_rule_rejects_equality(self, rule):
        message = self.rejected(rule, self.eq, 0)
        assert "expected a lemma formula conclusion" in message

    def test_zero_premise_cong_is_refl(self):
        b = Const("b", INT)
        assert check_step(step("s", "cong", (), EMPTY, self.a, self.a),
                          []).status == "ok"
        r = check_step(step("s", "cong", (), EMPTY, self.a, b), [])
        assert r.status == "invalid" and "right side" in r.message


class TestContextExtension:
    """A premise context is the conclusion context plus the rule's entries."""

    def setup_method(self):
        self.p = Const("p", Fun(INT, BOOL))
        self.x, self.y, self.w = (fresh_var(n, INT) for n in "xyw")

    @pytest.mark.parametrize("extra, kind, status", (
        pytest.param(False, "lambda", "ok", id="False-ok"),
        pytest.param(True, "lambda", "invalid", id="True-invalid"),
        pytest.param(False, "forall", "invalid", id="forall-invalid")))
    def test_bind(self, extra, kind, status):
        # kind: the binder of the right side; the left one is a lambda
        p, x, y = self.p, self.x, self.y
        base = EMPTY.fix(self.w) if extra else EMPTY
        prem = step("p1", "refl", (), base.fix(y).map([(x, y)]),
                    App(p, x), App(p, y))
        conc = step("c", "bind", ("p1",), EMPTY,
                    Binder("lambda", x, App(p, x)),
                    Binder(kind, y, App(p, y)))
        assert check_step(prem, []).status == "ok"
        r = check_step(conc, [prem])
        assert r.status == status
        assert (kind != "lambda") == ("share a forall/exists/lambda binder"
                                      in r.message)

    @pytest.mark.parametrize("extra, status", ((False, "ok"),
                                               (True, "invalid")))
    def test_sko_ex(self, extra, status):
        p, x = self.p, self.x
        base = EMPTY.fix(self.w) if extra else EMPTY
        eps = Binder("eps", x, App(p, x))
        prem = step("p1", "refl", (), base.map([(x, eps)]),
                    App(p, x), App(p, eps))
        conc = step("c", "sko_ex", ("p1",), EMPTY,
                    Binder("exists", x, App(p, x)), App(p, eps))
        r = check_step(conc, [prem])
        assert r.status == status
        assert extra == ("followed by a mapping of 1 variable" in r.message)


class TestSideConditions:
    def test_bind_capture_rejected(self):
        # premise (y, x -> y) |> y ~ y would conclude lambda x. y ~ lambda y. y,
        # but y occurs free on the left: the derivation must be rejected
        x = fresh_var("x", INT)
        y = fresh_var("y", INT)
        prem_ctx = EMPTY.fix(y).map([(x, y)])
        prem = step("p1", "refl", (), prem_ctx, y, y)
        conc = step("c", "bind", ("p1",), EMPTY, Binder("lambda", x, y),
                    Binder("lambda", y, y))
        r = check_step(conc, [prem])
        assert r.status == "invalid" and "side condition" in r.message

    def test_beta_non_invariant_argument_rejected(self):
        # the mapped term must be invariant under the conclusion context
        a = Const("a", INT)
        x = fresh_var("x", INT)
        z = fresh_var("z", INT)
        ctx = EMPTY.map([(x, a)])
        p1 = step("p1", "refl", (), ctx, x, x)  # (deliberately bogus shape)
        p2 = step("p2", "refl", (), ctx.map([(z, x)]), z, x)
        conc = step("c", "beta", ("p1", "p2"), ctx,
                    App(Binder("lambda", z, z), x), x)
        r = check_step(conc, [p1, p2])
        assert r.status == "invalid" and "side condition" in r.message

    def test_let_non_invariant_value_rejected(self):
        a = Const("a", INT)
        x = fresh_var("x", INT)
        v = fresh_var("v", INT)
        ctx = EMPTY.map([(x, a)])
        p1 = step("p1", "refl", (), ctx, x, x)
        p2 = step("p2", "refl", (), ctx.map([(v, x)]), v, x)
        conc = step("c", "let", ("p1", "p2"), ctx, Let(((v, x),), v), x)
        r = check_step(conc, [p1, p2])
        assert r.status == "invalid" and "side condition" in r.message


_DECLS = ("(declare-fun p (Int) Bool)\n(declare-fun f (Int) Int)\n"
          "(declare-fun a () Int)\n(declare-fun b () Int)\n")
_EPS = "(define @e (eps ((x Int)) (p x)))\n"


class TestRuleConditions:
    """Each condition of the bind, beta, let, sko and inst checks rejects a
    step that breaks only it."""

    @pytest.mark.parametrize("steps,message", [
        pytest.param(
            "(step s1 :rule refl :context ((fix y Int) (map (x a))) "
            ":conclusion (= (p x) (p a)))\n"
            "(step s2 :rule bind :premises (s1) :conclusion "
            "(= (forall ((x Int)) (p x)) (forall ((y Int)) (p a))))",
            "bind step s2: premise mapping must send the bound variable to "
            "the fixed one", id="bind-mapping"),
        pytest.param(
            _EPS + "(step s1 :rule refl :context ((map (x @e))) "
            ":conclusion (= (p x) (p @e)))\n"
            "(step s2 :rule sko_ex :premises (s1) :conclusion "
            "(= (exists ((x Int)) (p (f x))) (p @e)))",
            "sko_ex step s2: conclusion left side does not quantify the "
            "premise's left term", id="sko-left"),
        pytest.param(
            _EPS + "(step s1 :rule refl :context ((map (x @e))) "
            ":conclusion (= (p x) (p @e)))\n"
            "(step s2 :rule sko_ex :premises (s1) :conclusion "
            "(= (exists ((x Int)) (p x)) (p a)))",
            "sko_ex step s2: conclusion right side does not match the "
            "premise", id="sko-right"),
        pytest.param(
            "(step s1 :rule refl :conclusion (= b b))\n"
            "(step s2 :rule refl :context ((map (x b))) :conclusion (= x b))\n"
            "(step s3 :rule beta :premises (s1 s2) :conclusion "
            "(= ((lambda ((x Int)) x) a) b))",
            "beta step s3: redex argument does not match the first premise's "
            "left side", id="beta-argument"),
        pytest.param(
            "(step s1 :rule refl :conclusion (= a a))\n"
            "(step s2 :rule refl :context ((map (x a))) :conclusion (= x a))\n"
            "(step s3 :rule let :premises (s1 s2) :conclusion "
            "(= (let ((x a)) x) b))",
            "let step s3: conclusion right side does not match the body "
            "premise", id="let-right"),
        pytest.param(
            "(step i1 :rule inst_forall :binding ((y a)) :conclusion "
            "(=> (forall ((x Int)) (p x)) (p a)))",
            "inst_forall step i1: binding names y, the quantifier binds x",
            id="inst-binding-name"),
        pytest.param(
            "(step i1 :rule inst_forall :binding ((x a)) :conclusion "
            "(and (forall ((x Int)) (p x)) (p a)))",
            "inst_forall step i1: lemma must be an implication",
            id="inst-implication"),
        pytest.param(
            "(step i1 :rule inst_exists :binding ((x a)) :conclusion "
            "(or (p a) (exists ((x Int)) (p x))))",
            "inst_exists step i1: lemma must be an implication",
            id="inst-exists-implication"),
        pytest.param(
            "(step i1 :rule inst_forall :binding ((x a)) :conclusion "
            "(=> (exists ((x Int)) (p x)) (p a)))",
            "inst_forall step i1: lemma lacks a forall on the quantified "
            "side", id="inst-kind"),
        pytest.param(
            "(step i1 :rule inst_exists :binding ((x a)) :conclusion "
            "(=> (p a) (forall ((x Int)) (p x))))",
            "inst_exists step i1: lemma lacks a exists on the quantified "
            "side", id="inst-exists-kind"),
    ])
    def test_rejected(self, steps, message):
        report = check_certificate(parse_certificate(_DECLS + steps))
        assert report.verdict == "invalid"
        assert report.first_failure.message == message


class TestMutations:
    def test_kit_rejection_rate(self):
        rng = random.Random(99)
        total = 0
        rejected = 0
        for name in GOLDEN:
            cert = load(name)
            for _ in range(70):
                _, mutated = mutate.random_mutation(cert, rng)
                total += 1
                if check_certificate(mutated).verdict == "invalid":
                    rejected += 1
        assert total == 210
        assert rejected / total >= 0.95

    def test_each_mutation_kind_applies(self):
        rng = random.Random(7)
        cert = load("example3.hoproof")
        for m in mutate.MUTATIONS:
            assert m(cert, rng) is not None

    def test_side_condition_mutation(self):
        # each mutant reads back from its text and fails the side condition
        # of its mutated step, which no mutation in MUTATIONS reaches
        sig = signature.Signature()
        sig.symbols.update((c.name, c.sort) for c in gen.CONSTS)
        rng = random.Random(36)
        applied = 0
        for _ in range(72):
            cert = processor.process(gen.gen_closed(rng, depth=6), sig).certificate
            mutated = mutate.break_side_condition(cert, rng)
            if mutated is None:
                continue
            applied += 1
            report = check_certificate(
                parse_certificate(print_certificate(mutated)))
            assert any("side condition violated: context changes" in r.message
                       for r in report.results)
        assert applied >= 12

    def test_each_text_mutation_kind_applies(self):
        rng = random.Random(7)
        text = print_certificate(load("example3.hoproof"))
        for m in mutate.TEXT_MUTATIONS:
            assert m(text, rng) is not None

    def test_text_kit_rejection_rate(self):
        rng = random.Random(101)
        texts = [print_certificate(c) for c in
                 [load(n) for n in GOLDEN] + generated_certificates(103, 60)]
        texts = [t for t in texts if "(context " in t]
        total = rejected = 0
        for k in range(600):
            out = mutate.random_text_mutation(texts[k % len(texts)], rng)
            if out is None:
                continue
            total += 1
            try:
                cert = parse_certificate(out[1])
            except CertificateError:
                rejected += 1
                continue
            except SourceError:  # a term out of its variables' scope
                rejected += 1
                continue
            if check_certificate(cert).verdict == "invalid":
                rejected += 1
        assert total >= 500
        assert rejected / total >= 0.95

    @pytest.mark.parametrize("kind", (mutate.dangling_context,
                                      mutate.duplicate_context,
                                      mutate.dangling_term,
                                      mutate.duplicate_term))
    def test_bad_names_rejected_at_reference(self, kind):
        rng = random.Random(107)
        texts = [print_certificate(c) for c in
                 [load(n) for n in GOLDEN] + generated_certificates(109, 30)]
        for text in texts:
            out = kind(text, rng)
            if out is None:
                continue
            bad, pos = out
            with pytest.raises(CertificateError) as e:
                parse_certificate(bad)
            assert (e.value.line, e.value.col) == pos
            assert "defined twice" in e.value.message or \
                "unknown context" in e.value.message or \
                "unknown term" in e.value.message


def forall_script(n):
    """(forall ((x1 Int)) ... (forall ((xn Int)) (= (g xn (... (g x1 a))) a)))"""
    inner = "a"
    for i in range(1, n + 1):
        inner = f"(g x{i} {inner})"
    term = f"(= {inner} a)"
    for i in range(n, 0, -1):
        term = f"(forall ((x{i} Int)) {term})"
    return ("(declare-fun g (Int Int) Int)(declare-fun a () Int)"
            f"(assert {term})")


def processed_certificates(script):
    checked = typecheck.check_script(surface.parse_script(script), "<script>")
    return [processor.process(t, checked.signature).certificate
            for t in checked.asserts]


def generated_certificates(seed, count, depth=4):
    rng = random.Random(seed)
    return [processor.process(gen.gen_closed(rng, depth=depth)).certificate
            for _ in range(count)]


def context_nodes(cert):
    """Distinct non-empty context nodes the certificate's steps use."""
    seen = set()
    for s in cert.steps:
        if isinstance(s.conclusion, EqJudgment):
            ctx = s.conclusion.ctx
            while ctx.entry is not None and id(ctx) not in seen:
                seen.add(id(ctx))
                ctx = ctx.parent
    return len(seen)


class TestNamedContexts:
    TEXT = ("(declare-fun f (Int) Int)\n"
            "(context c1 () (fix w Int))\n"
            "(context c2 c1 (map (x w)))\n"
            "(step s1 :rule refl :context c2 :conclusion (= (f x) (f w)))\n"
            "(step s2 :rule refl :context ((fix w Int) (map (x w))) "
            ":conclusion (= x w))\n")

    def test_named_and_inline_contexts_agree(self):
        cert = parse_certificate(self.TEXT)
        c1, c2 = (s.conclusion.ctx for s in cert.steps)
        assert c1 is c2  # equal contexts are one node
        assert [type(e) for e in c1.entries()] == [type(e) for e in c2.entries()]
        assert c1.entries()[0].var.id == c2.entries()[0].var.id
        assert check_certificate(cert).verdict == "invalid"  # s2 is not empty

    def test_alpha_equal_images_compare_equal(self):
        # images that differ only by a bound name: distinct nodes that
        # contexts_equal still identifies
        cert = parse_certificate(
            "(step s1 :rule refl :context ((map (h (lambda ((z Int)) z)))) "
            ":conclusion (= h (lambda ((z Int)) z)))\n"
            "(step s2 :rule refl :context ((map (h (lambda ((u Int)) u)))) "
            ":conclusion (= h (lambda ((u Int)) u)))\n")
        c1, c2 = (s.conclusion.ctx for s in cert.steps)
        assert c1 is not c2
        assert contexts_equal(c1, c2)

    def test_named_context_is_shared(self):
        cert = parse_certificate(self.TEXT.replace(
            "((fix w Int) (map (x w)))", "c2"))
        c1, c2 = (s.conclusion.ctx for s in cert.steps)
        assert c1 is c2

    def test_inline_parent(self):
        cert = parse_certificate(
            "(declare-fun a () Int)\n"
            "(context k ((fix w Int)) (map (x w)))\n"
            "(step s1 :rule refl :context k :conclusion (= x w))\n"
            "(step s2 :rule refl :context () :conclusion (= a a))\n")
        assert len(cert.steps[0].conclusion.ctx.entries()) == 2
        assert cert.steps[1].conclusion.ctx.is_empty()

    def test_own_namespace(self):
        # a context may share its name with a symbol, a variable or a step
        cert = parse_certificate(
            "(declare-fun a () Int)\n"
            "(context a () (map (x a)))\n"
            "(context s1 a (fix x Int))\n"
            "(step s1 :rule refl :context a :conclusion (= x a))\n"
            "(step s2 :rule refl :context s1 :conclusion (= x x))\n")
        assert check_certificate(cert).results[0].status == "ok"
        assert len(cert.steps[1].conclusion.ctx.entries()) == 2

    @pytest.mark.parametrize("text,msg,pos", [
        ("(step s1 :rule refl :context c9 :conclusion (= 1 1))",
         "unknown context c9", (1, 30)),
        ("(context c1 () (fix w Int))\n(context c2 c3 (fix y Int))",
         "unknown context c3", (2, 13)),
        ("(context c1 c1 (fix w Int))", "unknown context c1", (1, 13)),
        ("(context c1 () (fix w Int))\n(context c1 () (fix y Int))",
         "context c1 defined twice", (2, 10)),
        ("(context c1 () (fix w Int) (fix y Int))",
         "expected (context <name> <context> <entry>)", (1, 1)),
        ("(context c1 () (bind w Int))", "unknown context entry", (1, 16)),
        ("(step s1 :rule refl :context 3 :conclusion (= 1 1))",
         "expected a context name or entry list", (1, 30)),
    ])
    def test_errors_at_position(self, text, msg, pos):
        with pytest.raises(CertificateError) as e:
            parse_certificate(text)
        assert e.value.message == msg
        assert (e.value.line, e.value.col) == pos

    def test_scope_follows_the_context_tree(self):
        # c2 rebinds x at another sort; after a step in c2, c3 and c1
        # must see c1's x again, and c4 must not see y
        cert = parse_certificate(
            "(context c1 () (fix x Int))\n"
            "(context c2 c1 (fix x Bool))\n"
            "(context c3 c1 (map (y x)))\n"
            "(context c4 c2 (fix z Bool))\n"
            "(step s1 :rule refl :context c2 :conclusion (= x x))\n"
            "(step s2 :rule refl :context c3 :conclusion (= y x))\n"
            "(step s3 :rule refl :context c1 :conclusion (= x x))\n"
            "(step s4 :rule refl :context c4 :conclusion (= z x))\n")
        sorts = [s.conclusion.rhs.sort for s in cert.steps]
        assert sorts == [BOOL, INT, INT, BOOL]
        with pytest.raises(SourceError, match="4:48: error: unbound symbol y"):
            parse_certificate(
                "(context c1 () (map (y 1)))\n(context c2 () (fix x Int))\n"
                "(step s1 :rule refl :context c1 :conclusion (= y y))\n"
                "(step s2 :rule refl :context c2 :conclusion (= y y))\n")

    def test_chain_scope_memory(self):
        # 4,000 named contexts with distinct names: one scope moves along
        # the chain instead of a copy per context
        import tracemalloc
        n = 4000
        lines = ["(context c1 () (fix x1 Int))"]
        lines += [f"(context c{k} c{k - 1} (fix x{k} Int))"
                  for k in range(2, n + 1)]
        lines.append(f"(step s1 :rule refl :context c{n} "
                     f":conclusion (= x{n} x1))")
        text = "\n".join(lines) + "\n"
        tracemalloc.start()
        try:
            cert = parse_certificate(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cert.steps[0].conclusion.ctx.entries()) == n
        assert peak < 25 * 2**20

    def test_one_line_per_context_node(self):
        (cert,) = processed_certificates(forall_script(24))
        text = print_certificate(cert)
        lines = text.splitlines()
        assert sum(l.startswith("(context ") for l in lines) == 48
        assert context_nodes(cert) == 48
        assert ":context ((" not in text
        assert len(text) < len(cert_ref.print_certificate(cert)) / 2

    def test_definitions_precede_use(self):
        for cert in generated_certificates(61, 30):
            defined = set()
            for line in print_certificate(cert).splitlines():
                m = mutate._DEF.match(line)
                if m:
                    assert m.group(2) == "()" or m.group(2) in defined
                    defined.add(m.group(1))
                m = mutate._USE.match(line)
                if m:
                    assert m.group(1) in defined

    def test_premise_contexts_share_nodes(self):
        # once parsed, a bind premise's context extends the very conclusion
        # context, so the checker's comparison stops at the first node
        (cert,) = processed_certificates(forall_script(6))
        cert = parse_certificate(print_certificate(cert))
        by_id = {s.id: s for s in cert.steps}
        binds = [s for s in cert.steps if s.rule == "bind"]
        assert len(binds) == 6
        for s in binds:
            (p,) = (by_id[i] for i in s.premises)
            assert p.conclusion.ctx.parent.parent is s.conclusion.ctx

    def test_variable_names_unchanged(self):
        certs = (generated_certificates(67, 40)
                 + processed_certificates(forall_script(8)))
        for cert in certs:
            assert (certprinter._Printer(cert).names
                    == cert_ref._assign_names(cert))


class TestReferencePrinter:
    """The named printer against the inline one it replaced."""

    @staticmethod
    def statuses(text):
        try:
            cert = parse_certificate(text)
        except SourceError as e:
            return type(e).__name__
        report = check_certificate(cert)
        return report.verdict, [(r.id, r.status) for r in report.results]

    def certificates(self, depth):
        return ([load(n) for n in GOLDEN]
                + processed_certificates(forall_script(5))
                + generated_certificates(71, 40, depth))

    def test_same_statuses(self):
        for cert in self.certificates(4):
            named = self.statuses(print_certificate(cert))
            assert named == self.statuses(cert_ref.print_certificate(cert))
            assert named[0] == "valid"

    def test_same_statuses_on_mutants(self):
        rng = random.Random(73)
        certs = self.certificates(3)
        verdicts = []
        for k in range(1000):
            _, bad = mutate.random_mutation(certs[k % len(certs)], rng)
            named = self.statuses(print_certificate(bad))
            assert named == self.statuses(cert_ref.print_certificate(bad))
            verdicts.append(named if isinstance(named, str) else named[0])
        assert verdicts.count("valid") < len(verdicts) / 20


def let_chain_script(n):
    """x1 := (g a a), x(i+1) := (g xi xi), ..., asserted equal to a."""
    body = f"x{n}"
    for i in range(n, 0, -1):
        prev = "a" if i == 1 else f"x{i - 1}"
        body = f"(let ((x{i} (g {prev} {prev}))) {body})"
    return ("(declare-fun g (Int Int) Int)(declare-fun a () Int)"
            f"(assert (= {body} a))")


def expand(text):
    """The certificate text with every term name written out in place."""
    defs, out = {}, []
    for line in text.splitlines():
        line = mutate._TERM_REF.sub(lambda m: defs.get(m.group(), m.group()),
                                    line)
        m = mutate._TERM_DEF.match(line)
        if m is None:
            out.append(line)
        elif m.group(1) not in defs:
            defs[m.group(1)] = line[m.end():-1]
    return "\n".join(out) + "\n"


class TestTermNames:
    """(define @<name> <term>): one node per repeated term."""

    DECLS = "(declare-fun f (Int) Int)\n(declare-fun a () Int)\n"
    USED = ("(context c1 () (fix x Int))\n"
            "(define @t1 (f x))\n"
            "(step s1 :rule refl :context c1 :conclusion (= @t1 @t1))\n")

    def test_reference_is_the_node(self):
        cert = parse_certificate(
            self.DECLS + self.USED
            + "(step s2 :rule refl :conclusion "
              "(= (lambda ((x Int)) @t1) (lambda ((x Int)) (f x))))\n")
        c1, c2 = (s.conclusion for s in cert.steps)
        assert c1.lhs is c1.rhs
        # a binder over the context variable takes the named term as its
        # body, and one text is one node wherever it is read
        assert c2.lhs.body is c1.lhs and c2.lhs is c2.rhs
        assert check_certificate(cert).verdict == "valid"

    # ^ marks where the error is reported
    @pytest.mark.parametrize("text,msg", [
        # a binder rebinds x with another sort
        (USED + "(step s2 :rule refl :context c1 :conclusion "
                "(= (lambda ((x Bool)) ^@t1) (lambda ((x Bool)) (f 1))))",
         "term @t1 uses x, which means another variable here"),
        # the step's context lacks x
        (USED + "(step s2 :rule refl :conclusion (= ^@t1 (f 1)))",
         "term @t1 uses x, which means another variable here"),
        # a binder hides the constant f
        ("(define @t2 (f a))\n(step s1 :rule refl :conclusion (= @t2 @t2))\n"
         "(step s2 :rule refl :conclusion "
         "(= (lambda ((f Int)) ^@t2) (lambda ((f Int)) f)))",
         "term @t2 uses constant f, which a variable hides here"),
        ("(define @t1 (f ^@t1))", "unknown term @t1"),
        ("(define @t1 (f ^@t2))\n(define @t2 a)", "unknown term @t2"),
        ("(step s1 :rule refl :conclusion (= ^@t3 a))", "unknown term @t3"),
        ("(define @t1 a)\n(define ^@t1 (f a))", "term @t1 defined twice"),
        ("(declare-fun @t1 () Int)\n(define ^@t1 a)",
         "term @t1 is a declared symbol"),
        ("(define @t1 a)\n(declare-fun ^@t1 () Int)",
         "term @t1 is a declared symbol"),
    ])
    def test_rejected_at_reference(self, text, msg):
        text = self.DECLS + text
        at = text.index("^")
        text = text.replace("^", "")
        with pytest.raises(CertificateError) as e:
            parse_certificate(text)
        assert e.value.message == msg
        line = text.count("\n", 0, at) + 1
        assert (e.value.line, e.value.col) == (
            line, at - text.rfind("\n", 0, at))

    def test_wrong_variable_named_whatever_the_ids(self):
        # of the free variables that mean another one at the use, the
        # message names the first the certificate registered, however far
        # the process's variable counter has run
        text = ("(declare-fun g (Int Int Int) Int)\n"
                "(context c1 () (fix x Int))\n(context c2 c1 (fix y Int))\n"
                "(context c3 c2 (fix z Int))\n(define @t1 (g x y z))\n"
                "(step s1 :rule refl :context c3 :conclusion (= @t1 @t1))\n"
                "(step s2 :rule refl :conclusion (= @t1 (g 1 1 1)))")
        start = next(core._counter)
        messages = set()
        for offset in range(0, 40, 5):  # ascending: no id is made twice
            core._counter = itertools.count(start + offset)
            with pytest.raises(CertificateError) as e:
                parse_certificate(text)
            messages.add(e.value.message)
        assert messages == {"term @t1 uses x, which means another variable "
                            "here"}

    def test_bad_define_line(self):
        with pytest.raises(CertificateError) as e:
            parse_certificate("(define t1 1)")
        assert e.value.message == "expected (define @<name> <term>)"

    def test_declared_at_symbol_is_a_constant(self):
        cert = parse_certificate("(declare-fun @c () Int)\n"
                                 "(step s1 :rule refl :conclusion (= @c @c))")
        assert check_certificate(cert).verdict == "valid"

    def test_term_names_avoid_declared_symbols(self):
        cert = parse_certificate(self.DECLS + "(declare-fun @t1 () Int)\n"
                                 "(step s1 :rule refl :conclusion "
                                 "(= (f @t1) (f @t1)))")
        text = print_certificate(cert)
        assert "(define @t2 (f @t1))" in text
        assert check_certificate(parse_certificate(text)).verdict == "valid"

    def test_meaning_is_textual_expansion(self):
        # accepted texts get the statuses of their expansions, mutants
        # included
        rng = random.Random(113)
        texts = [print_certificate(c) for c in
                 [load(n) for n in GOLDEN]
                 + processed_certificates(forall_script(5))
                 + generated_certificates(127, 40, 3)]
        assert all("(define " in t for t in texts[:3])
        mutants = [mutate.random_text_mutation(texts[k % len(texts)], rng)
                   for k in range(300)]
        accepted = 0
        for text in texts + [m[1] for m in mutants if m is not None]:
            named = TestReferencePrinter.statuses(text)
            if isinstance(named, str):
                continue
            accepted += 1
            assert named == TestReferencePrinter.statuses(expand(text))
        assert accepted > len(texts)

    def test_let_chain_certificate_is_small(self):
        # 454 bytes of input, whose let-free form has 2^16 leaves
        (cert,) = processed_certificates(let_chain_script(16))
        text = print_certificate(cert)
        assert len(text) < 100_000
        assert check_certificate(parse_certificate(text)).verdict == "valid"

    def test_forall_bytes_grow_linearly(self):
        sizes = [len(print_certificate(processed_certificates(
            forall_script(n))[0])) for n in (24, 48)]
        assert math.log2(sizes[1] / sizes[0]) <= 1.2
