"""Proof-producing processing: certificates, fidelity, and lemmas."""

import itertools
import math
import random
from collections import Counter

import pytest

from hosmt import context
from hosmt.calculus import (Certificate, ProofStep, check_certificate,
                            check_step, parse_certificate, print_certificate)
from hosmt.core import (App, BOOL, Binder, Const, Fun, INT, Let, Var,
                        alpha_eq, beta_normal_form, fresh_var, sort_of,
                        sort_str, substitute)
from hosmt.processor import process, signature_for_term
from hosmt.surface import parse_script
from hosmt.signature import Signature
from hosmt.typecheck import check_script

from conftest import best_times, recursion_limit

import gen
from oracle_ref import beta_step, expand_lets

INTI = Fun(INT, INT)


def example1_term():
    p = Const("p", Fun(INT, Fun(INT, INT)))
    a = Const("a", INT)
    x = fresh_var("x", INT)
    return App(Binder("lambda", x, App(App(p, x), x)), a), App(App(p, a), a)


def example2_term():
    f = Const("f", INTI)
    p = Const("p", INTI)
    x, y, z = (fresh_var(n, INT) for n in "xyz")
    t = Binder("lambda", x, App(
        Binder("lambda", y, App(Binder("lambda", z, App(p, z)), y)),
        App(f, x)))
    w = fresh_var("w", INT)
    return t, Binder("lambda", w, App(p, App(f, w)))


def example3_term():
    p = Const("p", INTI)
    y = fresh_var("y", INT)
    xa, za = fresh_var("x", INTI), fresh_var("z", INTI)
    xb, xc = fresh_var("x", INT), fresh_var("x", INT)
    left = App(Binder("lambda", xa, App(Binder("lambda", za, za), xa)),
               Binder("lambda", xb, y))
    right = App(Binder("lambda", xc, App(p, xc)), y)
    t = Binder("lambda", y, App(left, right))
    w = fresh_var("w", INT)
    return t, Binder("lambda", w, w)


class TestExamples:
    def test_example1(self):
        t, want = example1_term()
        result = process(t)
        assert alpha_eq(result.term, want)
        report = check_certificate(result.certificate)
        assert report.verdict == "valid"
        final = result.certificate.final.conclusion
        assert final.ctx.is_empty()
        assert alpha_eq(final.lhs, t) and alpha_eq(final.rhs, want)
        rules = Counter(s.rule for s in result.certificate.steps)
        assert rules == {"beta": 1, "cong": 2, "refl": 3}

    def test_example2(self):
        t, want = example2_term()
        result = process(t)
        assert alpha_eq(result.term, want)
        assert check_certificate(result.certificate).verdict == "valid"
        assert result.certificate.final.rule == "bind"

    def test_example3(self):
        t, want = example3_term()
        result = process(t)
        assert alpha_eq(result.term, want)
        assert check_certificate(result.certificate).verdict == "valid"
        rules = Counter(s.rule for s in result.certificate.steps)
        assert rules["trans"] == 1
        assert result.certificate.final.rule == "bind"

    def test_example3_canonical_names(self):
        # binder variables are renamed to the canonical fresh family w, w1, ...
        t, _ = example3_term()
        result = process(t)
        assert result.term.kind == "lambda"
        assert result.term.var.name == "w"
        names = set()
        for s in result.certificate.steps:
            for e in s.conclusion.ctx.entries():
                if hasattr(e, "var"):
                    names.add(e.var.name)
        assert names == {"w", "w1"}


class TestGeneralProperties:
    def test_semantic_agreement(self):
        rng = random.Random(51)
        for _ in range(150):
            t = gen.gen_closed(rng, depth=4)
            result = process(t)
            assert alpha_eq(result.term,
                            beta_normal_form(expand_lets(t)))

    def test_certificates_valid_without_trust(self):
        rng = random.Random(53)
        for _ in range(150):
            t = gen.gen_closed(rng, depth=4)
            result = process(t)
            report = check_certificate(result.certificate)
            assert report.verdict == "valid", report.first_failure
            assert report.trusted_count == 0

    def test_final_judgment_fidelity(self):
        rng = random.Random(57)
        for _ in range(100):
            t = gen.gen_closed(rng, depth=4)
            result = process(t)
            final = result.certificate.final.conclusion
            assert final.ctx.is_empty()
            assert alpha_eq(final.lhs, t)
            assert alpha_eq(final.rhs, result.term)

    def test_already_normal_plain_term(self):
        f = Const("f", INTI)
        a = Const("a", INT)
        t = App(f, App(f, a))
        result = process(t)
        assert result.term == t
        assert [s.rule for s in result.certificate.steps] == ["refl"]

    def test_let_step_emitted(self):
        a = Const("a", INT)
        f = Const("f", INTI)
        v = fresh_var("v", INT)
        t = Let(((v, a),), App(f, v))
        result = process(t)
        assert alpha_eq(result.term, App(f, a))
        assert result.certificate.final.rule == "let"
        assert check_certificate(result.certificate).verdict == "valid"

    def test_processed_term_is_processed(self):
        # beta-normal, let-free, and invariant under reprocessing
        rng = random.Random(61)
        for _ in range(100):
            t = gen.gen_closed(rng, depth=4)
            u = process(t).term
            assert beta_step(u) is None
            assert alpha_eq(process(u).term, u)

    def test_nested_binders_process_in_linear_time(self):
        # the one-refl shortcut asks the context about the free variables
        # first, so a term under n mapped binders is not walked n times
        def forall(n):
            inner = "a"
            for i in range(1, n + 1):
                inner = f"(g x{i} {inner})"
            term = f"(= {inner} a)"
            for i in range(n, 0, -1):
                term = f"(forall ((x{i} Int)) {term})"
            checked = check_script(parse_script(
                "(declare-fun g (Int Int) Int)"
                f"(declare-fun a () Int)(assert {term})"))
            return checked.asserts[0], checked.signature

        def run(job):
            context.context_subst.cache_clear()
            process(*job)

        with recursion_limit(10_000):
            t64, t256 = best_times(run, [forall(64), forall(256)], 9)
        assert math.log(t256 / t64, 4) <= 1.4

    def test_eps_rejected(self):
        p = Const("p", Fun(INT, BOOL))
        x = fresh_var("x", INT)
        t = App(p, Binder("eps", x, App(p, x)))
        with pytest.raises(ValueError) as e:
            process(t)
        assert "choice binder" in str(e.value)

    def test_signature_for_term(self):
        t, _ = example1_term()
        sig = signature_for_term(t)
        assert set(sig.symbols) == {"p", "a"}
        assert sig.symbols["a"] == INT


# ------------------------------------------------- instantiation lemmas
# `process` emits no inst_* step; these producers make the lemma steps
# that the checker's inst_* rules read.

_inst_ids = itertools.count(1)


def implies_term(a, b):
    return App(App(Const("=>", Fun(BOOL, Fun(BOOL, BOOL))), a), b)


def _instantiate(phi, t, kind):
    if not (isinstance(phi, Binder) and phi.kind == kind):
        article = "a universal" if kind == "forall" else "an existential"
        found = (phi.kind if isinstance(phi, Binder)
                 else type(phi).__name__.lower())
        raise ValueError(f"not {article}: a {found} term")
    x = phi.var
    if sort_of(t) != x.sort:
        raise ValueError(
            f"instantiation term has sort {sort_str(sort_of(t))}, "
            f"expected {sort_str(x.sort)}")
    inst = substitute(phi.body, {x.id: t})
    if kind == "forall":
        formula = implies_term(phi, inst)
        rule = "inst_forall"
    else:
        formula = implies_term(inst, phi)
        rule = "inst_exists"
    step = ProofStep(f"i{next(_inst_ids)}", rule, (), formula,
                     binding=((x.name, t),))
    return formula, step


def instantiate_forall(phi, t):
    """The lemma (forall x. body) => body[x := t] with its inst step."""
    return _instantiate(phi, t, "forall")


def instantiate_exists(phi, t):
    """The lemma body[x := t] => (exists x. body) with its inst step."""
    return _instantiate(phi, t, "exists")


class TestInstantiation:
    def setup_method(self):
        self.p = Const("p", Fun(INT, BOOL))
        self.q = Const("q", Fun(INTI, BOOL))
        self.a = Const("a", INT)

    def test_forall_int(self):
        x = fresh_var("x", INT)
        phi = Binder("forall", x, App(self.p, x))
        lemma, step = instantiate_forall(phi, self.a)
        assert check_step(step, []).status == "ok"
        # the instance side is the substituted body
        assert alpha_eq(lemma.arg, App(self.p, self.a))

    def test_exists_int(self):
        x = fresh_var("x", INT)
        phi = Binder("exists", x, App(self.p, x))
        lemma, step = instantiate_exists(phi, self.a)
        assert check_step(step, []).status == "ok"
        assert alpha_eq(lemma.fn.arg, App(self.p, self.a))

    def test_forall_higher_order_instance(self):
        g = fresh_var("g", INTI)
        phi = Binder("forall", g, App(self.q, g))
        y = fresh_var("y", INT)
        ident = Binder("lambda", y, y)
        lemma, step = instantiate_forall(phi, ident)
        assert check_step(step, []).status == "ok"
        assert alpha_eq(lemma.arg, App(self.q, ident))

    def test_lemma_steps_round_trip(self):
        x, y = fresh_var("x", INT), fresh_var("x", INT)
        _, s1 = instantiate_forall(Binder("forall", x, App(self.p, x)), self.a)
        _, s2 = instantiate_exists(Binder("exists", y, App(self.p, y)), self.a)
        sig = Signature()
        sig.symbols.update(p=self.p.sort, a=self.a.sort)
        text = print_certificate(Certificate((s1, s2), sig))
        assert text == (
            "(declare-fun p (Int) Bool)\n(declare-fun a () Int)\n"
            "(define @t1 (p a))\n"
            f"(step {s1.id} :rule inst_forall :binding ((x a)) :conclusion "
            "(=> (forall ((x Int)) (p x)) @t1))\n"
            f"(step {s2.id} :rule inst_exists :binding ((x a)) :conclusion "
            "(=> @t1 (exists ((x Int)) (p x))))\n")
        assert check_certificate(parse_certificate(text)).verdict == "valid"

    def test_not_a_universal(self):
        with pytest.raises(ValueError) as e:
            instantiate_forall(App(self.p, self.a), self.a)
        assert "not a universal" in str(e.value)

    def test_sort_mismatch(self):
        x = fresh_var("x", INT)
        phi = Binder("forall", x, App(self.p, x))
        y = fresh_var("y", INT)
        with pytest.raises(ValueError) as e:
            instantiate_forall(phi, Binder("lambda", y, y))
        assert "sort" in str(e.value)
