"""Signatures, sort inference, elaboration, and printing back to text."""

import math
import random

import pytest

from hosmt import surface
from hosmt.certprinter import print_term
from hosmt.core import BOOL, Fun, INT, alpha_eq, sort_of
from hosmt.surface import parse_script, parse_term
from hosmt.typecheck import (Signature, SortError, TypingEnv, check_script,
                             infer_sort, normalize_decl, normalize_sort)

from conftest import DATA, best_times, parse_sort, recursion_limit

import gen
from oracle_ref import beta_step


def sorts(*texts):
    return [parse_sort(t) for t in texts]


def make_env(decls, logic=None):
    sig = Signature()
    for name, args, res in decls:
        sig.declare_fun(name, normalize_decl(sorts(*args), parse_sort(res), sig))
    from hosmt.typecheck import logic_has_arith
    return TypingEnv(sig, logic_has_arith(logic))


class TestNormalizeDecl:
    def test_flat(self):
        assert normalize_decl(sorts("Int", "Int"), parse_sort("Int"),
                              Signature()) == Fun(INT, Fun(INT, INT))

    def test_mixed(self):
        assert normalize_decl(sorts("Int"), parse_sort("(-> Int Int)"),
                              Signature()) == Fun(INT, Fun(INT, INT))

    def test_nullary(self):
        assert normalize_decl([], parse_sort("Bool"), Signature()) == BOOL

    def test_three_declarations_coincide(self):
        forms = [([], "(-> Int (-> Int Int))"),
                 (["Int"], "(-> Int Int)"),
                 (["Int", "Int"], "Int"),
                 ([], "(-> Int Int Int)")]
        results = {normalize_decl(sorts(*args), parse_sort(res), Signature())
                   for args, res in forms}
        assert len(results) == 1

    def test_unknown_sort(self):
        with pytest.raises(SortError):
            normalize_decl(sorts("Elephant"), parse_sort("Int"), Signature())


class TestInferSort:
    def test_partial_application(self):
        env = make_env([("g", ("Int", "Int"), "Int")])
        _, s = infer_sort(env, parse_term("(g 1)"))
        assert s == Fun(INT, INT)

    def test_higher_order_argument(self):
        env = make_env([("f", ("(-> Int Int)",), "Int"),
                        ("h", ("Int", "Int"), "Int")])
        _, s = infer_sort(env, parse_term("(f (h 1))"))
        assert s == INT

    def test_identity_lambda(self):
        env = make_env([])
        _, s = infer_sort(env, parse_term("(lambda ((x Int)) x)"))
        assert s == Fun(INT, INT)

    def test_curry_equivalence(self):
        env = make_env([("g", ("Int", "Int"), "Int")])
        t1, _ = infer_sort(env, parse_term("((g 1) 2)"))
        t2, _ = infer_sort(env, parse_term("(g 1 2)"))
        assert alpha_eq(t1, t2)

    def test_currying_coherence(self):
        env = make_env([("h", ("Int", "Int", "Int"), "Bool")])
        full = Fun(INT, Fun(INT, Fun(INT, BOOL)))
        term = "h"
        expect = full
        for k in range(4):
            _, s = infer_sort(env, parse_term(term))
            assert s == expect
            if isinstance(expect, Fun):
                term = f"({term} 1)" if k == 0 else term[:-1] + " 1)"
                expect = expect.cod

    def test_self_application_rejected(self):
        env = make_env([("f", ("Int",), "Int")])
        with pytest.raises(SortError) as e:
            infer_sort(env, parse_term("(f f)"))
        assert "sort mismatch" in str(e.value) or "expected" in str(e.value)

    def test_unbound(self):
        with pytest.raises(SortError) as e:
            infer_sort(make_env([]), parse_term("mystery"))
        assert "unbound symbol mystery" in str(e.value)

    def test_equality_polymorphic_at_fun_sorts(self):
        env = make_env([("f", ("Int",), "Int")])
        _, s = infer_sort(env, parse_term("(= f (lambda ((x Int)) (f x)))"))
        assert s == BOOL

    def test_equality_sort_clash(self):
        env = make_env([("f", ("Int",), "Int")])
        with pytest.raises(SortError):
            infer_sort(env, parse_term("(= f 1)"))

    def test_quantifier_body_must_be_bool(self):
        with pytest.raises(SortError):
            infer_sort(make_env([]), parse_term("(forall ((x Int)) x)"))

    def test_eps_gives_witness_sort(self):
        env = make_env([("p", ("Int",), "Bool")])
        _, s = infer_sort(env, parse_term("(eps ((x Int)) (p x))"))
        assert s == INT

    def test_match_rejected(self):
        with pytest.raises(SortError) as e:
            infer_sort(make_env([]), parse_term("(match 1 ((x x)))"))
        assert "unsupported construct: match" in str(e.value)

    def test_ascription_checked(self):
        env = make_env([("f", ("Int",), "Int")])
        infer_sort(env, parse_term("(as f (-> Int Int))"))
        with pytest.raises(SortError):
            infer_sort(env, parse_term("(as f Int)"))

    def test_arith_partial_application(self):
        env = make_env([], logic="UFLIA")
        _, s = infer_sort(env, parse_term("(+ 1)"))
        assert s == Fun(INT, INT)


class TestCheckScript:
    def test_first_program(self):
        cmds = parse_script((DATA / "program1.smt2").read_text())
        checked = check_script(cmds)
        assert len(checked.signature.symbols) == 3
        assert len(checked.asserts) == 1
        assert sort_of(checked.asserts[0]) == BOOL

    def test_second_program(self):
        cmds = parse_script((DATA / "program2.smt2").read_text())
        checked = check_script(cmds)
        assert len(checked.asserts) == 1
        from hosmt.core import beta_normal_form
        eq = checked.asserts[0]
        lhs, rhs = eq.fn.arg, eq.arg
        assert alpha_eq(beta_normal_form(lhs), beta_normal_form(rhs))

    def test_assert_must_be_bool(self):
        with pytest.raises(SortError) as e:
            check_script(parse_script("(assert 1)"))
        assert "assert body has sort Int, expected Bool" in str(e.value)

    def test_duplicate_declaration(self):
        with pytest.raises(SortError):
            check_script(parse_script(
                "(declare-fun a () Int)(declare-fun a () Int)"))

    def test_define_fun(self):
        checked = check_script(parse_script(
            "(declare-fun f (Int) Int)"
            "(define-fun g ((x Int)) Int (f (f x)))"
            "(assert (= (g 1) 2))"))
        assert checked.signature.symbols["g"] == Fun(INT, INT)

    def test_declared_sort_usable(self):
        checked = check_script(parse_script(
            "(declare-sort U 0)(declare-fun u () U)(assert (= u u))"))
        assert "U" in checked.signature.sorts

    def test_nested_binders_elaborate_in_linear_time(self):
        # a name is looked up once, not in every enclosing binder's scope
        def forall(n):
            inner = "a"
            for i in range(1, n + 1):
                inner = f"(g x{i} {inner})"
            term = f"(= {inner} a)"
            for i in range(n, 0, -1):
                term = f"(forall ((x{i} Int)) {term})"
            return parse_script("(declare-fun g (Int Int) Int)"
                                f"(declare-fun a () Int)(assert {term})")

        with recursion_limit(10_000):
            t1000, t2000 = best_times(check_script,
                                      [forall(1_000), forall(2_000)], 9)
        assert math.log2(t2000 / t1000) <= 1.4


class TestSubjectReduction:
    def test_random_reductions(self):
        rng = random.Random(41)
        done = 0
        while done < 300:
            t = gen.gen_closed(rng, depth=4)
            r = beta_step(t)
            if r is None:
                continue
            assert sort_of(r) == sort_of(t)
            done += 1


class TestErase:
    def test_faithful(self):
        rng = random.Random(43)
        sig = Signature()
        for c in gen.CONSTS:
            sig.symbols[c.name] = c.sort
        for _ in range(200):
            t = gen.gen_closed(rng, depth=4)
            text = print_term(t)
            env = TypingEnv(sig)
            t2, _ = infer_sort(env, parse_term(text))
            assert alpha_eq(t, t2)

    def test_binder_shadowing_renamed(self):
        # two nested binders sharing a display name must print apart
        from hosmt.core import App, Binder, fresh_var
        x1 = fresh_var("x", INT)
        x2 = fresh_var("x", INT)
        g = gen.CONSTS[4]  # g : Int -> Int -> Int
        t = Binder("lambda", x1, Binder("lambda", x2, App(App(g, x1), x2)))
        text = print_term(t)
        sig = Signature()
        sig.symbols["g"] = g.sort
        t2, _ = infer_sort(TypingEnv(sig), parse_term(text))
        assert alpha_eq(t, t2)
