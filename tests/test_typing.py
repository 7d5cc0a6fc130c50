"""Signatures, sort inference, elaboration, and printing back to text."""

import math
import random

import pytest

from hosmt.certprinter import print_term
from hosmt.core import BOOL, Fun, INT, alpha_eq, sort_of
from hosmt.surface import parse_script
from hosmt.elaborate import Elaborator, logic_has_arith
from hosmt.signature import SortError
from hosmt.typecheck import check_script

from conftest import DATA, best_times, parse_term, recursion_limit

import gen
from oracle_ref import beta_step


def declared(el, name, args, res):
    """The sort of `name` once (declare-fun name (args) res) is declared."""
    el.command(parse_script(f"(declare-fun {name} ({' '.join(args)}) {res})")[0])
    return el.sig.symbols[name]


def decl_sort(args, res):
    return declared(Elaborator(), "f", args, res)


def make_env(decls, logic=None):
    el = Elaborator()
    for name, args, res in decls:
        declared(el, name, args, res)
    el.arith = logic_has_arith(logic)
    return el


class TestNormalizeDecl:
    def test_flat(self):
        assert decl_sort(["Int", "Int"], "Int") == Fun(INT, Fun(INT, INT))

    def test_mixed(self):
        assert decl_sort(["Int"], "(-> Int Int)") == Fun(INT, Fun(INT, INT))

    def test_nullary(self):
        assert decl_sort([], "Bool") == BOOL

    def test_three_declarations_coincide(self):
        forms = [([], "(-> Int (-> Int Int))"),
                 (["Int"], "(-> Int Int)"),
                 (["Int", "Int"], "Int"),
                 ([], "(-> Int Int Int)")]
        results = {decl_sort(args, res) for args, res in forms}
        assert len(results) == 1

    def test_unknown_sort(self):
        with pytest.raises(SortError):
            decl_sort(["Elephant"], "Int")


class TestInferSort:
    def test_partial_application(self):
        env = make_env([("g", ("Int", "Int"), "Int")])
        _, s = env.term(parse_term("(g 1)"))
        assert s == Fun(INT, INT)

    def test_higher_order_argument(self):
        env = make_env([("f", ("(-> Int Int)",), "Int"),
                        ("h", ("Int", "Int"), "Int")])
        _, s = env.term(parse_term("(f (h 1))"))
        assert s == INT

    def test_identity_lambda(self):
        env = make_env([])
        _, s = env.term(parse_term("(lambda ((x Int)) x)"))
        assert s == Fun(INT, INT)

    def test_curry_equivalence(self):
        env = make_env([("g", ("Int", "Int"), "Int")])
        t1, _ = env.term(parse_term("((g 1) 2)"))
        t2, _ = env.term(parse_term("(g 1 2)"))
        assert alpha_eq(t1, t2)

    def test_currying_coherence(self):
        env = make_env([("h", ("Int", "Int", "Int"), "Bool")])
        full = Fun(INT, Fun(INT, Fun(INT, BOOL)))
        term = "h"
        expect = full
        for k in range(4):
            _, s = env.term(parse_term(term))
            assert s == expect
            if isinstance(expect, Fun):
                term = f"({term} 1)" if k == 0 else term[:-1] + " 1)"
                expect = expect.cod

    def test_self_application_rejected(self):
        env = make_env([("f", ("Int",), "Int")])
        with pytest.raises(SortError) as e:
            env.term(parse_term("(f f)"))
        assert "sort mismatch" in str(e.value) or "expected" in str(e.value)

    def test_unbound(self):
        with pytest.raises(SortError) as e:
            make_env([]).term(parse_term("mystery"))
        assert "unbound symbol mystery" in str(e.value)

    def test_equality_polymorphic_at_fun_sorts(self):
        env = make_env([("f", ("Int",), "Int")])
        _, s = env.term(parse_term("(= f (lambda ((x Int)) (f x)))"))
        assert s == BOOL

    def test_equality_sort_clash(self):
        env = make_env([("f", ("Int",), "Int")])
        with pytest.raises(SortError):
            env.term(parse_term("(= f 1)"))

    def test_quantifier_body_must_be_bool(self):
        with pytest.raises(SortError):
            make_env([]).term(parse_term("(forall ((x Int)) x)"))

    def test_eps_gives_witness_sort(self):
        env = make_env([("p", ("Int",), "Bool")])
        _, s = env.term(parse_term("(eps ((x Int)) (p x))"))
        assert s == INT

    def test_match_rejected(self):
        with pytest.raises(SortError) as e:
            make_env([]).term(parse_term("(match 1 ((x x)))"))
        assert "unsupported construct: match" in str(e.value)

    def test_ascription_checked(self):
        env = make_env([("f", ("Int",), "Int")])
        env.term(parse_term("(as f (-> Int Int))"))
        with pytest.raises(SortError):
            env.term(parse_term("(as f Int)"))

    def test_arith_partial_application(self):
        env = make_env([], logic="UFLIA")
        _, s = env.term(parse_term("(+ 1)"))
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

    def test_set_logic_without_arithmetic_unbinds_it(self):
        # a symbol resolved under one logic is looked up again under the next
        text = ("(set-logic QF_LIA)(declare-fun a () Int)(assert (< a 1))\n"
                "(set-logic QF_UF)(assert (< a 1))")
        with pytest.raises(SortError) as e:
            check_script(parse_script(text))
        assert (e.value.message, e.value.line, e.value.col) == (
            "unbound symbol <", 2, 27)

    def test_declared_symbol_hides_arithmetic_one(self):
        checked = check_script(parse_script(
            "(set-logic ALL)(assert (= (+ 1 2) 3))"
            "(declare-fun + (Int Int) Bool)(assert (+ 1 2))"))
        plus = Fun(INT, Fun(INT, BOOL))
        assert checked.signature.symbols["+"] == plus
        assert checked.asserts[1].fn.fn.sort == plus
        assert checked.asserts[0].fn.arg.fn.fn.sort == Fun(INT, Fun(INT, INT))

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
        el = Elaborator()
        for c in gen.CONSTS:
            el.sig.symbols[c.name] = c.sort
        for _ in range(200):
            t = gen.gen_closed(rng, depth=4)
            text = print_term(t)
            t2, _ = el.term(parse_term(text))
            assert alpha_eq(t, t2)

    def test_binder_shadowing_renamed(self):
        # two nested binders sharing a display name must print apart
        from hosmt.core import App, Binder, fresh_var
        x1 = fresh_var("x", INT)
        x2 = fresh_var("x", INT)
        g = gen.CONSTS[4]  # g : Int -> Int -> Int
        t = Binder("lambda", x1, Binder("lambda", x2, App(App(g, x1), x2)))
        text = print_term(t)
        el = Elaborator()
        el.sig.symbols["g"] = g.sort
        t2, _ = el.term(parse_term(text))
        assert alpha_eq(t, t2)
