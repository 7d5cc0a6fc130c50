"""Core terms: alpha-equivalence, substitution, beta-reduction, interning."""

import copy
import gc
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from hosmt import nodes
from hosmt.context import EMPTY, Context
from hosmt.core import (BINDER_WORDS, App, Applied, BOOL, Binder, Const,
                        DivergenceError, Fun, INT, Let, Var, alpha_eq,
                        beta_normal_form, free_vars, fresh_var, fun_sort,
                        sort_of, sort_str, substitute, subterms)

import gen
import mutate
import nameless
from oracle_ref import beta_step, expand_lets

INTI = Fun(INT, INT)
p2 = Const("p", Fun(INT, INTI))
p1 = Const("p", INTI)
f1 = Const("f", INTI)
a = Const("a", INT)


def lam(v, b):
    return Binder("lambda", v, b)


class TestSorts:
    def test_fun_sort_right_fold(self):
        assert fun_sort([INT, INT], INT) == Fun(INT, Fun(INT, INT))

    def test_sort_str_flattens(self):
        assert sort_str(fun_sort([INT, INT], INT)) == "(-> Int Int Int)"


class TestFreeVars:
    def test_closed(self):
        x = fresh_var("x", INT)
        t = App(lam(x, App(App(p2, x), x)), a)
        assert free_vars(t) == set()

    def test_open_app(self):
        x = fresh_var("x", INT)
        z = fresh_var("z", INT)
        assert free_vars(App(lam(z, z), x)) == {x.id}

    def test_under_binder(self):
        x = fresh_var("x", INT)
        assert free_vars(App(f1, x)) == {x.id}
        assert free_vars(lam(x, App(f1, x))) == set()

    def test_let_scopes_body_only(self):
        v = fresh_var("v", INT)
        t = Let(((v, App(f1, v)),), v)
        # non-recursive: the v in the image is free
        assert free_vars(t) == {v.id}


class TestSubterms:
    def test_preorder_with_binder_and_let_variables(self):
        x, v, w = (fresh_var(n, INT) for n in "xvw")
        body = App(f1, x)
        eq = Const("=", Fun(INT, Fun(INT, BOOL)))
        forall = Binder("forall", x, App(App(eq, body), v))
        img = App(f1, a)
        t = Let(((v, img), (w, a)), forall)
        assert list(subterms(t)) == [
            t, v, img, f1, a, w, a, forall, x, forall.body,
            forall.body.fn, eq, body, f1, x, v]

    def test_deep_term(self):
        t = a
        for _ in range(10_000):
            t = App(f1, t)
        # 10,000 applications, 10,000 heads and the innermost argument
        assert sum(1 for _ in subterms(t)) == 20_001


class TestAlphaEq:
    def test_identity(self):
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        assert alpha_eq(lam(x, x), lam(y, y))

    def test_nested_difference(self):
        x1, y1 = fresh_var("x", INT), fresh_var("y", INT)
        x2, y2 = fresh_var("x", INT), fresh_var("y", INT)
        s = lam(x1, lam(y1, x1))
        t = lam(y2, lam(x2, x2))
        assert not alpha_eq(s, t)
        assert nameless.to_db(s) != nameless.to_db(t)

    def test_renamed(self):
        x, w = fresh_var("x", INT), fresh_var("w", INT)
        s = lam(x, App(App(p2, x), x))
        t = lam(w, App(App(p2, w), w))
        assert alpha_eq(s, t)
        assert nameless.to_db(s) == nameless.to_db(t)

    def test_sorts_matter(self):
        x, y = fresh_var("x", INT), fresh_var("y", BOOL)
        assert not alpha_eq(lam(x, x), lam(y, y))

    @pytest.mark.parametrize("ks, kt", itertools.permutations(BINDER_WORDS, 2))
    def test_kinds_matter(self, ks, kt):
        x = fresh_var("x", INT)
        body = App(Const("p", Fun(INT, BOOL)), x)
        assert not alpha_eq(Binder(ks, x, body), Binder(kt, x, body))

    def test_agrees_with_nameless(self):
        rng = random.Random(11)
        for _ in range(300):
            s = gen.gen_closed(rng, depth=4)
            t = gen.gen_closed(rng, depth=4)
            assert alpha_eq(s, t) == (nameless.to_db(s) == nameless.to_db(t))
            assert alpha_eq(s, s)

    @given(st.integers(0, 10**6))
    def test_equivalence_relation(self, seed):
        rng = random.Random(seed)
        s = gen.gen_closed(rng, depth=3)
        t = gen.gen_closed(rng, depth=3)
        u = gen.gen_closed(rng, depth=3)
        assert alpha_eq(s, s)
        assert alpha_eq(s, t) == alpha_eq(t, s)
        if alpha_eq(s, t) and alpha_eq(t, u):
            assert alpha_eq(s, u)


class TestSubstitute:
    def test_example1_body(self):
        x = fresh_var("x", INT)
        t = App(App(p2, x), x)
        assert substitute(t, {x.id: a}) == App(App(p2, a), a)

    def test_capture_avoidance(self):
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        t = lam(x, y)
        r = substitute(t, {y.id: x})
        assert r.kind == "lambda"
        assert r.var.id != x.id  # binder renamed
        assert r.body == x
        db = nameless.db_subst(nameless.to_db(t), {y.id: nameless.to_db(x)})
        assert nameless.to_db(r) == db

    def test_let_capture_avoidance(self):
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        t = Let(((x, a),), App(App(p2, x), y))
        r = substitute(t, {y.id: x})
        ((v, img),) = r.bindings
        assert v.id != x.id and img == a  # let variable renamed
        assert r.body == App(App(p2, v), x)
        db = nameless.db_subst(nameless.to_db(t), {y.id: nameless.to_db(x)})
        assert nameless.to_db(r) == db

    def test_empty(self):
        t = App(f1, a)
        assert substitute(t, {}) == t

    def test_simultaneity_swap(self):
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        sigma = {x.id: y, y.id: x}
        assert substitute(x, sigma) == y
        assert substitute(y, sigma) == x

    @pytest.mark.parametrize("scope", ("binder", "let", "renamed binder"))
    def test_shared_node_under_another_substitution(self, scope):
        # s occurs outside a scope of x and inside it, where the
        # substitution differs: the one node gets one image in each place
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        s = App(App(p2, x), y)
        if scope == "let":
            t = App(App(p2, s), Let(((x, a),), s))
        else:
            t = App(App(p2, s), App(lam(x, s), a))
        image = x if scope == "renamed binder" else App(f1, a)
        sigma = {x.id: App(f1, a), y.id: image}
        db = nameless.db_subst(nameless.to_db(t),
                               {k: nameless.to_db(v) for k, v in sigma.items()})
        assert nameless.to_db(substitute(t, sigma)) == db

    def test_agrees_with_nameless_oracle(self):
        rng = random.Random(23)
        for _ in range(500):
            t, fv = gen.gen_open(rng, depth=5)
            sigma = {v.id: gen.gen_term(rng, v.sort, 3) for v in fv
                     if rng.random() < 0.8}
            got = nameless.to_db(substitute(t, sigma))
            want = nameless.db_subst(
                nameless.to_db(t),
                {k: nameless.to_db(img) for k, img in sigma.items()})
            assert got == want


class TestBetaStep:
    def test_example1(self):
        x = fresh_var("x", INT)
        t = App(lam(x, App(App(p2, x), x)), a)
        assert beta_step(t) == App(App(p2, a), a)

    def test_normal_form_absent(self):
        assert beta_step(App(p1, a)) is None

    def test_outermost_first(self):
        x = fresh_var("x", INT)
        y, z = fresh_var("y", INT), fresh_var("z", INT)
        inner = App(lam(z, App(p1, z)), y)
        t = App(lam(y, inner), App(f1, x))
        r = beta_step(t)
        # the outer redex is contracted, leaving the inner one intact
        assert alpha_eq(r, App(lam(z, App(p1, z)), App(f1, x)))


class TestNormalForm:
    def test_example2(self):
        x, y, z = (fresh_var(n, INT) for n in "xyz")
        t = lam(x, App(lam(y, App(lam(z, App(p1, z)), y)), App(f1, x)))
        w = fresh_var("w", INT)
        assert alpha_eq(beta_normal_form(t), lam(w, App(p1, App(f1, w))))

    def test_leaf(self):
        assert beta_normal_form(a) == a

    def test_example3_body(self):
        y = fresh_var("y", INT)
        xa, za = fresh_var("x", INTI), fresh_var("z", INTI)
        xb, xc = fresh_var("x", INT), fresh_var("x", INT)
        left = App(Binder("lambda", xa, App(Binder("lambda", za, za), xa)),
                   Binder("lambda", xb, y))
        right = App(Binder("lambda", xc, App(p1, xc)), y)
        assert beta_normal_form(App(left, right)) == y

    def test_divergence_cap(self):
        # omega is ill-sorted, built by force for the cap check
        d = fresh_var("d", INT)
        omega = Binder("lambda", d, App(d, d))
        with pytest.raises(DivergenceError):
            beta_normal_form(App(omega, omega), max_steps=50)

    def test_idempotent_and_order_independent(self):
        rng = random.Random(31)
        for _ in range(300):
            t = gen.gen_closed(rng, depth=4)
            n = beta_normal_form(t)
            assert beta_step(n) is None
            assert alpha_eq(beta_normal_form(n), n)
            # innermost evaluation over de Bruijn indices agrees
            assert nameless.to_db(n) == nameless.db_nf(nameless.to_db(t))

    def test_alpha_stable(self):
        rng = random.Random(37)
        for _ in range(100):
            t = gen.gen_closed(rng, depth=4)
            fresh = substitute(Binder("lambda", fresh_var("q", INT), t),
                               {}).body  # cheap alpha copy via identity
            assert alpha_eq(beta_normal_form(t), beta_normal_form(fresh))


class TestFreshVar:
    def test_distinct(self):
        v1, v2 = fresh_var("w", INT), fresh_var("w", INT)
        assert v1.id != v2.id

    def test_thousand_distinct(self):
        ids = {fresh_var("w", INT).id for _ in range(1000)}
        assert len(ids) == 1000


class TestExpandLets:
    def test_simple(self):
        v = fresh_var("v", INT)
        t = Let(((v, a),), App(f1, v))
        assert expand_lets(t) == App(f1, a)

    def test_simultaneous(self):
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        outer_x = fresh_var("x", INT)
        t = Binder("lambda", outer_x,
                   Let(((x, outer_x), (y, x)), App(App(p2, x), y)))
        r = expand_lets(t)
        # simultaneous: y's image is the outer-bound x occurrence, untouched
        assert alpha_eq(r, Binder("lambda", outer_x, App(App(p2, outer_x), x)))


def test_sort_of():
    x = fresh_var("x", INT)
    assert sort_of(lam(x, App(f1, x))) == INTI
    assert sort_of(Binder("forall", x,
                          App(Const("p", Fun(INT, BOOL)), x))) == BOOL
    assert sort_of(Binder("eps", x, Const("true", BOOL))) == INT


def _rebuild(t):
    """t built afresh through the constructors, sorts included."""
    if isinstance(t, Applied):
        return Applied(t.name, tuple(_rebuild(a) for a in t.args))
    if isinstance(t, Fun):
        return Fun(_rebuild(t.dom), _rebuild(t.cod))
    if isinstance(t, Var):
        return Var(t.id, t.name, _rebuild(t.sort))
    if isinstance(t, Const):
        return Const(t.name, _rebuild(t.sort))
    if isinstance(t, App):
        return App(_rebuild(t.fn), _rebuild(t.arg))
    if isinstance(t, Binder):
        return Binder(t.kind, _rebuild(t.var), _rebuild(t.body))
    return Let(tuple((_rebuild(v), _rebuild(i)) for v, i in t.bindings),
               _rebuild(t.body))


class TestInterning:
    def test_rebuilt_term_is_the_original(self):
        rng = random.Random(41)
        for _ in range(500):
            t = gen.gen_closed(rng)
            assert _rebuild(t) is t

    def test_changed_leaf_is_another_node(self):
        rng = random.Random(43)
        for _ in range(200):
            t = gen.gen_closed(rng)
            k = rng.randrange(mutate._count_leaves(t))
            u = mutate._replace_leaf(t, k)
            assert u is not t and u != t

    def test_equal_contexts_are_one_node(self):
        x = fresh_var("x", INT)
        assert Context() is EMPTY
        assert EMPTY.fix(x).map([(x, a)]) is EMPTY.fix(x).map([(x, a)])

    def test_copies_are_the_node(self):
        t = gen.gen_closed(random.Random(53))
        ctx = EMPTY.fix(fresh_var("x", INT))
        for node in (t, ctx):
            assert copy.copy(node) is node
            assert copy.deepcopy(node) is node
            assert pickle.loads(pickle.dumps(node)) is node

    def test_wrong_field_count_refused(self):
        with pytest.raises(TypeError):
            App(f1)
        with pytest.raises(TypeError):
            Var(1, "x", INT, INT)

    def test_nodes_are_immutable(self):
        x = fresh_var("x", INT)
        for node, field in ((App(f1, a), "fn"), (x, "id"), (INT, "name"),
                            (EMPTY.fix(x), "entry"), (EMPTY.fix(x).entry, "var")):
            with pytest.raises(AttributeError):
                setattr(node, field, a)
            with pytest.raises(AttributeError):
                delattr(node, field)

    def test_table_forgets_dead_nodes(self):
        rng = random.Random(47)
        gen.gen_closed(rng)  # module constants the generator builds once
        gc.collect()
        before = len(nodes._table)
        for _ in range(10000):
            gen.gen_closed(rng, depth=4)
        gc.collect()
        assert len(nodes._table) - before < 20
