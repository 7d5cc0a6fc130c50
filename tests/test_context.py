"""Proof contexts: induced substitutions and capture-avoiding application."""

import random

import pytest

from hosmt.context import (EMPTY, Context, Fix, Map, apply_context,
                           context_subst, contexts_equal, fixes, move, path)
from hosmt.core import (App, Binder, Const, Fun, INT, alpha_eq, fresh_var,
                        substitute)
from hosmt.nodes import Scope

import gen

a = Const("a", INT)
f = Const("f", Fun(INT, INT))
p = Const("p", Fun(INT, Fun(INT, INT)))


class TestContextSubst:
    def test_empty_is_identity(self):
        assert dict(context_subst(EMPTY)) == {}
        t = App(f, a)
        assert apply_context(EMPTY, t) == t

    def test_single_map(self):
        x = fresh_var("x", INT)
        ctx = EMPTY.map([(x, a)])
        assert dict(context_subst(ctx)) == {x.id: a}
        assert apply_context(ctx, App(App(p, x), x)) == App(App(p, a), a)

    def test_fix_shadows_earlier_map(self):
        x = fresh_var("x", INT)
        ctx = EMPTY.map([(x, a)]).fix(x)
        assert dict(context_subst(ctx)) == {}
        assert apply_context(ctx, x) == x

    def test_later_map_composes(self):
        # (x -> y, y -> a): y's image is not re-mapped retroactively, but
        # x's image receives nothing (it was installed first), while a map
        # appended after x -> y sends new images through the prefix subst.
        x, y, z = (fresh_var(n, INT) for n in "xyz")
        ctx = EMPTY.map([(x, y)]).map([(z, App(f, x))])
        sigma = dict(context_subst(ctx))
        assert sigma[x.id] == y
        # z's image saw x -> y already
        assert sigma[z.id] == App(f, y)

    def test_forward_reference_folds_literally(self):
        # an image naming a variable fixed later is left untouched
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        ctx = EMPTY.map([(x, y)]).fix(y)
        assert dict(context_subst(ctx)) == {x.id: y}

    def test_simultaneous_within_one_entry(self):
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        ctx = EMPTY.map([(x, y), (y, x)])
        sigma = context_subst(ctx)
        assert sigma[x.id] == y and sigma[y.id] == x

    def test_duplicate_var_in_entry_rejected(self):
        x = fresh_var("x", INT)
        with pytest.raises(ValueError):
            EMPTY.map([(x, a), (x, a)])

    def test_empty_map_entry_rejected(self):
        with pytest.raises(ValueError):
            EMPTY.map([])

    def test_ill_sorted_image_rejected(self):
        x = fresh_var("x", INT)
        with pytest.raises(ValueError):
            EMPTY.map([(x, f)])


class TestApplyContext:
    def test_example1_context(self):
        x = fresh_var("x", INT)
        ctx = EMPTY.map([(x, a)])
        t = App(App(p, x), x)
        assert apply_context(ctx, t) == App(App(p, a), a)

    def test_example2_context(self):
        # (w, x -> w): f x becomes f w
        x, w = fresh_var("x", INT), fresh_var("w", INT)
        ctx = EMPTY.fix(w).map([(x, w)])
        assert apply_context(ctx, App(f, x)) == App(f, w)

    def test_shadow_law(self):
        # a fixed variable is invariant under its own context
        rng = random.Random(5)
        for _ in range(50):
            ctx, fixed, _ = gen.gen_context(rng)
            for v in fixed:
                assert apply_context(ctx.fix(v), v) == v

    def test_capture_avoided_under_binder(self):
        # x -> w must not be captured by a binder that reuses w
        x, w = fresh_var("x", INT), fresh_var("w", INT)
        ctx = EMPTY.fix(w).map([(x, w)])
        t = Binder("lambda", w, App(App(p, w), x))
        r = apply_context(ctx, t)
        assert r.kind == "lambda" and r.var.id != w.id
        assert r.body == App(App(p, r.var), w)

    def test_composition_law(self):
        # applying (ctx, xs -> ts) equals substituting first, then ctx --
        # when the appended images are already in ctx's range (invariant)
        rng = random.Random(9)
        done = 0
        while done < 100:
            ctx, fixed, mapped = gen.gen_context(rng)
            s = gen.gen_judgment_term(rng, ctx, fixed, mapped, depth=3)
            if not fixed:
                continue
            x = fresh_var("x", fixed[0].sort)
            img = fixed[0]
            ext = ctx.map([(x, img)])
            lhs = apply_context(ext, substitute(s, {}))
            rhs = apply_context(ctx, substitute(s, {x.id: img}))
            assert alpha_eq(lhs, rhs)
            done += 1

    def test_idempotent_on_derivation_shaped_contexts(self):
        # images mention only fixed variables, so applying twice is applying once
        rng = random.Random(13)
        for _ in range(100):
            ctx, fixed, mapped = gen.gen_context(rng)
            t = gen.gen_judgment_term(rng, ctx, fixed, mapped, depth=3)
            once = apply_context(ctx, t)
            assert alpha_eq(apply_context(ctx, once), once)


class TestFixes:
    def test_agrees_with_substitute_and_compare(self):
        # some contexts get an identity map appended, of a fixed variable
        # or of one the context has not seen
        rng = random.Random(23)
        seen = set()
        for _ in range(2000):
            ctx, fixed, mapped = gen.gen_context(rng)
            if rng.random() < 0.3:
                v = (rng.choice(fixed) if fixed and rng.random() < 0.5
                     else fresh_var("v", rng.choice(gen.BASE_SORTS)))
                ctx = ctx.map([(v, v)])
                mapped = [*mapped, v]
            t = gen.gen_judgment_term(rng, ctx, fixed, mapped)
            same = alpha_eq(apply_context(ctx, t), t)
            assert fixes(ctx, t) == same, (ctx, t)
            seen.add(same)
        assert seen == {True, False}


class TestExtend:
    def test_extend_fix_returns_fresh(self):
        v = fresh_var("w", INT)
        ctx = EMPTY.fix(v)
        assert ctx.entries() == [Fix(v)]
        v2 = fresh_var("w", INT)
        ctx2 = ctx.fix(v2)
        assert v2.id != v.id
        assert ctx2.entries() == [Fix(v), Fix(v2)]

    def test_bind_premise_shape(self):
        # the context a Bind premise carries: Gamma, y, x -> y
        x, y = fresh_var("x", INT), fresh_var("w", INT)
        ext = EMPTY.fix(y).map([(x, y)])
        assert ext.entries() == [Fix(y), Map(((x, y),))]
        assert apply_context(ext, App(f, x)) == App(f, y)


class TestEquality:
    def test_structural(self):
        x = fresh_var("x", INT)
        c1 = EMPTY.map([(x, a)])
        c2 = EMPTY.map([(x, a)])
        assert contexts_equal(c1, c2)
        assert not contexts_equal(c1, EMPTY)

    def test_images_compared_up_to_alpha(self):
        x = fresh_var("x", Fun(INT, INT))
        y1, y2 = fresh_var("y", INT), fresh_var("z", INT)
        c1 = EMPTY.map([(x, Binder("lambda", y1, App(f, y1)))])
        c2 = EMPTY.map([(x, Binder("lambda", y2, App(f, y2)))])
        assert contexts_equal(c1, c2)

    def test_entry_order_matters(self):
        x, w = fresh_var("x", INT), fresh_var("w", INT)
        c1 = EMPTY.fix(w).map([(x, a)])
        c2 = EMPTY.map([(x, a)]).fix(w)
        assert not contexts_equal(c1, c2)


def test_persistence():
    """Extension never mutates the parent context."""
    x = fresh_var("x", INT)
    base = EMPTY.map([(x, a)])
    sigma_before = dict(context_subst(base))
    _ = base.fix(x)
    _ = base.map([(fresh_var("y", INT), a)])
    assert dict(context_subst(base)) == sigma_before


def test_scope_moves_along_the_context_tree():
    """A moved scope holds what it held below the contexts plus the
    variables of the context it stands at, the innermost entry winning,
    whatever route it took; one bind that sets a key twice undoes to
    what the key held before it."""
    x, x2, w = fresh_var("x", INT), fresh_var("x", INT), fresh_var("w", INT)
    left = EMPTY.fix(w).map([(x, a)]).fix(x2)
    right = EMPTY.fix(w).fix(fresh_var("y", INT))

    def named(node):
        return [(v.name, v) for v in node.entry_vars()]

    scope = Scope()
    scope.at = EMPTY
    scope["w"] = "below"
    for ctx in (left, right, left.parent, EMPTY, left, left):
        move(scope, ctx, named)
        expected = {"w": "below"}
        for node in path(EMPTY, ctx)[1]:
            expected.update(named(node))
        assert scope == expected and scope.at is ctx
    assert scope["x"] is x2
    scope.bind([("x", 1), ("x", 2), ("z", 3)])
    assert scope["x"] == 2 and scope["z"] == 3
    scope.unbind()
    assert scope["x"] is x2 and "z" not in scope
