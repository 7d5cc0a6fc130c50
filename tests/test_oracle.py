"""Lambda-encoding oracle: encodings, reification, and step validation."""

import random

import pytest

from hosmt.calculus import EqJudgment, check_certificate, parse_certificate
from hosmt.context import EMPTY, apply_context
from hosmt.core import (App, Const, Fun, INT, Lam, Quant, alpha_eq,
                        beta_normal_form, expand_lets, fresh_var, sort_of)
from hosmt.oracle import (BAbs, Box, BRedex, EncodingError, _normalize,
                          check_certificate_oracle, encode_left,
                          oracle_check, reify)
from hosmt.processor import process

from conftest import DATA

import gen
import oracle_ref

INTI = Fun(INT, INT)
a = Const("a", INT)
f = Const("f", INTI)
p2 = Const("p", Fun(INT, INTI))


class TestEncode:
    def test_empty_context(self):
        t = App(f, a)
        assert encode_left(EMPTY, t) == Box(t)

    def test_single_map(self):
        x = fresh_var("x", INT)
        ctx = EMPTY.map([(x, a)])
        t = App(App(p2, x), x)
        m = encode_left(ctx, t)
        assert m == BRedex((x,), Box(t), (a,))

    def test_fix_then_map(self):
        # (w, x -> w): an abstraction wrapping a redex
        x, w = fresh_var("x", INT), fresh_var("w", INT)
        ctx = EMPTY.fix(w).map([(x, w)])
        m = encode_left(ctx, App(f, x))
        assert m == BAbs(w, BRedex((x,), Box(App(f, x)), (w,)))


class TestReify:
    def test_closed(self):
        # no prefix: the formula is the bare equality
        m = encode_left(EMPTY, App(f, a))
        formula = reify(m, encode_left(EMPTY, App(f, a)))
        assert formula.fn.arg == App(f, a) and formula.arg == App(f, a)

    def test_one_fixed_variable(self):
        w = fresh_var("w", INT)
        ctx = EMPTY.fix(w)
        formula = reify(encode_left(ctx, App(f, w)),
                        encode_left(ctx, App(f, w)))
        assert isinstance(formula, Quant) and formula.kind == "forall"
        assert formula.var.sort == INT

    def test_map_entries_are_contracted(self):
        # the substitution folds away: both sides close over nothing
        x = fresh_var("x", INT)
        ctx = EMPTY.map([(x, a)])
        formula = reify(encode_left(ctx, x), encode_left(ctx, a))
        assert not isinstance(formula, Quant)
        assert formula.fn.arg == a and formula.arg == a

    def test_prefix_mismatch(self):
        w = fresh_var("w", INT)
        with pytest.raises(EncodingError):
            reify(encode_left(EMPTY.fix(w), a), encode_left(EMPTY, a))

    def test_prefix_sort_mismatch(self):
        w1, w2 = fresh_var("w", INT), fresh_var("w", INTI)
        with pytest.raises(EncodingError):
            reify(encode_left(EMPTY.fix(w1), a),
                  encode_left(EMPTY.fix(w2), a))

    def test_right_prefix_renamed_to_left(self):
        # the two sides quantify over the same variables after reification
        w1, w2 = fresh_var("w", INT), fresh_var("w", INT)
        formula = reify(encode_left(EMPTY.fix(w1), App(f, w1)),
                        BAbs(w2, Box(App(f, w2))))
        assert formula.body.fn.arg == formula.body.arg

    def test_agreement_with_apply_context(self):
        # normalizing the encoding equals applying the context directly
        rng = random.Random(67)
        for _ in range(100):
            ctx, fixed, mapped = gen.gen_context(rng)
            t = gen.gen_judgment_term(rng, ctx, fixed, mapped, depth=3)
            u = apply_context(ctx, t)
            assert oracle_check(EqJudgment(ctx, t, u)) == "lambda-valid"


def assert_matches_reference(ctx, lhs, rhs):
    """The one-pass normalizer reifies as tests/oracle_ref.py does."""
    m, n = encode_left(ctx, lhs), encode_left(ctx, rhs)
    xs, _ = _normalize(m)
    ys, _ = oracle_ref.normalize(m)
    assert [x.sort for x in xs] == [y.sort for y in ys]
    assert alpha_eq(reify(m, n), oracle_ref.reify(m, n))


def shadowing_context(rng, entries=6):
    """A context over a small pool of variables, so that entries fix
    variables that earlier images mention and remap earlier variables."""
    pool = [fresh_var(n, s) for n in "uv" for s in gen.BASE_SORTS]
    ctx = EMPTY
    for _ in range(rng.randint(1, entries)):
        if rng.random() < 0.4:
            ctx = ctx.fix(rng.choice(pool))
        else:
            vs = rng.sample(pool, rng.choice((1, 1, 2)))
            ctx = ctx.map([(v, gen.gen_term(rng, v.sort, 2, env=pool))
                           for v in vs])
    return ctx, pool


class TestOnePass:
    def test_reference_on_generated_contexts(self):
        rng = random.Random(79)
        for _ in range(200):
            ctx, fixed, mapped = gen.gen_context(rng)
            t = gen.gen_judgment_term(rng, ctx, fixed, mapped, depth=3)
            u = gen.gen_term(rng, sort_of(t), 3, env=fixed + mapped)
            assert_matches_reference(ctx, t, u)

    def test_reference_on_shadowing_contexts(self):
        rng = random.Random(83)
        for _ in range(200):
            ctx, pool = shadowing_context(rng)
            t = gen.gen_term(rng, rng.choice(gen.BASE_SORTS), 3, env=pool)
            u = gen.gen_term(rng, sort_of(t), 3, env=pool)
            assert_matches_reference(ctx, t, u)

    def test_reference_on_processor_steps(self):
        rng = random.Random(89)
        for _ in range(40):
            cert = process(gen.gen_closed(rng, depth=4)).certificate
            for step in cert.steps:
                j = step.conclusion
                assert_matches_reference(j.ctx, j.lhs, j.rhs)

    def test_abstraction_renamed_past_image(self):
        # y is mapped to the outer x, then x is fixed: the abstraction must
        # be renamed, or the image of y would be captured by it
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        ctx = EMPTY.map([(y, x)]).fix(x)
        prefix, t = _normalize(encode_left(ctx, y))
        assert len(prefix) == 1 and prefix[0].id != x.id
        assert prefix[0].sort == INT and t == x
        assert oracle_check(EqJudgment(ctx, y, x)) == "needs-theory"

    def test_deep_context(self):
        # 2,000 entries; the reference recurses once per entry and overflows
        ctx = EMPTY
        for _ in range(1000):
            w, x = fresh_var("w", INT), fresh_var("x", INT)
            ctx = ctx.fix(w).map([(x, App(f, w))])
        prefix, t = _normalize(encode_left(ctx, x))
        assert len(prefix) == 1000 and t == App(f, w)
        assert oracle_check(EqJudgment(ctx, x, App(f, w))) == "lambda-valid"


class TestOracleCheck:
    def test_example1_root(self):
        x = fresh_var("x", INT)
        lhs = App(Lam(x, App(App(p2, x), x)), a)
        rhs = App(App(p2, a), a)
        assert oracle_check(EqJudgment(EMPTY, lhs, rhs)) == "lambda-valid"

    def test_example2_root(self):
        pb = Const("p", INTI)
        x, y, z, w = (fresh_var(n, INT) for n in "xyzw")
        lhs = Lam(x, App(Lam(y, App(Lam(z, App(pb, z)), y)), App(f, x)))
        rhs = Lam(w, App(pb, App(f, w)))
        assert oracle_check(EqJudgment(EMPTY, lhs, rhs)) == "lambda-valid"

    def test_arithmetic_needs_theory(self):
        plus = Const("+", Fun(INT, INTI))
        one = Const("1", INT)
        two = Const("2", INT)
        j = EqJudgment(EMPTY, App(App(plus, one), one), two)
        assert oracle_check(j) == "needs-theory"

    def test_deterministic(self):
        rng = random.Random(71)
        for _ in range(30):
            ctx, fixed, mapped = gen.gen_context(rng)
            t = gen.gen_judgment_term(rng, ctx, fixed, mapped, depth=3)
            j = EqJudgment(ctx, t, apply_context(ctx, t))
            assert oracle_check(j) == oracle_check(j)


class TestCertificates:
    @pytest.mark.parametrize("name", ("example1.hoproof",
                                      "example2.hoproof",
                                      "example3.hoproof"))
    def test_golden_steps_lambda_valid(self, name):
        cert = parse_certificate((DATA / name).read_text())
        for sid, verdict in check_certificate_oracle(cert):
            assert verdict == "lambda-valid", sid

    def test_processor_steps_lambda_valid(self):
        rng = random.Random(73)
        for _ in range(60):
            t = gen.gen_closed(rng, depth=4)
            cert = process(t).certificate
            assert check_certificate_oracle(cert) and all(
                v == "lambda-valid" for _, v in check_certificate_oracle(cert))

    def test_oracle_disagrees_with_broken_step(self):
        # a wrong judgment that is not lambda-valid
        x = fresh_var("x", INT)
        b = Const("b", INT)
        j = EqJudgment(EMPTY.map([(x, a)]), x, b)
        assert oracle_check(j) == "needs-theory"
