"""Lambda-encoding oracle: the one-pass fold, its agreement with the
encoding-based reference in oracle_ref, step validation, and the memos
one certificate's steps share."""

import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from hosmt.calculus import (EqJudgment, check_certificate, parse_certificate,
                            print_certificate)
from hosmt.context import EMPTY, apply_context
from hosmt.core import (App, Binder, Const, Fun, INT, alpha_eq, eq_term,
                        fresh_var, sort_of, substitute)
from hosmt.oracle import check_certificate_oracle, fold, oracle_check
from hosmt.processor import process

from conftest import DATA, best_times

import gen
import mutate
from oracle_ref import (BAbs, Box, BRedex, EncodingError, encode_left,
                        reify)
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
        assert isinstance(formula, Binder) and formula.kind == "forall"
        assert formula.var.sort == INT

    def test_map_entries_are_contracted(self):
        # the substitution folds away: both sides close over nothing
        x = fresh_var("x", INT)
        ctx = EMPTY.map([(x, a)])
        formula = reify(encode_left(ctx, x), encode_left(ctx, a))
        assert not isinstance(formula, Binder)
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


def fold_reify(ctx, lhs, rhs):
    """forall xs. lhs ~ rhs under the substitution, from oracle.fold."""
    prefix, sigma = fold(ctx)
    formula = eq_term(substitute(lhs, sigma), substitute(rhs, sigma))
    for x in reversed(prefix):
        formula = Binder("forall", x, formula)
    return formula


def assert_matches_reference(ctx, lhs, rhs):
    """The one-pass fold reifies as tests/oracle_ref.py does."""
    m, n = encode_left(ctx, lhs), encode_left(ctx, rhs)
    xs, _ = fold(ctx)
    ys, _ = oracle_ref.normalize(m)
    assert [x.sort for x in xs] == [y.sort for y in ys]
    assert alpha_eq(fold_reify(ctx, lhs, rhs), oracle_ref.reify(m, n))


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
        prefix, sigma = fold(ctx)
        assert len(prefix) == 1 and prefix[0].id != x.id
        assert prefix[0].sort == INT and substitute(y, sigma) == x
        assert substitute(x, sigma) == prefix[0]
        assert oracle_check(EqJudgment(ctx, y, x)) == "needs-theory"

    def test_deep_context(self):
        # 2,000 entries; the reference recurses once per entry and overflows
        ctx = EMPTY
        for _ in range(1000):
            w, x = fresh_var("w", INT), fresh_var("x", INT)
            ctx = ctx.fix(w).map([(x, App(f, w))])
        prefix, sigma = fold(ctx)
        assert len(prefix) == 1000 and substitute(x, sigma) == App(f, w)
        assert oracle_check(EqJudgment(ctx, x, App(f, w))) == "lambda-valid"


class TestVerdictParity:
    """oracle_check gives the reference chain's verdict: reify, strip,
    expand lets, normalize and compare (oracle_ref.verdict)."""

    @staticmethod
    def assert_parity(judgments):
        seen = set()
        for j in judgments:
            v = oracle_check(j)
            assert v == oracle_ref.verdict(j), (j.ctx, j.lhs, j.rhs)
            seen.add(v)
        assert seen == {"lambda-valid", "needs-theory"}

    def test_mutated_certificates(self):
        rng = random.Random(97)
        certs = [parse_certificate((DATA / f"example{k}.hoproof").read_text())
                 for k in (1, 2, 3)]
        certs += [process(gen.gen_closed(rng, depth=4)).certificate
                  for _ in range(20)]
        judgments = []
        for k in range(300):
            _, bad = mutate.random_mutation(certs[k % len(certs)], rng)
            judgments += [s.conclusion for s in bad.steps
                          if isinstance(s.conclusion, EqJudgment)]
        self.assert_parity(judgments)

    def test_shadowing_contexts(self):
        rng = random.Random(101)
        judgments = []
        for _ in range(300):
            ctx, pool = shadowing_context(rng)
            t = gen.gen_term(rng, rng.choice(gen.BASE_SORTS), 3, env=pool)
            for u in (t, apply_context(ctx, t),
                      gen.gen_term(rng, sort_of(t), 3, env=pool)):
                judgments.append(EqJudgment(ctx, t, u))
        self.assert_parity(judgments)


class TestOracleCheck:
    def test_example1_root(self):
        x = fresh_var("x", INT)
        lhs = App(Binder("lambda", x, App(App(p2, x), x)), a)
        rhs = App(App(p2, a), a)
        assert oracle_check(EqJudgment(EMPTY, lhs, rhs)) == "lambda-valid"

    def test_example2_root(self):
        pb = Const("p", INTI)
        x, y, z, w = (fresh_var(n, INT) for n in "xyzw")
        lhs = Binder("lambda", x, App(
            Binder("lambda", y, App(Binder("lambda", z, App(pb, z)), y)),
            App(f, x)))
        rhs = Binder("lambda", w, App(pb, App(f, w)))
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


def lambda_closure(prefix, t):
    for x in reversed(prefix):
        t = Binder("lambda", x, t)
    return t


class TestSharedMemos:
    """check_certificate_oracle shares its memos among a certificate's
    judgments; they carry no verdict from one judgment to another."""

    @staticmethod
    def assert_fresh_verdicts(cert):
        """The certificate's verdicts, each equal to a fresh oracle_check's
        and to the reference chain's."""
        judgments = [(s.id, s.conclusion) for s in cert.steps
                     if isinstance(s.conclusion, EqJudgment)]
        verdicts = check_certificate_oracle(cert)
        assert verdicts == [(sid, oracle_check(j)) for sid, j in judgments]
        assert [v for _, v in verdicts] == [oracle_ref.verdict(j)
                                            for _, j in judgments]
        return [v for _, v in verdicts]

    def test_mutated_certificates(self):
        # TestVerdictParity's mutants, each checked as one certificate
        rng = random.Random(97)
        certs = [parse_certificate((DATA / f"example{k}.hoproof").read_text())
                 for k in (1, 2, 3)]
        certs += [process(gen.gen_closed(rng, depth=4)).certificate
                  for _ in range(20)]
        mixed = 0
        for k in range(300):
            _, bad = mutate.random_mutation(certs[k % len(certs)], rng)
            mixed += len(set(self.assert_fresh_verdicts(bad))) == 2
        assert mixed > 0

    def test_shared_subterms_with_mixed_verdicts(self):
        # one redex and one context are shared by judgments that hold
        # and judgments that do not, in both orders
        cert = parse_certificate("""(declare-fun g (Int Int) Int)
(declare-fun a () Int)
(declare-fun b () Int)
(define @r ((lambda ((x Int)) (g x x)) a))
(context c1 () (map (y a)))
(context c2 c1 (fix z Int))
(step s1 :rule taut :theory arith :conclusion (= @r (g b b)))
(step s2 :rule taut :theory beta :conclusion (= @r (g a a)))
(step s3 :rule refl :context c2 :conclusion (= (g y z) (g a z)))
(step s4 :rule refl :context c2 :conclusion (= (g y z) (g b z)))
(step s5 :rule refl :context c1 :conclusion (= (g @r y) (g (g a a) a)))
(step s6 :rule refl :context c1 :conclusion (= (g @r y) (g (g a b) a)))
""")
        assert self.assert_fresh_verdicts(cert) == [
            "needs-theory", "lambda-valid", "lambda-valid", "needs-theory",
            "lambda-valid", "needs-theory"]

    def test_fold_cache_changes_no_result(self):
        # a context and its ancestors folded in a random order with one
        # cache: each result is the uncached one up to the names of
        # renamed abstractions
        rng = random.Random(103)
        cache = {}
        for _ in range(200):
            ctx, pool = shadowing_context(rng)
            nodes = [ctx]
            while nodes[-1].parent.entry is not None:
                nodes.append(nodes[-1].parent)
            rng.shuffle(nodes)
            t = gen.gen_term(rng, rng.choice(gen.BASE_SORTS), 3, env=pool)
            for node in nodes:
                (xs, sigma), (ys, tau) = fold(node, cache), fold(node)
                assert [x.sort for x in xs] == [y.sort for y in ys]
                assert alpha_eq(lambda_closure(xs, substitute(t, sigma)),
                                lambda_closure(ys, substitute(t, tau)))
        assert len(cache) > 200


def chain_certificate(n):
    return print_certificate(process(gen.let_chain(n)).certificate)


class TestLetChain:
    """The let chain's let-free form has 2^(n-1) leaves; the oracle
    normalizes it once per node."""

    def test_depth_24_verifies_in_under_a_second(self, tmp_path):
        cert = tmp_path / "chain.hoproof"
        cert.write_text(chain_certificate(24))
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "hosmt.cli", "verify", "--oracle",
             str(cert)],
            capture_output=True, text=True, timeout=20,
            env=dict(os.environ, PYTHONPATH=str(src)))
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(f"{cert}: oracle: all steps lambda-valid")
        assert elapsed < 1.0

    def test_oracle_time_grows_slowly(self):
        certs = [parse_certificate(chain_certificate(n)) for n in (8, 16)]
        t8, t16 = best_times(check_certificate_oracle, certs, repeat=7)
        assert t16 <= 6 * t8
