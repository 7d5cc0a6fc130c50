"""Lambda-encoding oracle: its nameless translation and normal forms
against the references in nameless and oracle_ref, its verdicts against
the reference chain's and the checker's, step validation, and the memos
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
from hosmt.core import (BOOL, DEFAULT_STEP_CAP, App, Binder, Const, Fun, INT,
                        Let, Var, fresh_var, sort_of, sort_str)
from hosmt.oracle import Memos, check_certificate_oracle, oracle_check
from hosmt.processor import process

from conftest import DATA, best_times

import gen
import mutate
import nameless
from oracle_ref import (BAbs, Box, BRedex, EncodingError, encode_left,
                        expand_lets, reify)
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


def lambda_closure(prefix, t):
    for x in reversed(prefix):
        t = Binder("lambda", x, t)
    return t


def node_db(node, depth):
    """The `nameless.to_db` form of an oracle node that lives at `depth`:
    level k is bound index depth - 1 - k."""
    if hasattr(node, "term"):
        t = node.term
        return ("f", t.id) if isinstance(t, Var) else ("c", t.name)
    if hasattr(node, "fn"):
        return ("a", node_db(node.fn, depth), node_db(node.arg, depth))
    if hasattr(node, "body"):
        assert node.level == depth
        body = node_db(node.body, depth + 1)
        if node.kind == "lambda":
            return ("l", sort_str(node.sort), body)
        return ("q", node.kind, sort_str(node.sort), body)
    assert node.level < depth
    return ("b", depth - 1 - node.level)


def reference_db(ctx, t):
    """t under ctx as tests/oracle_ref.py's encoding contracts it, lets
    expanded, closed by lambdas over the fixed variables, in
    `nameless.to_db` form; and the fixed variables."""
    xs, body = oracle_ref.normalize(encode_left(ctx, t))
    return nameless.to_db(lambda_closure(xs, expand_lets(body))), xs


def assert_matches_reference(ctx, *sides, memos=None):
    """The oracle translates each side as the reference does, and its
    normal form is `nameless.db_nf`'s."""
    memos = memos or Memos()
    for t in sides:
        want, xs = reference_db(ctx, t)
        node = memos.translate(ctx, t)

        def closed(n):
            out = node_db(n, len(xs))
            for x in reversed(xs):
                out = ("l", sort_str(x.sort), out)
            return out

        assert closed(node) == want
        memos.budget = memos.cap = DEFAULT_STEP_CAP
        assert closed(memos.nf(node)) == nameless.db_nf(want)


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
    """The nameless translation, one pass over each side's DAG, against
    tests/nameless.py's conversion of tests/oracle_ref.py's contracted
    encoding."""

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
            memos = Memos()
            for step in cert.steps:
                j = step.conclusion
                assert_matches_reference(j.ctx, j.lhs, j.rhs, memos=memos)

    def test_abstraction_renamed_past_image(self):
        # y is mapped to the outer x, then x is fixed: the image stays the
        # outer x, and the abstraction of the fixed x is level 0
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        ctx = EMPTY.map([(y, x)]).fix(x)
        memos = Memos()
        assert memos.translate(ctx, y).term is x
        assert memos.translate(ctx, x).level == 0
        assert_matches_reference(ctx, x, y)
        assert oracle_check(EqJudgment(ctx, y, x)) == "needs-theory"

    def test_deep_context(self):
        # 2,000 entries; the reference recurses once per entry and overflows
        ctx = EMPTY
        for _ in range(1000):
            w, x = fresh_var("w", INT), fresh_var("x", INT)
            ctx = ctx.fix(w).map([(x, App(f, w))])
        memos = Memos()
        node = memos.translate(ctx, x)
        assert node is memos.translate(ctx, App(f, w))
        assert node.arg.level == 999
        assert oracle_check(EqJudgment(ctx, x, App(f, w))) == "lambda-valid"

    def test_image_with_binder_used_under_deeper_binder(self):
        # the image of y holds a binder; used under lambda x it must bind
        # level 1, or its body would point at x
        x, y, z = fresh_var("x", INT), fresh_var("y", INTI), fresh_var("z", INT)
        ident = Binder("lambda", z, z)
        const_x = Binder("lambda", x, Binder("lambda", z, x))
        const_z = Binder("lambda", x, ident)
        lhs = Binder("lambda", x, y)
        for ctx, t in ((EMPTY.map([(y, ident)]), lhs),
                       (EMPTY, Let(((y, ident),), lhs))):
            assert_matches_reference(ctx, t, const_x, const_z)
            assert oracle_check(EqJudgment(ctx, t, const_z)) == "lambda-valid"
            assert oracle_check(EqJudgment(ctx, t, const_x)) == "needs-theory"

    def test_argument_lands_at_two_depths(self):
        # (lambda h. k h (lambda x. h)) (lambda z. z): the argument goes in
        # at depth 0 and under lambda x, where its binder is level 1
        h, x, z = fresh_var("h", INTI), fresh_var("x", INT), fresh_var("z", INT)
        k = Const("k", Fun(INTI, Fun(Fun(INT, INTI), BOOL)))
        ident = Binder("lambda", z, z)
        redex = App(Binder("lambda", h,
                           App(App(k, h), Binder("lambda", x, h))), ident)
        good = App(App(k, ident), Binder("lambda", x, ident))
        bad = App(App(k, ident), Binder("lambda", x, Binder("lambda", z, x)))
        assert_matches_reference(EMPTY, redex, good, bad)
        assert oracle_check(EqJudgment(EMPTY, redex, good)) == "lambda-valid"
        assert oracle_check(EqJudgment(EMPTY, redex, bad)) == "needs-theory"


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

    def test_shared_memos_in_random_order(self):
        # a context and its ancestors translated in a random order with
        # one Memos: each translation is the reference's
        rng = random.Random(103)
        memos = Memos()
        for _ in range(200):
            ctx, pool = shadowing_context(rng)
            nodes = [ctx]
            while nodes[-1].parent.entry is not None:
                nodes.append(nodes[-1].parent)
            rng.shuffle(nodes)
            t = gen.gen_term(rng, rng.choice(gen.BASE_SORTS), 3, env=pool)
            for node in nodes:
                assert_matches_reference(node, t, memos=memos)
        assert len(memos.terms) > 200

    def test_binder_of_a_rebound_variable(self):
        # x is first bound by a binder, then by the context to a; a binder
        # of x inside the side must leave x's binding to a in force for
        # the rest of the side, memo key included
        x, y = fresh_var("x", INT), fresh_var("y", INT)
        h = Const("h", Fun(INTI, Fun(INTI, INT)))
        fx = Binder("lambda", x, App(f, x))
        memos = Memos()
        assert oracle_check(EqJudgment(EMPTY, fx, fx), memos=memos) == (
            "lambda-valid")
        ctx = EMPTY.map([(x, a)])
        ffx = Binder("lambda", x, App(f, App(f, x)))
        lhs = App(App(h, ffx), Binder("lambda", y, App(f, x)))
        rhs = App(App(h, ffx), Binder("lambda", y, App(f, a)))
        assert oracle_check(EqJudgment(ctx, lhs, rhs), memos=memos) == (
            "lambda-valid")
        assert_matches_reference(ctx, lhs, rhs, memos=memos)


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


def forall_certificate(n):
    """The certificate of n nested foralls over (= (g xn (... (g x1 a))) a),
    g's arguments swapped at every second level, as bench/workloads.py's
    forall family."""
    g = Const("g", Fun(INT, INTI))
    xs = [fresh_var(f"x{i}", INT) for i in range(1, n + 1)]
    body = a
    for i, x in enumerate(xs):
        body = App(App(g, body), x) if i % 2 else App(App(g, x), body)
    t = gen.eq_term(body, a)
    for x in reversed(xs):
        t = Binder("forall", x, t)
    return process(t).certificate


class TestForallGrowth:
    def test_oracle_time_grows_slowly(self):
        # the judgments of forall-n restate contexts of up to 2n entries;
        # with one node per body for all of them the oracle stays near
        # linear, where substituting named terms grew as n^2.1
        certs = [forall_certificate(n) for n in (32, 128)]
        t32, t128 = best_times(check_certificate_oracle, certs, repeat=5)
        assert t128 <= 10 * t32


PURE_LAMBDA = ("refl", "cong", "trans", "bind", "beta", "let")


class TestCheckerAgreement:
    def test_mutated_certificates(self):
        # a pure-lambda step that the checker accepts, from premises that
        # are all lambda-valid, is lambda-valid
        rng = random.Random(97)
        certs = [parse_certificate((DATA / f"example{k}.hoproof").read_text())
                 for k in (1, 2, 3)]
        certs += [process(gen.gen_closed(rng, depth=4)).certificate
                  for _ in range(20)]
        checked = 0
        for k in range(600):
            _, bad = mutate.random_mutation(certs[k % len(certs)], rng)
            results = check_certificate(bad).results
            verdicts = {}
            for sid, v in check_certificate_oracle(bad):
                verdicts.setdefault(sid, v)  # the checker's premise
            for step, r in zip(bad.steps, results):
                if (step.rule in PURE_LAMBDA and r.status == "ok"
                        and all(verdicts.get(p) == "lambda-valid"
                                for p in step.premises)):
                    checked += 1
                    assert verdicts[step.id] == "lambda-valid", step
        assert checked > 1000
