"""The core-term printer, `hosmt.certprinter.print_term`, against the
printer it replaced, which erased core terms to surface terms and printed
those (`print_ref`): the same text, at any depth, in linear time."""

import contextlib
import io
import math
import pathlib
import random
import sys

import pytest

from hosmt import cli, processor, signature, surface, typecheck
from hosmt.calculus import (Certificate, EqJudgment, ProofStep,
                            parse_certificate, print_certificate)
from hosmt.certprinter import print_term
from hosmt.context import EMPTY
from hosmt.core import (App, BOOL, Binder, Const, Fun, INT, Let, alpha_eq,
                        fresh_var)
from hosmt.sexpr import SList, sexpr_to_str

from conftest import DATA, best_times, recursion_limit

import gen
from gen import eq_term
import print_ref

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

G = Const("g", Fun(INT, Fun(INT, INT)))
A = Const("a", INT)


def nested(n, names):
    """n nested foralls over (= (g x_n (... (g x_1 a))) a), the variables
    named by names(k): the shape of the processed forall-n workload."""
    vs = [fresh_var(names(k), INT) for k in range(n)]
    body = A
    for v in vs:
        body = App(App(G, v), body)
    t = eq_term(body, A)
    for v in reversed(vs):
        t = Binder("forall", v, t)
    return t


def processed_name(k):
    return "w" if k == 0 else f"w{k}"


class TestReference:
    @pytest.mark.parametrize("seed", (1, 2))
    def test_closed_terms(self, seed):
        rng = random.Random(seed)
        for _ in range(1000):
            t = gen.gen_closed(rng, depth=rng.choice((3, 4, 5, 6)))
            assert print_term(t) == print_ref.print_core(t)

    @pytest.mark.parametrize("seed", (1, 2))
    def test_same_named_free_variables(self, seed):
        # three free variables whose names collide with each other and
        # with the generator's binders
        rng = random.Random(seed)
        for _ in range(1000):
            env = [fresh_var(rng.choice("xyz"), rng.choice(gen.BASE_SORTS))
                   for _ in range(3)]
            t = gen.gen_term(rng, rng.choice(gen.BASE_SORTS),
                             rng.choice((3, 4, 5, 6)), env=env)
            assert print_term(t) == print_ref.print_core(t)

    def test_rebinding_and_shadowing(self):
        x, y = fresh_var("x", INT), fresh_var("x", INT)
        gxy = App(App(G, x), y)
        cases = {
            Binder("lambda", x, Binder("lambda", x, App(App(G, x), x))):
                "(lambda ((x Int)) (lambda ((x Int)) (g x x)))",
            Binder("lambda", x, Binder("lambda", y, Binder("lambda", x, gxy))):
                "(lambda ((x Int)) (lambda ((x Int)) "
                "(lambda ((x1 Int)) (g x1 x))))",
            Binder("lambda", x, gxy): "(lambda ((x1 Int)) (g x1 x))",
            Let(((x, y), (y, x)), gxy): "(let ((x x) (x1 x)) (g x x1))",
            Binder("lambda", x, Let(((x, x),), Binder("lambda", y, gxy))):
                "(lambda ((x Int)) (let ((x x)) (lambda ((x1 Int)) (g x x1))))",
            Binder("forall", x, eq_term(gxy, Const("x", INT))):
                "(forall ((x1 Int)) (= (g x1 x) x))",
        }
        # i is free outside and rebound inside as x1, apart from the
        # constant x; below that, y (named x) may print as x
        i, y = fresh_var("x", INT), fresh_var("x", INT)
        h = Const("h", Fun(INT, Fun(Fun(INT, INT), INT)))
        inner = App(App(h, Const("x", INT)),
                    Binder("lambda", y, App(App(G, i), y)))
        cases[App(App(h, i), Binder("lambda", i, inner))] = \
            "(h x (lambda ((x1 Int)) (h x (lambda ((x Int)) (g x1 x)))))"
        for t, text in cases.items():
            assert print_term(t) == print_ref.print_core(t) == text

    def test_equality_outside_an_application(self):
        eq = Const("=", Fun(INT, Fun(INT, BOOL)))
        t = App(Const("q", Fun(Fun(INT, BOOL), BOOL)), App(eq, A))
        assert print_term(t) == print_ref.print_core(t) \
            == "(q ((as = (-> Int Int Bool)) a))"


def test_renamed_binder_is_not_shared():
    # z prints as y1 under a context that fixes y, and as y where y is not
    # free: the node (g z z) is defined only where z prints as y
    y, z = fresh_var("y", INT), fresh_var("y", INT)
    b = App(App(G, z), z)
    lhs = Binder("lambda", z, App(App(G, b), y))
    rhs = Binder("lambda", z, App(App(G, b), b))
    sig = signature.Signature()
    sig.symbols.update(g=G.sort, a=A.sort)
    cert = Certificate((ProofStep("s1", "refl", (),
                                  EqJudgment(EMPTY.fix(y), lhs, rhs)),),
                       sig)
    text = print_certificate(cert)
    assert "(lambda ((y1 Int)) ((g (g y1 y1)) y))" in text
    assert "(define @t1 (g y y))" in text
    (step,) = parse_certificate(text).steps
    read = step.conclusion
    y2 = read.ctx.entry.var
    assert alpha_eq(Binder("lambda", y2, read.lhs), Binder("lambda", y, lhs))
    assert alpha_eq(Binder("lambda", y2, read.rhs), Binder("lambda", y, rhs))


def _scripts():
    """(name, text) of the data scripts and of the three benchmark
    workloads at seeds 1-3."""
    out = [(p.name, p.read_text()) for p in sorted(DATA.glob("*.smt2"))]
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    import workloads

    for name in ("forall", "let", "batch"):
        for seed in (1, 2, 3):
            out.append((f"{name}-{seed}", workloads.make(name, seed).script))
    return out


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def scripts():
    return _scripts()


class TestCommands:
    """`check --verbose` and `process` print as the reference does."""

    def test_check_verbose(self, scripts, tmp_path):
        for name, text in scripts:
            path = tmp_path / f"{name}.smt2"
            path.write_text(text)
            checked = typecheck.check_script(surface.parse_script(text))
            expected = "".join(f"; assert {i}: {print_ref.print_core(t)}\n"
                               for i, t in enumerate(checked.asserts, 1))
            expected += f"{path}: ok ({len(checked.asserts)} assertion(s))\n"
            assert _cli("check", "--verbose", str(path)) == expected, name

    def test_process(self, scripts, tmp_path):
        for name, text in scripts:
            path = tmp_path / f"{name}.smt2"
            path.write_text(text)
            cmds = surface.parse_script(text)
            checked = typecheck.check_script(cmds)
            asserts = iter(checked.asserts)
            lines = []
            for c in cmds:
                if c.items[0].text == "assert":
                    t = processor.process(next(asserts), checked.signature).term
                    c = SList((c.items[0], print_ref.erase(t)))
                lines.append(sexpr_to_str(c) + "\n")
            assert _cli("process", str(path)) == "".join(lines), name

    def test_erase_equals_reference(self, scripts):
        for name, text in scripts:
            checked = typecheck.check_script(surface.parse_script(text))
            for t in checked.asserts:
                processed = processor.process(t, checked.signature).term
                for u in (t, processed):
                    assert typecheck.erase(u) == print_ref.erase(u), name


class TestDepth:
    """The printer keeps its own stack: depth is bounded by memory only."""

    def test_application_chain(self):
        n = 10_000
        f = Const("f", Fun(INT, INT))
        t = A
        for _ in range(n):
            t = App(f, t)
        assert print_term(eq_term(t, A)) == f"(= {'(f ' * n}a{')' * n} a)"

    def test_nested_binders(self):
        n = 2_000
        text = print_term(nested(n, processed_name))
        assert text.count("(forall ((w") == n
        assert text.startswith("(forall ((w Int)) (forall ((w1 Int)) ")
        assert text.endswith(f"(g w a){')' * (n - 1)} a){')' * n}")

    def test_processed_shape_is_linear(self):
        # the reference walks every body again at every binder
        # all three timed in the same rounds, so that a slow spell of the
        # machine reaches each of them
        t256, t512 = nested(256, processed_name), nested(512, processed_name)
        calls = [(print_ref.print_core, t256), (print_term, t256),
                 (print_term, t512)]
        with recursion_limit(10_000):
            assert print_ref.print_core(t256) == print_term(t256)
            ref, new, new512 = best_times(lambda call: call[0](call[1]),
                                          calls, 15)
        assert new * 20 < ref
        assert math.log2(new512 / new) <= 1.5

    def test_shared_display_name_no_slower(self):
        # every binder is renamed: x, x1, ..., x511
        t = nested(512, lambda k: "x")
        new, = best_times(print_term, [t], 2)
        with recursion_limit(10_000):
            assert print_ref.print_core(t) == print_term(t)
            ref, = best_times(print_ref.print_core, [t], 1)
        assert new <= ref
