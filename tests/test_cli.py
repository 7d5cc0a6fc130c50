"""Command-line interface: subcommands, exit codes, and pipelines."""

import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hosmt import calculus, cli, processor, sexpr, surface, typecheck

from conftest import DATA

PROGRAM1 = (DATA / "program1.smt2").read_text()
PROGRAM2 = (DATA / "program2.smt2").read_text()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# beyond :rule, :conclusion and :premises, which every rule reads: the
# keywords that each rule class reads, and a value for each keyword
READS = {"inst_forall": (":binding",), "inst_exists": (":binding",),
         "taut": (":context", ":theory")}
VALUES = {":context": "c9", ":theory": "beta", ":binding": "((x a))"}


def _second_reading_cases():
    """(step text, offending keyword, message): a step with a keyword that
    its rule does not read, one per (rule, keyword) pair, a repeated
    keyword and an unknown keyword.  c9 names no context, so only the
    keyword check stops the inst_* steps."""
    cases = [pytest.param(
        f"(step s1 :rule {rule} {k} {VALUES[k]} :conclusion (= a a))",
        k, f"rule {rule} takes no {k}", id=rule + k)
        for rule in calculus.RULES for k in VALUES
        if k not in READS.get(rule, (":context",))]
    cases.append(pytest.param(
        "(step s1 :rule refl :conclusion (= a b) :conclusion (= a a))",
        ":conclusion (= a a)", "repeated keyword :conclusion", id="repeated"))
    cases.append(pytest.param(
        "(step s1 :rule refl :frobnicate 7 :conclusion (= a a))",
        ":frobnicate", "unknown keyword :frobnicate", id="unknown"))
    return cases


class TestParse:
    def test_canonical_echo(self, capsys):
        code, out, _ = run(capsys, "parse", str(DATA / "program1.smt2"))
        assert code == 0
        assert "(assert (= (f (h 1)) ((g 1) 2)))" in out
        assert out.strip().startswith("(set-logic UFLIA)")

    def test_parse_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.smt2"
        bad.write_text("(declare-fun f ((-> Int)) Int)")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 1
        assert "arrow sort" in err and "bad.smt2" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "/nonexistent/input.smt2")
        assert code == 2
        assert "error" in err

    def test_reserved_word_heads_lambda_body(self, capsys, tmp_path):
        # the multi-term body `let y` is the term (let y), which parse
        # and check both reject at the lambda
        bad = tmp_path / "body.smt2"
        bad.write_text("(declare-fun x () Int)\n"
                       "(assert (= (lambda ((y Int)) let y) "
                       "(lambda ((y Int)) y)))\n")
        for command in ("parse", "check"):
            code, out, err = run(capsys, command, str(bad))
            assert (code, out) == (1, "")
            assert err == (f"{bad}:2:12: error: let takes a binding list "
                           "and one body\n")

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("(exit)"))
        code, out, _ = run(capsys, "parse", "-")
        assert code == 0 and out == "(exit)\n"


class TestCheck:
    def test_program2_ok(self, capsys):
        code, out, _ = run(capsys, "check", str(DATA / "program2.smt2"))
        assert code == 0
        assert "ok (1 assertion(s))" in out

    def test_sort_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "selfapp.smt2"
        bad.write_text("(declare-fun f (Int) Int)(assert (= (f f) 1))")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1 and "sort" in err

    def test_non_ascii_digit_is_unbound(self, capsys, tmp_path):
        bad = tmp_path / "superscript.smt2"
        bad.write_text("(set-logic ALL)(assert (= (+ ² 1) 1))",
                       encoding="utf-8")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 1 and "unbound symbol ²" in err

    def test_eps_over_several_variables_rejected(self, capsys, tmp_path):
        src = tmp_path / "eps.smt2"
        src.write_text("(declare-fun p (Int) Bool)\n(assert (exists ((x Int)) "
                       "(= x (eps ((y Int) (z Int)) (p y)))))\n")
        assert run(capsys, "check", "--verbose", str(src)) == (
            1, "", f"{src}:2:32: error: eps takes exactly one variable\n")

    def test_first_error_in_source_order(self, capsys, tmp_path):
        # line 2's sort error comes before line 3's syntax error: each
        # command is checked and elaborated in one walk, in order
        src = tmp_path / "order.smt2"
        src.write_text("(declare-fun p (Int) Bool)\n(assert (p true))\n"
                       "(assert (let () (p 1)))")
        assert run(capsys, "check", str(src)) == (
            1, "", f"{src}:2:12: error: argument sort mismatch: expected Int, "
            "found Bool\n")

    def test_syntax_error_first_within_a_command(self, capsys, tmp_path):
        src = tmp_path / "order.smt2"
        src.write_text("(declare-fun p (Int) Bool)\n"
                       "(assert (and (p true) (let () (p 1))))")
        assert run(capsys, "check", str(src)) == (
            1, "", f"{src}:2:23: error: expected a nonempty binding list\n")

    def test_real_arithmetic_is_unbound(self, capsys, tmp_path):
        # the arithmetic symbols are over Int: a logic of real arithmetic
        # alone leaves them out of scope
        src = tmp_path / "lra.smt2"
        src.write_text("(set-logic QF_LRA)(declare-fun x () Real)"
                       "(assert (< x 1.5))")
        assert run(capsys, "check", str(src)) == (
            1, "", f"{src}:1:51: error: unbound symbol <\n")

    def test_curried_forms_elaborate_identically(self, capsys, tmp_path):
        a = tmp_path / "a.smt2"
        b = tmp_path / "b.smt2"
        decl = "(declare-fun g (Int Int) Int)"
        a.write_text(decl + "(assert (= ((g 1) 2) 3))")
        b.write_text(decl + "(assert (= (g 1 2) 3))")
        _, out_a, _ = run(capsys, "check", "--verbose", str(a))
        _, out_b, _ = run(capsys, "check", "--verbose", str(b))
        assert out_a.splitlines()[0] == out_b.splitlines()[0]


class TestProcess:
    def test_program2_normalizes(self, capsys, tmp_path):
        src = tmp_path / "p2.smt2"
        src.write_text(PROGRAM2)
        proof = tmp_path / "p2.hoproof"
        code, out, _ = run(capsys, "process", "--proof", str(proof), str(src))
        assert code == 0
        assert "(assert (= (g 1) (g 1)))" in out
        assert proof.exists()

    def test_proof_verifies(self, capsys, tmp_path):
        src = tmp_path / "p2.smt2"
        src.write_text(PROGRAM2)
        proof = tmp_path / "p2.hoproof"
        run(capsys, "process", "--proof", str(proof), str(src))
        code, out, _ = run(capsys, "verify", "--oracle", str(proof))
        assert code == 0
        assert "all steps lambda-valid" in out
        assert "valid" in out

    def test_trans_emitted_for_reducing_head(self, capsys, tmp_path):
        src = tmp_path / "ex3.smt2"
        src.write_text(
            "(declare-fun p (Int) Int)(declare-fun c () Bool)\n"
            "(assert (= c (= (lambda ((y Int)) "
            "((lambda ((x (-> Int Int))) ((lambda ((z (-> Int Int))) z) x))"
            " (lambda ((x Int)) y) ((lambda ((x Int)) (p x)) y)))"
            " (lambda ((w Int)) w))))")
        proof = tmp_path / "ex3.hoproof"
        code, out, _ = run(capsys, "process", "--proof", str(proof), str(src))
        assert code == 0
        text = proof.read_text()
        assert ":rule trans" in text
        code, _, _ = run(capsys, "verify", str(proof))
        assert code == 0

    def test_already_normal_single_refl(self, capsys, tmp_path):
        src = tmp_path / "plain.smt2"
        src.write_text("(declare-fun c () Bool)(assert c)")
        proof = tmp_path / "plain.hoproof"
        run(capsys, "process", "--proof", str(proof), str(src))
        steps = [l for l in proof.read_text().splitlines()
                 if l.startswith("(step")]
        assert len(steps) == 1 and ":rule refl" in steps[0]

    def test_multiple_assertions_indexed_proofs(self, capsys, tmp_path):
        src = tmp_path / "two.smt2"
        src.write_text("(declare-fun c () Bool)(assert c)(assert c)")
        proof = tmp_path / "out.hoproof"
        code, _, _ = run(capsys, "process", "--proof", str(proof), str(src))
        assert code == 0
        assert (tmp_path / "out.1.hoproof").exists()
        assert (tmp_path / "out.2.hoproof").exists()
        assert not proof.exists()

    def test_proof_with_several_files_refused(self, capsys, tmp_path):
        for name in ("a.smt2", "b.smt2"):
            (tmp_path / name).write_text("(declare-fun c () Bool)(assert c)")
        proof = tmp_path / "ab.hoproof"
        code, out, err = run(capsys, "process", "--proof", str(proof),
                             str(tmp_path / "a.smt2"), str(tmp_path / "b.smt2"))
        assert code == 1 and out == ""
        synopsis = cli.USAGE[:cli.USAGE.index("\n\n")]
        assert err == (f"{synopsis}\nhosmt: error: --proof takes one input "
                       "file, got 2\n")
        assert not list(tmp_path.glob("*.hoproof"))

    def test_failed_print_leaves_no_certificate(self, capsys, tmp_path,
                                                monkeypatch):
        def too_deep(cert):
            raise RecursionError

        monkeypatch.setattr(calculus, "print_certificate", too_deep)
        src = tmp_path / "p2.smt2"
        src.write_text(PROGRAM2)
        proof = tmp_path / "p2.hoproof"
        code, _, err = run(capsys, "process", "--proof", str(proof), str(src))
        assert code == 3 and "nested too deeply" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p2.smt2"]

    def test_deep_chain_proof_verifies(self, tmp_path):
        # a fresh interpreter, as a command-line call has: the printer no
        # longer uses the call stack
        n = 450
        src = tmp_path / "chain.smt2"
        src.write_text("(declare-fun f (Int) Int)\n(declare-fun a () Int)\n"
                       f"(assert (= {'(f ' * n}a{')' * n} a))\n")
        proof = tmp_path / "chain.hoproof"
        path = pathlib.Path(__file__).resolve().parent.parent / "src"
        for argv in (["process", str(src), "--proof", str(proof)],
                     ["verify", str(proof)]):
            done = subprocess.run(
                [sys.executable, "-m", "hosmt.cli", *argv],
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(path)))
            assert done.returncode == 0, done.stderr
        assert done.stdout == f"{proof}: valid (1 steps)\n"

    def test_deep_term_through_every_command(self, tmp_path):
        # a fresh interpreter: the surface reader and printer spend one
        # call frame per nesting level, so a 900-deep term still passes
        n = 900
        src = tmp_path / "chain.smt2"
        src.write_text("(declare-fun f (Int) Int)\n(declare-fun a () Int)\n"
                       f"(assert (= {'(f ' * n}a{')' * n} a))\n")
        proof = tmp_path / "chain.hoproof"
        path = pathlib.Path(__file__).resolve().parent.parent / "src"
        for argv in (["parse", str(src)], ["check", "--verbose", str(src)],
                     ["process", "--proof", str(proof), str(src)],
                     ["verify", str(proof)], ["verify", "--oracle", str(proof)]):
            done = subprocess.run(
                [sys.executable, "-m", "hosmt.cli", *argv],
                capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=str(path)))
            assert done.returncode == 0, (argv[0], done.stderr)
        assert done.stdout == (f"{proof}: oracle: all steps lambda-valid\n"
                               f"{proof}: valid (1 steps)\n")

    def test_named_sorts_through_proof(self, capsys, tmp_path):
        decls = ("(declare-sort U 0)\n(declare-sort L 1)\n"
                 "(declare-fun u () U)\n(declare-fun f ((L U)) U)\n")
        src = tmp_path / "sorts.smt2"
        src.write_text(decls + "(assert (forall ((y (L U))) "
                       "(= (f y) ((lambda ((z U)) z) u))))\n")
        proof = tmp_path / "sorts.hoproof"
        code, out, _ = run(capsys, "process", "--proof", str(proof), str(src))
        assert code == 0
        assert out == decls + "(assert (forall ((w (L U))) (= (f w) u)))\n"
        assert proof.read_text().startswith(decls)
        code, out, _ = run(capsys, "verify", "--oracle", str(proof))
        assert code == 0 and "all steps lambda-valid" in out

    def test_divergence_exit_3(self, capsys, tmp_path):
        src = tmp_path / "deep.smt2"
        src.write_text(
            "(assert (= ((lambda ((x Int)) x) ((lambda ((y Int)) y) 1)) 1))")
        code, _, err = run(capsys, "process", "--max-steps", "1", str(src))
        assert code == 3 and "step cap" in err

    def test_choice_binder_error_at_assertion(self, capsys, tmp_path):
        src = tmp_path / "eps.smt2"
        src.write_text("(declare-fun p (Int) Bool)\n"
                       "  (assert (p (eps ((x Int)) (p x))))\n")
        code, out, err = run(capsys, "process", str(src))
        assert (code, out) == (1, "(declare-fun p (Int) Bool)\n")
        assert err == (f"{src}:2:3: error: cannot process a term under a "
                       "choice binder\n")


class TestVerify:
    @pytest.mark.parametrize("name", ("example1.hoproof",
                                      "example2.hoproof",
                                      "example3.hoproof"))
    def test_goldens(self, capsys, name):
        code, out, _ = run(capsys, "verify", str(DATA / name))
        assert code == 0 and "valid" in out

    def test_invalid_exit_4(self, capsys, tmp_path):
        text = (DATA / "example1.hoproof").read_text()
        bad = tmp_path / "bad.hoproof"
        bad.write_text(text.replace("(= x a))", "(= x (p a a)))"))
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 4 and "invalid" in err and "r3" in err

    def test_failure_reports_step_position(self, capsys, tmp_path):
        lines = (DATA / "example1.hoproof").read_text().splitlines()
        (i,) = [i for i, l in enumerate(lines) if l.startswith("(step r3 ")]
        lines[i] = "  " + lines[i].replace("(= x a))", "(= x (p a a)))")
        bad = tmp_path / "bad.hoproof"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 4
        assert err == f"{bad}:{i + 1}:3: invalid: refl step r3: context " \
            "applied to the left side does not match the right side\n"

    def test_binder_kind_is_part_of_alpha_equality(self, capsys, tmp_path):
        bad = tmp_path / "kinds.hoproof"
        bad.write_text("(step s1 :rule refl :conclusion "
                       "(= (forall ((x Bool)) x) (exists ((x Bool)) x)))\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 4
        assert err == (f"{bad}:1:1: invalid: refl step s1: context applied "
                       "to the left side does not match the right side\n")

    def test_eps_over_several_variables_rejected(self, capsys, tmp_path):
        eps = "(eps ((y Int) (z Int)) (p y))"
        bad = tmp_path / "eps.hoproof"
        bad.write_text("(declare-fun p (Int) Bool)\n"
                       f"(step s1 :rule refl :conclusion (= {eps} {eps}))\n")
        assert run(capsys, "verify", str(bad)) == (
            1, "", f"{bad}:2:36: error: eps takes exactly one variable\n")

    @pytest.mark.parametrize("step, at, message", _second_reading_cases())
    def test_step_has_one_reading(self, capsys, tmp_path, step, at, message):
        path = tmp_path / "keywords.hoproof"
        path.write_text("(declare-fun a () Int)(declare-fun b () Int)\n"
                        f"{step}\n")
        col = step.index(at) + 1
        assert run(capsys, "verify", str(path)) == (
            1, "", f"{path}:2:{col}: error: {message}\n")

    def test_let_renames_a_captured_variable(self, capsys, tmp_path):
        # the context sends y to x, so (let ((x a)) y) becomes a let whose
        # variable is renamed: s1 holds, s2 captures x and is rejected
        ctx = ":context ((fix x Int) (fix y Int) (map (y x)))"
        path = tmp_path / "capture.hoproof"
        path.write_text(
            "(declare-fun a () Int)\n"
            f"(step s1 :rule refl {ctx} :conclusion "
            "(= (let ((x a)) y) (let ((z a)) x)))\n"
            f"(step s2 :rule refl {ctx} :conclusion "
            "(= (let ((x a)) y) (let ((x a)) x)))\n")
        assert run(capsys, "verify", str(path)) == (
            4, "", f"{path}:3:1: invalid: refl step s2: context applied to "
            "the left side does not match the right side\n")

    def test_trans_message_quotes_terms(self, capsys, tmp_path):
        # the message prints both middle terms, binders included
        left = "(lambda ((x Int)) (g x a))"
        right = "(lambda ((x Int)) ((lambda ((x Int)) (g x x)) x))"
        bad = tmp_path / "trans.hoproof"
        bad.write_text(
            "(declare-fun g (Int Int) Int)\n(declare-fun a () Int)\n"
            f"(step s1 :rule refl :conclusion (= {left} {left}))\n"
            f"(step s2 :rule refl :conclusion (= {right} {right}))\n"
            f"(step s3 :rule trans :premises (s1 s2) :conclusion "
            f"(= {left} {right}))\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 4
        assert err == (f"{bad}:5:1: invalid: trans step s3: middle terms "
                       f"differ ({left} vs {right})\n")

    def test_dangling_context_name_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.hoproof"
        bad.write_text("(declare-fun a () Int)\n"
                       "(context c1 () (map (x a)))\n"
                       "(step s1 :rule refl :context c2 :conclusion (= x a))\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 1
        assert err == f"{bad}:3:30: error: unknown context c2\n"

    @pytest.mark.parametrize("step,msg", [
        ("(step s2 :rule refl :conclusion (= @t1 (f 1)))",
         "term @t1 uses x, which means another variable here"),
        ("(step s2 :rule refl :context c1 :conclusion "
         "(= (lambda ((x Bool)) @t1) (lambda ((x Bool)) (f 1))))",
         "term @t1 uses x, which means another variable here"),
        ("(step s2 :rule refl :conclusion (= @t2 (f 1)))", "unknown term @t2"),
    ])
    def test_bad_term_reference_exit_1(self, capsys, tmp_path, step, msg):
        bad = tmp_path / "bad.hoproof"
        bad.write_text("(declare-fun f (Int) Int)\n"
                       "(context c1 () (fix x Int))\n"
                       "(define @t1 (f x))\n"
                       "(step s1 :rule refl :context c1 :conclusion (= @t1 @t1))\n"
                       f"{step}\n")
        code, _, err = run(capsys, "verify", str(bad))
        assert code == 1
        col = step.index("@t") + 1
        assert err == f"{bad}:5:{col}: error: {msg}\n"

    def test_long_definition_chain(self, capsys, tmp_path):
        # 5,000 definitions, each naming the one before, first used from
        # the far end: elaborating it nests as deeply as the chain
        lines = ["(declare-fun f (Int) Int)(declare-fun a () Int)",
                 "(define @t1 (f a))"]
        lines += [f"(define @t{k} (f @t{k - 1}))" for k in range(2, 5001)]
        lines.append("(step s1 :rule refl :conclusion (= @t5000 @t5000))")
        cert = tmp_path / "chain.hoproof"
        cert.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", str(cert))
        assert code == 3 and "nested too deeply" in err
        assert "Traceback" not in err

    def test_trusted_exit_5(self, capsys, tmp_path):
        cert = tmp_path / "arith.hoproof"
        cert.write_text("(step s1 :rule taut :theory arith "
                        ":conclusion (= (+ 1 1) 2))\n")
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 5 and "1 trusted step(s)" in out
        code, _, _ = run(capsys, "verify", "--allow-trust", str(cert))
        assert code == 0

    def test_oracle_reports_theory_step(self, capsys, tmp_path):
        cert = tmp_path / "arith.hoproof"
        cert.write_text("(step s1 :rule taut :theory arith "
                        ":conclusion (= (+ 1 1) 2))\n")
        code, out, _ = run(capsys, "verify", "--oracle", "--allow-trust",
                           str(cert))
        assert code == 0
        assert "step s1 is needs-theory" in out

    def test_max_steps_reaches_checker(self, capsys, tmp_path):
        # the left side needs two beta-steps to reach (g a a)
        cert = tmp_path / "two.hoproof"
        cert.write_text("(declare-fun g (Int Int) Int)(declare-fun a () Int)\n"
                        "(step s1 :rule taut :theory beta :conclusion "
                        "(= ((lambda ((x Int)) ((lambda ((y Int)) (g y y)) x)) a)"
                        " (g a a)))\n")
        code, _, err = run(capsys, "verify", "--max-steps", "1", str(cert))
        assert code == 3 and "exceeded 1 steps" in err
        code, out, _ = run(capsys, "verify", str(cert))
        assert code == 0 and "valid (1 steps)" in out

    def test_max_steps_caps_oracle_steps_spent_anew(self, capsys):
        # the redex of example1's beta step is normalized by no earlier
        # step, so the oracle spends a step on it anew; the checker spends
        # none on a beta step
        golden = str(DATA / "example1.hoproof")
        code, _, err = run(capsys, "verify", "--oracle", "--max-steps", "0",
                           golden)
        assert code == 3 and "exceeded 0 steps" in err
        code, out, _ = run(capsys, "verify", "--max-steps", "0", golden)
        assert code == 0 and out == f"{golden}: valid (7 steps)\n"

    def test_deep_context_gets_its_verdict(self, capsys, tmp_path):
        # a context chain 1,000 entries deep, as in the certificate of 200
        # nested beta-redexes but without its 1.7 MB of restated contexts
        ctx = " ".join(["(map (y a))"] * 1000)
        cert = tmp_path / "deep.hoproof"
        cert.write_text("(declare-fun a () Int)\n"
                        f"(step s1 :rule refl :context ({ctx}) "
                        ":conclusion (= y a))\n")
        code, _, err = run(capsys, "verify", str(cert))
        assert code == 4
        assert "final judgment has a non-empty context" in err
        assert "Traceback" not in err

    def test_deep_named_context_chain(self, capsys, tmp_path):
        # 10,000 named contexts, each extending the one before
        lines = ["(declare-fun a () Int)", "(context c1 () (map (y a)))"]
        lines += [f"(context c{k} c{k - 1} (map (y a)))"
                  for k in range(2, 10001)]
        lines.append("(step s1 :rule refl :context c10000 :conclusion (= y a))")
        cert = tmp_path / "chain.hoproof"
        cert.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", str(cert))
        assert code == 4
        assert "final judgment has a non-empty context" in err
        assert "Traceback" not in err

    def test_deep_term_exit_3(self, capsys, tmp_path):
        # a conclusion nested 3,000 deep still exhausts the call stack
        deep = "(f " * 3000 + "a" + ")" * 3000
        cert = tmp_path / "deep.hoproof"
        cert.write_text("(declare-fun a () Int)(declare-fun f (Int) Int)\n"
                        f"(step s1 :rule refl :conclusion (= {deep} {deep}))\n")
        code, _, err = run(capsys, "verify", str(cert))
        assert code == 3 and "nested too deeply" in err
        assert "Traceback" not in err


# declarations that clash with an earlier one or with a built-in symbol,
# and the error at the clashing declaration
_CLASHES = {
    "sort": ("(declare-sort U 0)(declare-sort U 01)\n",
             "1:19: error: sort U declared twice"),
    "symbol": ("(declare-fun a () Int)\n  (declare-const a Bool)\n",
               "2:3: error: symbol a declared twice"),
    "core": ("(declare-fun true () Bool)\n",
             "1:1: error: symbol true declared twice"),
    "equality": ("(declare-fun a () Int)\n(declare-fun = (Int Int) Bool)\n",
                 "2:1: error: symbol = declared twice"),
    "arrow": ("(declare-sort -> 2)(declare-fun f () (-> Int Int))\n",
              "1:1: error: sort -> declared twice"),
}
_STEP = "(step s1 :rule refl :conclusion (= true true))\n"
# an arity past the interpreter's default limit of 4,300 digits on
# converting a numeral
_ARITY = "(declare-sort U 0" + "1" * 5000 + ")\n"


@pytest.mark.parametrize("command,text,error", [
    *(pytest.param("check", text + "(assert true)\n", error, id=f"check-{k}")
      for k, (text, error) in _CLASHES.items()),
    *(pytest.param("verify", text + _STEP, error, id=f"verify-{k}")
      for k, (text, error) in _CLASHES.items()),
    pytest.param("verify", "(set-logic ALL)\n" + _STEP,
                 "1:1: error: only declarations and steps are allowed",
                 id="verify-set-logic"),
    *(pytest.param(command, _ARITY + tail,
                   "1:17: error: declare-sort arity has too many digits",
                   id=f"{command}-arity")
      for command, tail in (("parse", ""), ("check", "(assert true)\n"),
                            ("verify", _STEP))),
])
def test_declaration_errors(capsys, tmp_path, command, text, error):
    """Scripts and certificate preambles declare through one path, and a
    certificate holds no other command."""
    path = tmp_path / ("in.hoproof" if command == "verify" else "in.smt2")
    path.write_text(text)
    assert run(capsys, command, str(path)) == (1, "", f"{path}:{error}\n")


class TestQuotedSymbols:
    SCRIPT = ("(declare-fun |x y| () Int)\n"
              "(declare-fun f (Int) Int)\n"
              "(assert (forall ((|a b| Int)) (= (f |a b|) (f |x y|))))\n")

    def test_parse_round_trips(self, capsys, tmp_path):
        src = tmp_path / "quoted.smt2"
        src.write_text(self.SCRIPT)
        code, out, _ = run(capsys, "parse", str(src))
        assert code == 0 and out == self.SCRIPT
        again = tmp_path / "again.smt2"
        again.write_text(out)
        assert run(capsys, "parse", str(again)) == (0, out, "")

    def test_check_verbose_quotes_binders(self, capsys, tmp_path):
        src = tmp_path / "quoted.smt2"
        src.write_text(self.SCRIPT)
        code, out, _ = run(capsys, "check", "--verbose", str(src))
        assert code == 0
        assert "(forall ((|a b| Int)) (= (f |a b|) (f |x y|)))" in out

    def test_certificate_verifies(self, capsys, tmp_path):
        src = tmp_path / "quoted.smt2"
        src.write_text(self.SCRIPT)
        proof = tmp_path / "quoted.hoproof"
        code, out, _ = run(capsys, "process", "--proof", str(proof), str(src))
        assert code == 0
        assert "(declare-fun |x y| () Int)" in proof.read_text()
        code, out, err = run(capsys, "verify", "--oracle", str(proof))
        assert code == 0, err
        assert "all steps lambda-valid" in out

    def test_bare_unless_the_lexer_needs_bars(self):
        quote = sexpr.quote
        assert [quote(n) for n in ("x", "w1", "a.b", "12", "1.5", "forall")
                ] == ["x", "w1", "a.b", "12", "1.5", "forall"]
        assert [quote(n) for n in ("", ":k", "a b", "a\tb", "(", ")", "a;b",
                                   'a"b')] == [
            "||", "|:k|", "|a b|", "|a\tb|", "|(|", "|)|", "|a;b|", '|a"b|']


class TestBatch:
    def test_outputs_in_input_order(self, capsys):
        files = [str(DATA / n) for n in
                 ("example2.hoproof", "example1.hoproof", "example3.hoproof")]
        code, out, _ = run(capsys, "verify", *files)
        assert code == 0
        lines = out.strip().splitlines()
        assert [l.split(":")[0] for l in lines] == files

    def test_first_failure_code_wins(self, capsys, tmp_path):
        bad = tmp_path / "bad.hoproof"
        bad.write_text("(step s1 :rule refl :conclusion (= 1 2))\n")
        code, out, _ = run(capsys, "verify", str(bad),
                           str(DATA / "example1.hoproof"))
        assert code == 4
        # the good file's result is still printed
        assert "example1.hoproof: valid" in out


_CPUS = cli._cpus


def _spread(monkeypatch, cpus, min_share=1):
    """Let cli.main use `cpus` CPUs, and fork for `min_share` microseconds
    of work, by default however little work a call has; the list that
    gets an entry for each worker forked."""
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "MIN_SHARE_US", min_share)
    forks, fork = [], os.fork

    def counted():
        forks.append(None)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return forks


# a script whose assertions each yield a certificate of several steps,
# with other commands between them; BAD asserts a term under a choice
# binder, which process rejects
FAN_DECLS = ("(declare-fun p (Int) Bool)\n(declare-fun f (Int) Int)\n"
             "(declare-fun a () Int)\n")
BAD = "(assert (p (eps ((x Int)) (p x))))"


# the ways a worker can end without sending its results, each raised
# where it would send them
LOST_WORKERS = ["os.kill(os.getpid(), 9)", "os._exit(0)",
                "raise KeyboardInterrupt", "raise MemoryError"]


def _fan_assert(i):
    arg = "(f " * i + "x" + ")" * i
    return (f"(assert (forall ((x Int)) (p ((lambda ((y Int)) (f y)) "
            f"{arg}))))")


class TestFanOut:
    """A call's output does not depend on how its items are spread."""

    def _verify_inputs(self, tmp_path):
        text = (DATA / "example1.hoproof").read_text()
        invalid = tmp_path / "invalid.hoproof"
        invalid.write_text(text.replace("(= x a))", "(= x (p a a)))"))
        trusted = tmp_path / "trusted.hoproof"
        trusted.write_text("(step s1 :rule taut :theory arith "
                           ":conclusion (= (+ 1 1) 2))\n")
        malformed = tmp_path / "malformed.hoproof"
        malformed.write_text("(step s1 :rule refl :conclusion (= a a)\n")
        return text, [str(DATA / "example2.hoproof"), str(invalid), "-",
                      str(trusted), str(tmp_path / "missing.hoproof"),
                      str(DATA / "example3.hoproof"), str(malformed),
                      str(DATA / "example1.hoproof")]

    @pytest.mark.parametrize("flags", [[], ["--oracle"]],
                             ids=["verify", "oracle"])
    def test_verify_mix(self, capsys, monkeypatch, tmp_path, flags):
        stdin, files = self._verify_inputs(tmp_path)
        here = os.getpid()

        class Stdin(io.StringIO):  # empty to a worker
            def read(self):
                return super().read() if os.getpid() == here else ""
        runs = []
        for cpus in (1, 2, 3):
            forks = _spread(monkeypatch, cpus)
            monkeypatch.setattr(sys, "stdin", Stdin(stdin))
            runs.append(run(capsys, "verify", *flags, *files))
            assert bool(forks) == (cpus > 1)
        assert runs[1] == runs[0] and runs[2] == runs[0]
        code, out, err = runs[0]
        assert code == 4  # the invalid certificate comes first
        assert "<stdin>: valid (7 steps)\n" in out
        assert f"{files[3]}: valid with 1 trusted step(s)\n" in out
        assert [l.split(":")[0] for l in err.splitlines()] == [
            files[1], files[4], files[6]]

    @pytest.mark.parametrize("bad", [2, 6])
    def test_process_stops_at_failing_assertion(self, capsys, monkeypatch,
                                                tmp_path, bad):
        cmds = [_fan_assert(i) for i in range(1, 8)]
        cmds[bad - 1] = BAD
        src = tmp_path / "many.smt2"
        src.write_text(FAN_DECLS + "\n(check-sat)\n".join(cmds) + "\n")
        calls, process = tmp_path / "calls", processor.process

        def counted(*args, **kwargs):  # one byte per call, from any process
            with open(calls, "a") as fh:
                fh.write(".")
            return process(*args, **kwargs)
        runs = []
        for cpus in (1, 2, 3):
            forks = _spread(monkeypatch, cpus)
            monkeypatch.setattr(processor, "process", counted)
            calls.write_text("")
            proof = tmp_path / str(cpus) / "out.hoproof"
            proof.parent.mkdir()
            code, out, err = run(capsys, "process", "--proof", str(proof),
                                 str(src))
            certs = {p.name: p.read_bytes()
                     for p in sorted(proof.parent.iterdir())}
            runs.append((code, out, err, certs))
            assert bool(forks) == (cpus > 1)
            if bad == 6:  # in the last share: its worker stops there too,
                # and this process runs the failing assertion again
                assert calls.read_text() == "." * (bad + (cpus > 1))
            with pytest.raises(ChildProcessError):  # every worker is reaped
                os.waitpid(-1, os.WNOHANG)
        assert runs[1] == runs[0] and runs[2] == runs[0]
        code, out, err, certs = runs[0]
        assert code == 1 and err.endswith("error: cannot process a term "
                                          "under a choice binder\n")
        assert out.count("(assert ") == bad - 1
        assert out.endswith("(check-sat)\n") and "(check-sat)" * 2 not in out
        assert sorted(certs) == sorted(f"out.{i}.hoproof"
                                       for i in range(1, bad))

    def test_process_certificates_as_serial(self, capsys, monkeypatch,
                                            tmp_path):
        src = tmp_path / "many.smt2"
        src.write_text(FAN_DECLS + "".join(_fan_assert(i) + "\n"
                                           for i in range(1, 9)))
        runs = []
        for cpus in (1, 2):
            _spread(monkeypatch, cpus)
            proof = tmp_path / str(cpus) / "out.hoproof"
            proof.parent.mkdir()
            code, out, err = run(capsys, "process", "--proof", str(proof),
                                 str(src))
            runs.append((code, out, err, [
                p.read_bytes() for p in sorted(proof.parent.iterdir())]))
        assert runs[1] == runs[0]
        assert runs[0][0] == 0 and len(runs[0][3]) == 8

    def test_process_streams_its_output(self, monkeypatch, tmp_path):
        # each assertion's line is written before the next is processed,
        # in this process's share as in a serial run
        src = tmp_path / "many.smt2"
        src.write_text(FAN_DECLS + "".join(_fan_assert(i) + "\n"
                                           for i in range(1, 7)))
        process = processor.process
        for cpus in (1, 2):
            _spread(monkeypatch, cpus)
            out, seen = io.StringIO(), []

            def counted(*args, **kwargs):
                seen.append(out.getvalue().count("(assert "))
                return process(*args, **kwargs)
            monkeypatch.setattr(processor, "process", counted)
            monkeypatch.setattr(sys, "stdout", out)
            assert cli.main(["process", str(src)]) == 0
            monkeypatch.undo()
            assert seen[:3] == [0, 1, 2] and out.getvalue().count(
                "(assert ") == 6

    @pytest.mark.parametrize("at", [1, 4])
    def test_unexpected_error_as_serial(self, capsys, monkeypatch, tmp_path,
                                        at):
        # an error that no command reports (a fault in the program)
        # propagates out of cli.main after the output of the files before
        # it, whichever process met it first
        faulty = tmp_path / "faulty.hoproof"
        faulty.write_text((DATA / "example2.hoproof").read_text())
        files = [str(DATA / f"example{i}.hoproof") for i in (1, 2, 1, 2, 3)]
        files.insert(at, str(faulty))
        parse = calculus.parse_certificate

        def parse_faulty(text, filename):
            if filename == str(faulty):
                raise TypeError("a fault")
            return parse(text, filename=filename)
        runs = []
        for cpus in (1, 2, 3):
            forks = _spread(monkeypatch, cpus)
            monkeypatch.setattr(calculus, "parse_certificate", parse_faulty)
            with pytest.raises(TypeError, match="a fault"):
                cli.main(["verify", *files])
            runs.append(capsys.readouterr())
            assert bool(forks) == (cpus > 1)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert runs[0].err == "" and runs[0].out.count("valid (") == at

    def test_unwritable_stdout_as_serial(self, capsys, monkeypatch):
        # a worker's text that stdout cannot take: its file reports the
        # error, as in a serial run, and the call ends in exit 2
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")
        files = [str(DATA / f"example{i}.hoproof") for i in (1, 2, 3)]
        runs = []
        for cpus in (1, 2):
            forks = _spread(monkeypatch, cpus)
            monkeypatch.setattr(sys, "stdout", Closed())
            runs.append((cli.main(["verify", *files]),
                         capsys.readouterr().err))
            assert bool(forks) == (cpus > 1)
        assert runs[1] == runs[0]
        assert runs[0] == (2, "".join(f"{f}: error: [Errno 32] Broken pipe\n"
                                      for f in files))

    def test_parse_and_check_stay_in_process(self, capsys, monkeypatch):
        forks = _spread(monkeypatch, 2)
        files = [str(DATA / f"program{i}.smt2") for i in (1, 2, 1)]
        assert run(capsys, "parse", *files)[0] == 0
        assert run(capsys, "check", *files)[0] == 0
        assert forks == []

    def test_workers_are_reaped(self, capsys, monkeypatch):
        forks = _spread(monkeypatch, 3)
        files = [str(DATA / f"example{i}.hoproof") for i in (1, 2, 3, 1)]
        code, out, _ = run(capsys, "verify", "--oracle", *files)
        assert code == 0 and out.count("lambda-valid") == 4
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_tiny_calls_stay_in_process(self, capsys, monkeypatch):
        forks = _spread(monkeypatch, 2, cli.MIN_SHARE_US)
        files = [str(DATA / f"example{i}.hoproof") for i in (1, 2, 3)]
        code, _, _ = run(capsys, "verify", "--oracle", *files)
        assert code == 0 and forks == []

    def test_no_fork_beside_another_thread(self, capsys, monkeypatch):
        import threading

        forks = _spread(monkeypatch, 2)
        monkeypatch.setattr(cli, "_cpus", _CPUS)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        files = [str(DATA / f"example{i}.hoproof") for i in (1, 2, 3)]
        assert run(capsys, "verify", *files)[0] == 0 and len(forks) == 1
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert run(capsys, "verify", *files)[0] == 0 and len(forks) == 1
        finally:
            stop.set()
            other.join(10)
        assert not other.is_alive()

    @pytest.mark.parametrize("command", ["verify", "process"])
    def test_worker_fault_as_serial(self, capsys, monkeypatch, tmp_path,
                                    command):
        # a fault that only a worker meets (here at the first item of its
        # share of three) leaves that item and every one after it to this
        # process
        here, faults = os.getpid(), tmp_path / "faults"
        text = (DATA / "example2.hoproof").read_text()
        files = [tmp_path / f"f{i}.hoproof" for i in range(9)]
        for f in files:
            f.write_text(text)
        src = tmp_path / "many.smt2"
        src.write_text(FAN_DECLS + "".join(_fan_assert(i) + "\n"
                                           for i in range(1, 10)))
        module, name = ((calculus, "parse_certificate") if command == "verify"
                        else (processor, "process"))
        real = getattr(module, name)

        def faulty(*args, **kwargs):
            if os.getpid() != here:
                with open(faults, "a") as fh:
                    fh.write(".")
                raise MemoryError
            return real(*args, **kwargs)
        runs = []
        for cpus in (1, 2, 3):
            forks = _spread(monkeypatch, cpus)
            monkeypatch.setattr(module, name, faulty)
            faults.write_text("")
            proof = tmp_path / str(cpus) / "out.hoproof"
            proof.parent.mkdir()
            argv = (["verify", *map(str, files)] if command == "verify"
                    else ["process", "--proof", str(proof), str(src)])
            code, out, err = run(capsys, *argv)
            runs.append((code, out, err, {p.name: p.read_bytes()
                                          for p in proof.parent.iterdir()}))
            assert len(forks) == cpus - 1
            assert faults.read_text() == "." * (cpus - 1)  # one per worker
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert runs[1] == runs[0] and runs[2] == runs[0]
        code, out, err, certs = runs[0]
        assert code == 0 and err == ""
        if command == "verify":
            assert out.count("valid (8 steps)\n") == 9 and certs == {}
        else:
            assert out.count("(assert ") == 9 and len(certs) == 9

    @pytest.mark.parametrize("patch", [
        *(f"def dumps(results):\n    {death}\n"
          "forked.marshal = types.SimpleNamespace(dumps=dumps, "
          "loads=marshal.loads)\n" for death in LOST_WORKERS),
        "def fork():\n    raise OSError('no process')\nos.fork = fork\n"],
        ids=[*LOST_WORKERS, "os.fork raises OSError"])
    def test_lost_worker_as_serial(self, tmp_path, patch):
        # every item of a worker that ended without its results, or could
        # not be forked, is run by this process; no worker returns into
        # the caller's code, and every one is reaped
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = (
            "import marshal, os, sys, types\n"
            "from hosmt import cli, forked\n"
            "cpus, proof, script, *files = sys.argv[1:]\n"
            "cli._cpus = lambda: int(cpus)\n"
            "cli.MIN_SHARE_US = 1\n"
            f"{patch}"
            "forks, fork = [], os.fork\n"
            "def counted():\n"
            "    forks.append(None)\n"
            "    return fork()\n"
            "os.fork = counted\n"
            "print('returned', cli.main(['verify', *files]))\n"
            "print('returned', cli.main(['process', '--proof', proof, "
            "script]))\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('every worker reaped')\n"
            "sys.stderr.write(f'forks {len(forks)}')\n")
        script = tmp_path / "many.smt2"
        script.write_text(FAN_DECLS + "".join(_fan_assert(i) + "\n"
                                              for i in range(1, 7)))
        files = [str(DATA / f"example{i}.hoproof") for i in (1, 2, 3) * 2]
        runs = []
        for cpus in (1, 2, 3):
            proof = tmp_path / str(cpus) / "out.hoproof"
            proof.parent.mkdir()
            done = subprocess.run(
                [sys.executable, "-c", code, str(cpus), str(proof),
                 str(script), *files], capture_output=True, text=True,
                timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
            err, forks = done.stderr.rsplit("forks ", 1)
            assert int(forks) == 2 * (cpus - 1)  # one per call and worker
            runs.append((done.stdout, err, done.returncode, [
                p.read_bytes() for p in sorted(proof.parent.iterdir())]))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        out, err, code, certs = runs[0]
        assert out.count("returned 0\n") == 2
        assert out.endswith("every worker reaped\n")
        assert out.count("valid (") == 6 and out.count("(assert ") == 6
        assert err == "" and code == 0 and len(certs) == 6


class TestUsage:
    GOLDEN = str(DATA / "example1.hoproof")

    @pytest.mark.parametrize("argv", (
        [],
        ["verify"],
        ["bogus", GOLDEN],
        ["verify", "--max-steps", "x", GOLDEN],
        ["parse", "--verbose", GOLDEN],
        ["process", "--verbose", GOLDEN],
        ["verify", "--verbose", GOLDEN],
        ["parse", "--max-steps", "3", GOLDEN],
        ["check", "--max-steps", "3", GOLDEN],
    ))
    def test_usage_error_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "usage:" in err

    @pytest.mark.parametrize("argv", (["--help"], ["verify", "--help"],
                                      ["verify", GOLDEN, "-h"]))
    def test_help_exit_0(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "usage:" in out

    @pytest.mark.parametrize("argv,error", [
        ([], "missing subcommand"),
        (["bogus", GOLDEN], "unknown subcommand 'bogus'"),
        (["verify"], "verify needs at least one file"),
        (["verify", "--orac", GOLDEN], "verify takes no option --orac"),
        (["parse", "--verbose", GOLDEN], "parse takes no option --verbose"),
        (["verify", GOLDEN, "--max-steps"], "--max-steps needs a value"),
        (["process", GOLDEN, "--proof"], "--proof needs a value"),
        (["process", "--proof", "--max-steps", "3", GOLDEN],
         "--proof needs a value"),
        (["verify", "--max-steps=x", GOLDEN],
         "--max-steps takes an integer, not 'x'"),
        (["verify", "--oracle=yes", GOLDEN], "--oracle takes no value"),
    ])
    def test_usage_error_names_its_cause(self, capsys, argv, error):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        synopsis = cli.USAGE[:cli.USAGE.index("\n\n")]
        assert err == f"{synopsis}\nhosmt: error: {error}\n"

    @pytest.mark.parametrize("argv,files,options", [
        (["verify", "--max-steps=3", "a"], ["a"], {"max_steps": 3}),
        (["verify", "a", "--oracle", "b", "--max-steps", "-3", "c"],
         ["a", "b", "c"], {"oracle": True, "max_steps": -3}),
        (["verify", "--max-steps", "3", "a", "--max-steps=5"], ["a"],
         {"max_steps": 5}),
        (["process", "--proof=P", "a"], ["a"], {"proof": "P"}),
        (["process", "--proof", "P", "a", "--proof", "Q"], ["a"],
         {"proof": "Q"}),
        (["verify", "-", "--", "-x", "--oracle", "--"],
         ["-", "-x", "--oracle", "--"], {"oracle": False}),
        (["check", "a", "--verbose", "--verbose"], ["a"], {"verbose": True}),
    ])
    def test_argv_forms(self, argv, files, options):
        args = cli.parse_args(argv)
        assert (args.command, args.files) == (argv[0], files)
        assert {name: getattr(args, name) for name in options} == options

    def test_argv_forms_reach_the_commands(self, capsys, monkeypatch,
                                           tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-x").write_text(pathlib.Path(self.GOLDEN).read_text())
        assert run(capsys, "verify", "--", "-x") == (
            0, "-x: valid (7 steps)\n", "")
        code, _, err = run(capsys, "verify", "--oracle", "--max-steps=0",
                           "--", "-x")
        assert code == 3 and "exceeded 0 steps" in err
        # the last of a repeated option wins
        assert run(capsys, "verify", "--max-steps=0", "--oracle",
                   "--max-steps", "9", "--", "-x")[0] == 0
        assert run(capsys, "process", "--proof=P.hoproof",
                   str(DATA / "program2.smt2"))[0] == 0
        assert (tmp_path / "P.hoproof").exists()


SCRIPT = ("(declare-fun g (Int Int) Int)(declare-fun a () Int)"
          "(assert (forall ((x Int)) (= (let ((y (g x a))) "
          "((lambda ((z Int)) (g z y)) x)) a)))")


def _named_certificate():
    checked = typecheck.check_script(surface.parse_script(SCRIPT), "<script>")
    cert = processor.process(checked.asserts[0], checked.signature).certificate
    return calculus.print_certificate(cert).encode()


NAMED = _named_certificate()
_BYTES = st.sampled_from(b"()c0123456789 :;|\"\nxyzw-") | st.integers(0, 255)


class TestRobustness:
    def test_certificate_has_named_contexts(self):
        assert NAMED.count(b"(context ") >= 4

    # argv before the input's path; {tmp} is a scratch directory
    @pytest.mark.parametrize("text,argv", [
        (NAMED, ["verify", "--oracle"]),
        (SCRIPT.encode(), ["parse"]),
        (SCRIPT.encode(), ["check", "--verbose"]),
        (SCRIPT.encode(), ["process", "--proof", "{tmp}/out.hoproof"]),
    ], ids=["verify", "parse", "check", "process"])
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                              st.sampled_from("rdi"), _BYTES),
                    min_size=1, max_size=4))
    def test_byte_edits_end_in_an_exit_code(self, text, argv, edits):
        data = bytearray(text)
        for where, op, byte in edits:
            i = int(where * len(data))
            if op == "r":
                data[i] = byte
            elif op == "d":
                del data[i]
            else:
                data.insert(i, byte)
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "edited")
            with open(path, "wb") as fh:
                fh.write(bytes(data))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*(a.format(tmp=tmp) for a in argv), path])
        assert 0 <= code <= 5
        assert "Traceback" not in err.getvalue()


def test_cli_import_loads_no_proof_modules():
    # each subcommand imports what it uses; parse and check need no proof
    # module, and every call compiles what it imports
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import hosmt.cli, sys; print(sorted(sys.modules))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    loaded = done.stdout
    assert "'hosmt.cli'" in loaded
    for name in ("calculus", "context", "processor", "oracle",
                 "certreader", "certprinter"):
        assert f"'hosmt.{name}'" not in loaded
    # argv is read without argparse, whose import alone took milliseconds
    assert "'argparse'" not in loaded and "'gettext'" not in loaded


def test_fresh_interpreter_writes_what_main_writes(capsys, tmp_path):
    # a command-line call ends through cli.run, which the in-process calls
    # of the tests and of scripts/outputs_digest.py never enter
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    golden = [str(DATA / f"example{i}.hoproof") for i in (1, 2, 3)]
    calls = [["parse", str(DATA / "program1.smt2")],
             ["check", "--verbose", str(DATA / "program2.smt2")],
             ["process", "--proof", "{dir}/out.hoproof",
              str(DATA / "program2.smt2")],
             ["verify", "--oracle", golden[0]],
             ["verify", *golden, str(tmp_path / "missing.hoproof")]]
    for argv in calls:
        runs = []
        for side in ("main", "fresh"):
            where = tmp_path / side
            where.mkdir(exist_ok=True)
            for old in where.iterdir():
                old.unlink()
            args = [a.format(dir=where) for a in argv]
            if side == "main":
                code, out, err = run(capsys, *args)
            else:
                with open(tmp_path / "stdout", "w+") as fh:
                    done = subprocess.run(
                        [sys.executable, "-m", "hosmt.cli", *args],
                        stdout=fh, stderr=subprocess.PIPE, text=True,
                        timeout=60, env=dict(os.environ, PYTHONPATH=str(src)))
                    fh.seek(0)
                    code, out, err = done.returncode, fh.read(), done.stderr
            runs.append((code, out, err, {p.name: p.read_bytes()
                                          for p in where.iterdir()}))
        assert runs[1] == runs[0], argv
    assert runs[0][0] == 2 and runs[0][1].count("valid (") == 3


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_closed_stdout_exit_2(tmp_path, unbuffered):
    # a stdout whose reader has gone is an I/O error, whether the text
    # waits in a buffer until the call ends or each write meets the error
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    golden = [str(DATA / f"example{i}.hoproof") for i in (1, 2, 3)]
    spread = ("import sys\nfrom hosmt import cli\n"
              "cli._cpus = lambda: 2\ncli.MIN_SHARE_US = 1\n"
              "sys.exit(cli.run())\n")
    for command in (["-m", "hosmt.cli", "check", str(DATA / "program1.smt2")],
                    ["-m", "hosmt.cli", "verify", *golden],
                    ["-c", spread, "verify", *golden]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, *command], stdout=write,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=60, env=env)
        finally:
            os.close(write)
        assert done.returncode == 2, (command, done.stderr)
        assert "Broken pipe" in done.stderr
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr


def test_readme_shows_the_help_text():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    assert f"```\n{cli.USAGE}```\n" in readme.read_text()


def test_script_enters_where_python_m_does():
    # the installed command and `python -m hosmt.cli` end a call alike
    root = pathlib.Path(__file__).resolve().parent.parent
    target = [line.split("=", 1)[1].strip().strip('"')
              for line in (root / "pyproject.toml").read_text().splitlines()
              if line.startswith("hosmt =")]
    called = re.findall(
        r'^if __name__ == "__main__":\n +sys\.exit\((\w+)\(\)\)',
        (root / "src" / "hosmt" / "cli.py").read_text(), re.MULTILINE)
    assert len(called) == 1 and target == [f"hosmt.cli:{called[0]}"]


# makes cli.main spread its items over two CPUs; a fork puts the name
# "forked" in sys.modules, so that _modules_after reports it
SPREAD = ("import os\n"
          "cli._cpus = lambda: 2\n"
          "cli.MIN_SHARE_US = 1\n"
          "fork = os.fork\n"
          "os.fork = lambda: sys.modules.setdefault('forked', None) or fork()\n")


def _modules_after(argv, modules, setup=""):
    """[exit code, whether each of modules is loaded] after cli.main(argv)
    in a fresh interpreter without site packages; `setup` runs first."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import contextlib, io, sys; from hosmt import cli\n" + setup +
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    code = cli.main({argv!r})\n"
         f"print(code, *(m in sys.modules for m in {list(modules)!r}))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    return done.stdout.split(), done.stderr


@pytest.mark.parametrize("argv,oracle", [
    (["check", str(DATA / "program1.smt2")], False),
    (["process", str(DATA / "program2.smt2")], False),
    (["verify", str(DATA / "example1.hoproof")], False),
    (["verify", "--oracle", str(DATA / "example1.hoproof")], True),
])
def test_oracle_imported_only_by_verify_oracle(argv, oracle):
    out, err = _modules_after(argv, ["hosmt.oracle"])
    assert out == ["0", str(oracle)], err


@pytest.mark.parametrize("argv,loaded", [
    (["check", str(DATA / "program1.smt2")],
     {"hosmt.certprinter": False, "hosmt.calculus": False,
      "hosmt.context": False}),
    (["check", "--verbose", str(DATA / "program1.smt2")],
     {"hosmt.certprinter": True}),
    (["verify", str(DATA / "example1.hoproof")], {"hosmt.certprinter": False}),
])
def test_printer_imported_only_to_print(argv, loaded):
    # verify prints a term only to reject a step; check compiles no proof
    # module, though the typechecker's scope is the one contexts use
    out, err = _modules_after(argv, loaded)
    assert out == ["0", *map(str, loaded.values())], err


@pytest.mark.parametrize("argv", [
    ["verify", str(DATA / "example1.hoproof")],
    ["verify", "--oracle", str(DATA / "example1.hoproof")],
])
def test_verify_loads_no_script_front_end(argv):
    # the certificate reader elaborates its trees itself
    out, err = _modules_after(argv, ["hosmt.surface", "hosmt.typecheck"])
    assert out == ["0", "False", "False"], err


@pytest.mark.parametrize("argv", [
    ["check", str(DATA / "program1.smt2")],
    ["process", str(DATA / "program2.smt2")],
])
def test_check_and_process_load_no_surface(argv):
    # typecheck elaborates the reader's trees itself
    out, err = _modules_after(argv, ["hosmt.surface"])
    assert out == ["0", "False"], err


def test_fan_out_loads_no_pool_nor_threads(tmp_path):
    # workers are forked and send their results over a pipe: no pool,
    # thread or queue module is loaded
    script = tmp_path / "two.smt2"
    script.write_text(FAN_DECLS + _fan_assert(1) + _fan_assert(2))
    modules = ["multiprocessing", "concurrent.futures", "threading"]
    for argv in (["verify", "--oracle",
                  *(str(DATA / f"example{i}.hoproof") for i in (1, 2, 3))],
                 ["process", str(script)]):
        out, err = _modules_after(argv, [*modules, "forked"], SPREAD)
        assert out == ["0", "False", "False", "False", "True"], err
    # a call that forks no worker does not compile the module that forks
    out, err = _modules_after(["verify", str(DATA / "example1.hoproof")],
                              ["hosmt.forked"])
    assert out == ["0", "False"], err


def test_process_loads_no_typing_nor_dataclasses():
    # either import costs every call milliseconds
    out, err = _modules_after(["process", str(DATA / "program2.smt2")],
                              ["typing", "dataclasses"])
    assert out == ["0", "False", "False"], err


def test_cli_import_loads_no_dataclasses():
    # a dataclass on the CLI path costs every call its import and its
    # class creation
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import hosmt.cli, sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
