"""Command-line interface: subcommands, exit codes, and pipelines."""

import contextlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hosmt import calculus, cli, processor, surface, typecheck

from conftest import DATA

PROGRAM1 = (DATA / "program1.smt2").read_text()
PROGRAM2 = (DATA / "program2.smt2").read_text()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert len(err.splitlines()) == 1 and "--proof" in err
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

    def test_divergence_exit_3(self, capsys, tmp_path):
        src = tmp_path / "deep.smt2"
        src.write_text(
            "(assert (= ((lambda ((x Int)) x) ((lambda ((y Int)) y) 1)) 1))")
        code, _, err = run(capsys, "process", "--max-steps", "1", str(src))
        assert code == 3 and "step cap" in err


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

    @pytest.mark.parametrize("argv", (["--help"], ["verify", "--help"]))
    def test_help_exit_0(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "usage:" in out


def _named_certificate():
    script = ("(declare-fun g (Int Int) Int)(declare-fun a () Int)"
              "(assert (forall ((x Int)) (= (let ((y (g x a))) "
              "((lambda ((z Int)) (g z y)) x)) a)))")
    checked = typecheck.check_script(surface.parse_script(script), "<script>")
    cert = processor.process(checked.asserts[0], checked.signature).certificate
    return calculus.print_certificate(cert).encode()


NAMED = _named_certificate()
_BYTES = st.sampled_from(b"()c0123456789 :;|\"\nxyzw-") | st.integers(0, 255)


class TestRobustness:
    def test_certificate_has_named_contexts(self):
        assert NAMED.count(b"(context ") >= 4

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                              st.sampled_from("rdi"), _BYTES),
                    min_size=1, max_size=4))
    def test_byte_edits_end_in_an_exit_code(self, edits):
        data = bytearray(NAMED)
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
            path = os.path.join(tmp, "edited.hoproof")
            with open(path, "wb") as fh:
                fh.write(bytes(data))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["verify", "--oracle", path])
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


@pytest.mark.parametrize("argv,oracle", [
    (["check", str(DATA / "program1.smt2")], False),
    (["process", str(DATA / "program2.smt2")], False),
    (["verify", str(DATA / "example1.hoproof")], False),
    (["verify", "--oracle", str(DATA / "example1.hoproof")], True),
])
def test_oracle_imported_only_by_verify_oracle(argv, oracle):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import contextlib, io, sys; from hosmt import cli\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    code = cli.main({argv!r})\n"
         "print(code, 'hosmt.oracle' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.stdout.split() == ["0", str(oracle)], done.stderr


@pytest.mark.parametrize("argv,loaded", [
    (["check", str(DATA / "program1.smt2")],
     {"hosmt.certprinter": False, "hosmt.calculus": False}),
    (["check", "--verbose", str(DATA / "program1.smt2")],
     {"hosmt.certprinter": True}),
    (["verify", str(DATA / "example1.hoproof")], {"hosmt.certprinter": False}),
])
def test_printer_imported_only_to_print(argv, loaded):
    # verify prints a term only to reject a step
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import contextlib, io, sys; from hosmt import cli\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    code = cli.main({argv!r})\n"
         f"print(code, *(m in sys.modules for m in {list(loaded)!r}))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)))
    expected = ["0", *map(str, loaded.values())]
    assert done.stdout.split() == expected, done.stderr


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
