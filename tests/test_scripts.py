"""Smoke tests for the scripts under scripts/."""

import os
import pathlib
import subprocess
import sys

from conftest import DATA

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = sorted(str(p) for p in DATA.glob("*.hoproof"))


def run_script(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=120, env=env)


def test_random_pipeline():
    done = run_script(str(SCRIPTS / "random_pipeline.py"), "--count", "20")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "verdicts: {'valid': 20}" in done.stdout


def test_certstats_oracle_on_goldens():
    done = run_script(str(SCRIPTS / "certstats.py"), "--oracle", *GOLDEN)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len([l for l in lines if ": valid, " in l]) == len(GOLDEN) == 3
    oracle = [l.strip() for l in lines if l.strip().startswith("oracle:")]
    assert len(oracle) == 3
    assert all(l.split(":", 1)[1].split()[0] == "lambda-valid"
               and "," not in l for l in oracle)


def test_certstats_sizes_on_goldens():
    done = run_script(str(SCRIPTS / "certstats.py"), *GOLDEN)
    assert done.returncode == 0, done.stdout + done.stderr
    sizes = [l.strip() for l in done.stdout.splitlines()
             if l.strip().startswith("size:")]
    assert sizes == ["size: 627 bytes, 89.6 bytes/step, 0 context lines",
                     "size: 1161 bytes, 145.1 bytes/step, 0 context lines",
                     "size: 2593 bytes, 172.9 bytes/step, 0 context lines"]


def test_certstats_counts_context_lines(tmp_path):
    cert = tmp_path / "named.hoproof"
    cert.write_text("(declare-fun a () Int)\n"
                    "(context c1 () (fix w Int))\n"
                    "(context c2 c1 (map (x w)))\n"
                    "(step s1 :rule refl :context c2 :conclusion (= x w))\n"
                    "(step s2 :rule refl :conclusion (= a a))\n")
    done = run_script(str(SCRIPTS / "certstats.py"), str(cert))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "  size: 173 bytes, 86.5 bytes/step, 2 context lines" in done.stdout


def test_certstats_counts_define_lines(tmp_path):
    from hosmt import calculus

    cert = tmp_path / "shared.hoproof"
    cert.write_text(calculus.print_certificate(calculus.parse_certificate(
        (DATA / "example3.hoproof").read_text())))
    done = run_script(str(SCRIPTS / "certstats.py"), str(cert))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "  terms: 9 define lines\n" in done.stdout


def test_certstats_reports_first_failure(tmp_path):
    text = (DATA / "example1.hoproof").read_text()
    bad = tmp_path / "bad.hoproof"
    bad.write_text(text.replace("(= x a))", "(= x (p a a)))"))
    done = run_script(str(SCRIPTS / "certstats.py"), "--oracle", str(bad))
    assert done.returncode == 1, done.stdout + done.stderr
    assert "  first failure: refl step r3: " in done.stdout


def test_outputs_digest_is_stable():
    runs = [run_script(str(SCRIPTS / "outputs_digest.py"), "--seeds", "1")
            for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stdout + done.stderr
    lines = runs[0].stdout.splitlines()
    assert [l.split(":")[0] for l in lines] == ["forall", "let", "batch",
                                                "data", "edits", "commands",
                                                "rules", "chains", "oracle",
                                                "all"]
    assert runs[1].stdout.splitlines() == lines
