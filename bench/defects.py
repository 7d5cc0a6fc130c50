#!/usr/bin/env python3
"""Reproducers for two known defects the benchmark works around.

    python3 bench/defects.py

1. `process a.smt2 b.smt2 --proof ab.hoproof` writes both files'
   certificates to the one path, so only one survives.  The `batch`
   workload therefore puts all its assertions in one script, which takes
   the documented `out.N.hoproof` route.
2. beta-200 (200 nested `((lambda ((y Int)) (g y a)) ...)` redexes) ends
   `verify` with a `RecursionError` traceback instead of a documented exit
   code.  The recursive `Context.__eq__`, reached through the
   `context_subst` cache key on a context chain hundreds of entries deep,
   runs out of stack.  Workload sizes stay well below this depth.

Each check prints what it observed.  The exit code is 0 when both defects
still reproduce and 1 when one no longer does, so that the notes in
`bench/README.md` can be brought up to date.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECLS = "(declare-fun g (Int Int) Int)\n(declare-fun a () Int)\n"


def _cli(workdir, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", "hosmt.cli", *args],
                          cwd=workdir, env=env, capture_output=True, text=True)


def shared_proof_path(workdir):
    """Two scripts, one assertion each, one --proof path."""
    for name, rhs in (("a.smt2", "a"), ("b.smt2", "(g a a)")):
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(f"{DECLS}(assert (= (g a a) {rhs}))\n")
    done = _cli(workdir, "process", "a.smt2", "b.smt2", "--proof", "ab.hoproof")
    proofs = sorted(n for n in os.listdir(workdir) if n.endswith(".hoproof"))
    print(f"process a.smt2 b.smt2 --proof ab.hoproof: exit {done.returncode}, "
          f"2 assertions, certificates written: {proofs}")
    return done.returncode == 0 and len(proofs) == 1


def deep_beta(workdir, n=200):
    """n nested redexes ((lambda ((y Int)) (g y a)) ...)."""
    term = "a"
    for _ in range(n):
        term = f"((lambda ((y Int)) (g y a)) {term})"
    with open(os.path.join(workdir, "beta.smt2"), "w") as fh:
        fh.write(f"{DECLS}(assert (= {term} a))\n")
    done = _cli(workdir, "process", "beta.smt2", "--proof", "beta.hoproof")
    print(f"process beta-{n}: exit {done.returncode}")
    if done.returncode != 0:
        print(done.stderr.strip().splitlines()[-1:])
        return False
    done = _cli(workdir, "verify", "beta.hoproof")
    last = done.stderr.strip().splitlines()[-1:] or [""]
    print(f"verify beta-{n}: exit {done.returncode}, last stderr line: {last[0]}")
    return "RecursionError" in done.stderr


def main():
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="defects-", dir=base)
    try:
        found = [shared_proof_path(workdir), deep_beta(workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, ok in zip(("shared --proof path", "beta-200 recursion"), found):
        print(f"{name}: {'reproduced' if ok else 'NOT reproduced'}")
    return 0 if all(found) else 1


if __name__ == "__main__":
    sys.exit(main())
