#!/usr/bin/env python3
"""Print SHA-256 digests of the CLI's outputs, to show that a change
leaves them byte-identical.

Inputs: the forall, let and batch scripts of `bench/workloads.py`, at
their default sizes and at each seed given by --seeds, and every file
under tests/data.  `hosmt.cli.main` runs in-process on each:

- `parse` and `check --verbose` on each script;
- `process --proof` on each script: stdout, then each certificate's bytes;
- `verify --oracle` on each certificate written and on each .hoproof file.

The `edits` family covers rejected inputs, so that messages and their
positions are compared too: a fixed, seeded set of single-character edits
of every input above, each deleting one character or inserting one of
EDIT_CHARS.  An edited script goes through `parse` and `check --verbose`,
an edited .hoproof file through `verify`.

The `commands` family covers the command forms: a fixed, seeded set of
scripts over the signature of tests/gen.py, whose declarations take
several spellings (declare-const, declare-fun, parenthesized sorts,
arities with leading zeros).  Around them go define-fun, asserts of
random `gen.gen_term` terms, unknown commands, and now and then a
malformed or clashing command.  Each script goes through the calls above,
and its declarations, with some of its other commands, as the preamble of
a one-step certificate through `verify --oracle`.

The `rules` family covers the binder rules and choice terms, which no
input above uses.  Fixed certificates hold `sko_ex` and `sko_all` steps
(choice terms in their mappings), `inst_forall` and `inst_exists` steps
and `bind` steps over lambda, forall and exists; two are rejected.  Each
certificate and, for each seed, MUTANTS_PER_CERT seeded
`mutate.random_text_mutation` mutants of it go through `verify --oracle`,
and so do three certificates that a weaker checker would accept: a beta
step whose redex argument is not its first premise's, a bind step whose
mapping does not send the bound variable to the fixed one, and a refl
step whose context substitution must rename a let variable.  Fixed
scripts that assert lambda, exists and eps terms go through the calls
above.

The `chains` family covers terms whose let-free form is exponentially
larger than their DAG: the let chains of `gen.let_chain` at the depths in
CHAIN_DEPTHS, `x1 := a` and `xi := (g x(i-1) x(i-1))`, each asserted
equal to `a`, go through the calls above, `verify --oracle` on their
certificates included.

The `oracle` family covers the oracle's `needs-theory` verdicts, which
`verify --oracle` never prints for a certificate that the checker
rejects, as every mutant is.  The certificates that `process --proof`
writes for the forall, let and batch scripts are read, and
ORACLE_MUTANTS seeded `mutate.random_mutation` mutants of each go through
`oracle.check_certificate_oracle`, which contributes its list of step ids
and verdicts.

The `multi` family covers calls with many items, which `hosmt.cli`
spreads over the CPUs it may use: `process --proof` on each workload
script and one `verify --oracle` call over all the certificates it
writes.  Each call runs as is, again with the CPU count forced to 1, and
a third time with every worker's results dropped, so that the main
process runs every item; the script stops with an error unless the three
runs give the same output and the same certificates.

Every call contributes its stdout, stderr and exit code.  The inputs are
copied into a temporary directory and named relative to it, since file
names appear in messages: the digest does not depend on where the checkout
lives.  One digest is printed per family (forall, let, batch, data, edits,
commands, rules, chains, oracle, multi) and one over everything:

    python3 scripts/outputs_digest.py --seeds 1 2 3
"""

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import random
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / d) for d in ("src", "tests", "bench")
                if str(ROOT / d) not in sys.path]

import gen  # noqa: E402
import mutate  # noqa: E402
import workloads  # noqa: E402
from hosmt import (  # noqa: E402
    calculus, certprinter, cli, core, forked, oracle)

FAMILIES = ("forall", "let", "batch")
EDIT_CHARS = '()|";: x1.'
EDITS_PER_INPUT = 24
COMMAND_SCRIPTS = 40  # per seed

# declarations of the constants of `gen.CONSTS` and of two sorts, each in
# spellings that declare the same thing
DECLARATIONS = (
    ("(declare-fun a () Int)", "(declare-const a Int)",
     "(declare-const a (Int))"),
    ("(declare-fun b () Int)", "(declare-const b Int)"),
    ("(declare-fun c0 () Bool)", "(declare-const c0 Bool)"),
    ("(declare-fun f (Int) Int)", "(declare-const f (-> Int Int))",
     "(declare-fun f ((Int)) Int)"),
    ("(declare-fun g (Int Int) Int)", "(declare-fun g (Int) (-> Int Int))",
     "(declare-const g (-> Int Int Int))"),
    ("(declare-fun p (Int) Bool)", "(declare-const p (-> Int Bool))"),
    ("(declare-fun q ((-> Int Int)) Bool)",
     "(declare-const q (-> (-> Int Int) Bool))"),
    ("(declare-fun k ((-> Int Int)) Int)",
     "(declare-fun k ((-> (Int) Int)) Int)"),
    ("(declare-sort U 0)", "(declare-sort U 00)"),
    ("(declare-sort P 1)", "(declare-sort P 01)", "(declare-sort P 001)"),
)
# symbols of the declared sorts
SORTED = ("(declare-const u U)", "(declare-fun w () (P Int))",
          "(declare-fun |x y| (U) (P U))")
ASSERTS = ("(assert (! (p a) :named h1))",
           "(assert (q (lambda ((x Int)) g x x)))",
           "(assert (= (as a Int) b))",
           "(assert (= u (as u U)))")
UNKNOWN = ("(check-sat)", "(get-model)", "(set-info :status sat)",
           "(push 01)", '(echo "a ""b""")', "(get-value (a |x y|))")
# malformed commands, and declarations that clash or name an unknown sort
ODD = ("(declare-sort U 1)", "(declare-fun = (Int Int) Bool)",
       "(declare-fun true () Bool)", "(declare-const a Bool)",
       "(declare-fun 01 () Int)", "(declare-sort V 1.0)", "(declare-const e)",
       "(define-fun e () Int)", "(declare-const e Q)", "(set-logic)",
       "(exit 0)", "(assert)", "(assert a)")


# certificates over the binder rules, in the named form of `process
# --proof` so that the text mutations apply; the last two are rejected,
# each for a step whose sides differ only in a binder's kind
_RULE_DECLS = ("(declare-fun p (Int) Bool)\n(declare-fun f (Int) Int)\n"
               "(declare-fun a () Int)\n")
RULE_CERTS = {
    "sko_ex": """(define @e (eps ((x Int)) (p x)))
(context c1 () (map (x @e)))
(define @t1 (p x))
(define @t2 (p @e))
(step s1 :rule refl :context c1 :conclusion (= @t1 @t2))
(step s2 :rule sko_ex :premises (s1) :conclusion (= (exists ((x Int)) @t1) @t2))
""",
    "sko_all": """(define @e (eps ((x Int)) (not (p (f x)))))
(context c1 () (map (x @e)))
(context c2 c1 (map (y @e)))
(step s1 :rule refl :context c2 :conclusion (= (f y) (f @e)))
(define @t1 (p (f x)))
(define @t2 (p (f @e)))
(step s2 :rule refl :context c1 :conclusion (= @t1 @t2))
(step s3 :rule sko_all :premises (s2) :conclusion (= (forall ((x Int)) @t1) @t2))
""",
    "inst": """(define @t1 (forall ((x Int)) (p (f x))))
(define @t2 (exists ((y Int)) (p y)))
(step s1 :rule inst_forall :binding ((x a)) :conclusion (=> @t1 (p (f a))))
(step s2 :rule inst_exists :binding ((y (f a))) :conclusion (=> (p (f a)) @t2))
(step s3 :rule inst_forall :binding ((x (f a))) :conclusion (=> @t1 (p (f (f a)))))
(step s4 :rule inst_exists :binding ((y a)) :conclusion (=> (p a) @t2))
""",
    "bind": """(context c1 () (fix w Int))
(context c2 c1 (map (x w)))
(define @t1 (f x))
(define @t2 (f w))
(step s1 :rule refl :context c2 :conclusion (= @t1 @t2))
(step s2 :rule bind :premises (s1) :conclusion (= (lambda ((x Int)) @t1) (lambda ((w Int)) @t2)))
(define @t3 (p @t1))
(define @t4 (p @t2))
(step s3 :rule refl :context c2 :conclusion (= p p))
(step s4 :rule cong :premises (s3 s1) :context c2 :conclusion (= @t3 @t4))
(step s5 :rule bind :premises (s4) :conclusion (= (forall ((x Int)) @t3) (forall ((w Int)) @t4)))
(step s6 :rule bind :premises (s4) :conclusion (= (exists ((x Int)) @t3) (exists ((w Int)) @t4)))
""",
    "bind_kinds": """(context c1 () (fix w Int))
(context c2 c1 (map (x w)))
(step s1 :rule refl :context c2 :conclusion (= (p x) (p w)))
(step s2 :rule bind :premises (s1) :conclusion (= (forall ((x Int)) (p x)) (exists ((w Int)) (p w))))
""",
    "refl_kinds": """(define @t1 (p x))
(step s1 :rule refl :conclusion (= (forall ((x Int)) @t1) (forall ((x Int)) @t1)))
(step s2 :rule refl :conclusion (= (forall ((x Int)) @t1) (exists ((x Int)) @t1)))
""",
}
# rejected at their last step; the first two conclude false equalities
REJECTED_CERTS = {
    "beta_argument": """(declare-fun a () Int)
(declare-fun b () Int)
(step s1 :rule refl :conclusion (= b b))
(step s2 :rule refl :context ((map (x b))) :conclusion (= x b))
(step s3 :rule beta :premises (s1 s2) :conclusion (= ((lambda ((x Int)) x) a) b))
""",
    "bind_mapping": """(declare-fun p (Int) Bool)
(declare-fun a () Int)
(step s1 :rule refl :context ((fix y Int) (map (x a))) :conclusion (= (p x) (p a)))
(step s2 :rule bind :premises (s1) :conclusion (= (forall ((x Int)) (p x)) (forall ((y Int)) (p a))))
""",
    "let_capture": """(declare-fun a () Int)
(step s1 :rule refl :context ((fix x Int) (fix y Int) (map (y x))) :conclusion (= (let ((x a)) y) (let ((z a)) x)))
(step s2 :rule refl :context ((fix x Int) (fix y Int) (map (y x))) :conclusion (= (let ((x a)) y) (let ((x a)) x)))
""",
}
RULE_SCRIPTS = {
    "binders": _RULE_DECLS + """(assert (exists ((x Int)) (p ((lambda ((y Int)) (f y)) x))))
(assert (= (lambda ((x Int)) (f x)) (lambda ((y Int)) ((lambda ((z Int)) (f z)) y))))
(assert (forall ((x Int)) (exists ((y Int)) (= ((lambda ((z Int)) (f z)) x) y))))
""",
    "eps": _RULE_DECLS + """(assert (p a))
  (assert (p (eps ((x Int)) (p (f x)))))
""",
    "eps_under_binder": _RULE_DECLS + """(assert (forall ((x Int)) (= x (eps ((y Int)) (= y (f x))))))
""",
}
MUTANTS_PER_CERT = 4  # per seed
CHAIN_DEPTHS = (4, 8, 12)
ORACLE_MUTANTS = 8  # per certificate


def run(*argv):
    """(stdout, stderr, exit code) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return out.getvalue(), err.getvalue(), code


def _index(path):
    # stem.hoproof, then stem.1.hoproof, stem.2.hoproof, ...
    parts = path.name.split(".")
    return int(parts[1]) if len(parts) == 3 else 0


def outputs(name):
    """The labelled outputs of every call on the input file `name`, which
    lies in the working directory."""
    if name.endswith(".hoproof"):
        yield from verify(name)
        return
    yield "parse", run("parse", name)
    yield "check", run("check", "--verbose", name)
    stem = name.rsplit(".", 1)[0]
    yield "process", run("process", "--proof", f"{stem}.hoproof", name)
    here = pathlib.Path()
    certs = sorted([*here.glob(f"{stem}.hoproof"),
                    *here.glob(f"{stem}.*.hoproof")], key=_index)
    for cert in certs:
        yield f"cert {cert.name}", cert.read_bytes()
        yield from verify(cert.name)


def verify(name):
    yield f"verify {name}", run("verify", "--oracle", name)


def oracle_outputs(name):
    """The oracle's verdicts on mutants of the certificates that `process
    --proof` writes for the script `name`, which lies in the working
    directory."""
    stem = f"oracle-{name.rsplit('.', 1)[0]}"
    yield "process", run("process", "--proof", f"{stem}.hoproof", name)
    here = pathlib.Path()
    certs = sorted([*here.glob(f"{stem}.hoproof"),
                    *here.glob(f"{stem}.*.hoproof")], key=_index)
    for cert in certs:
        parsed = calculus.parse_certificate(cert.read_text(), cert.name)
        for k in range(ORACLE_MUTANTS):
            rng = random.Random(f"oracle-{cert.name}-{k}")
            mutation, mutant = mutate.random_mutation(parsed, rng)
            verdicts = oracle.check_certificate_oracle(mutant)
            yield f"oracle {cert.name} {k} {mutation}", repr(verdicts).encode()


def _as_serial(call, what):
    """call(), which must return the same when cli runs on one CPU, and
    when the main process drops every worker's results and runs their
    items itself."""
    spread = call()
    for module, name, stub, how in (
            (cli, "_cpus", lambda: 1, "on one CPU"),
            (forked, "_results", lambda worker: [],
             "without the workers' results")):
        real = getattr(module, name)
        setattr(module, name, stub)
        try:
            other = call()
        finally:
            setattr(module, name, real)
        if other != spread:
            raise SystemExit(f"{what}: the output differs {how}")
    return spread


def multi_outputs(name):
    """The outputs of `process --proof` on the script `name`, which lies
    in the working directory, and of one `verify --oracle` call over all
    the certificates it writes, each the same on one CPU."""
    stem = f"multi-{name.rsplit('.', 1)[0]}"
    here = pathlib.Path()

    def process():
        out = run("process", "--proof", f"{stem}.hoproof", name)
        certs = sorted([*here.glob(f"{stem}.hoproof"),
                        *here.glob(f"{stem}.*.hoproof")], key=_index)
        return out, [(c.name, c.read_bytes()) for c in certs]

    out, certs = _as_serial(process, f"process {name}")
    yield "process", out
    for cert, data in certs:
        yield f"cert {cert}", data
    names = [cert for cert, _ in certs]
    yield "verify", _as_serial(lambda: run("verify", "--oracle", *names),
                               f"verify {stem}.*")


def edit_outputs(name):
    """The labelled outputs of every call on each edit of the input file
    `name`, which lies in the working directory."""
    text = pathlib.Path(name).read_text()
    rng = random.Random(name)  # str seeds do not depend on PYTHONHASHSEED
    for k in range(EDITS_PER_INPUT):
        at = rng.randrange(len(text))
        insert = rng.choice(("", *EDIT_CHARS))
        edited = text[:at] + insert + text[at + (not insert):]
        path = pathlib.Path(f"edit{k}-{name}")
        path.write_text(edited)
        if name.endswith(".hoproof"):
            yield f"verify {path}", run("verify", str(path))
        else:
            yield f"parse {path}", run("parse", str(path))
            yield f"check {path}", run("check", "--verbose", str(path))


def command_script(rng):
    """The commands of a random script that uses every command form, as
    (is a declaration, text) pairs."""
    cmds = []
    if rng.random() < 0.8:
        logic = rng.choice(("ALL", "UF", "QF_UFLIA"))
        cmds.append((False, f"(set-logic {logic})"))
    decls = [rng.choice(spellings) for spellings in DECLARATIONS]
    rng.shuffle(decls)
    # the sorts before the symbols of those sorts
    decls.sort(key=lambda d: not d.startswith("(declare-sort"))
    cmds += [(True, d) for d in decls + list(SORTED)]
    for i in range(rng.randint(2, 6)):
        roll = rng.random()
        if roll < 0.45:
            t = gen.gen_term(rng, core.BOOL, rng.randint(1, 4))
            text = f"(assert {certprinter.print_term(t)})"
        elif roll < 0.7:
            params = [core.fresh_var(x, rng.choice(gen.BASE_SORTS))
                      for x in "xy"[:rng.randint(0, 2)]]
            sort = rng.choice(gen.BASE_SORTS)
            body = gen.gen_term(rng, sort, rng.randint(0, 3), params)
            plist = " ".join(f"({v.name} {core.sort_str(v.sort)})"
                             for v in params)
            text = (f"(define-fun h{i} ({plist}) {core.sort_str(sort)} "
                    f"{certprinter.print_term(body)})")
        elif roll < 0.85:
            text = rng.choice(ASSERTS)
        else:
            text = rng.choice(UNKNOWN)
        cmds.append((False, text))
    if rng.random() < 0.3:
        odd = rng.choice(ODD)
        cmds.insert(rng.randrange(len(cmds) + 1),
                    (odd.startswith("(declare"), odd))
    if rng.random() < 0.6:
        cmds.append((False, "(exit)"))
    return cmds


def _join(rng, texts):
    return "".join(t + rng.choice(("\n", " ", "\n  ")) for t in texts)


def write_inputs(seeds, work):
    """{family: input file names}: the workload scripts, the files under
    tests/data and the command scripts and their certificates, written to
    `work`."""
    inputs = {f: [] for f in (*FAMILIES, "data", "edits", "commands",
                              "rules", "chains", "oracle", "multi")}
    for seed in seeds:
        for family in FAMILIES:
            name = f"{family}-{seed}.smt2"
            (work / name).write_text(workloads.make(family, seed).script)
            inputs[family].append(name)
    for path in sorted((ROOT / "tests" / "data").iterdir()):
        shutil.copy(path, work / path.name)
        inputs["data"].append(path.name)
    inputs["edits"] = [n for f in (*FAMILIES, "data") for n in inputs[f]]
    inputs["oracle"] = [n for f in FAMILIES for n in inputs[f]]
    inputs["multi"] = inputs["oracle"]
    for seed in seeds:
        for k in range(COMMAND_SCRIPTS):
            rng = random.Random(f"commands-{seed}-{k}")
            cmds = command_script(rng)
            script = f"commands-{seed}-{k}.smt2"
            (work / script).write_text(_join(rng, [t for _, t in cmds]))
            preamble = [t for decl, t in cmds if decl or rng.random() < 0.1]
            cert = f"preamble-{seed}-{k}.hoproof"
            (work / cert).write_text(_join(rng, [
                *preamble, "(step s1 :rule refl :conclusion (= true true))"]))
            inputs["commands"] += [script, cert]
    for name, body in RULE_CERTS.items():
        text = _RULE_DECLS + body
        cert = f"rules-{name}.hoproof"
        (work / cert).write_text(text)
        inputs["rules"].append(cert)
        for seed in seeds:
            for k in range(MUTANTS_PER_CERT):
                rng = random.Random(f"rules-{name}-{seed}-{k}")
                mutant = mutate.random_text_mutation(text, rng)
                if mutant is not None:
                    cert = f"rules-{name}-{seed}-{k}.hoproof"
                    (work / cert).write_text(mutant[1])
                    inputs["rules"].append(cert)
    for name, text in REJECTED_CERTS.items():
        (work / f"rules-{name}.hoproof").write_text(text)
        inputs["rules"].append(f"rules-{name}.hoproof")
    for name, script in RULE_SCRIPTS.items():
        (work / f"rules-{name}.smt2").write_text(script)
        inputs["rules"].append(f"rules-{name}.smt2")
    for n in CHAIN_DEPTHS:
        term = certprinter.print_term(gen.let_chain(n))
        (work / f"chain-{n}.smt2").write_text(
            f"{workloads.GF_DECLS}(assert {term})\n")
        inputs["chains"].append(f"chain-{n}.smt2")
    return inputs


def _encode(value):
    if isinstance(value, bytes):
        return value
    out, err, code = value
    return f"{out}\0{err}\0{code}".encode()


def digests(seeds, work):
    """{family: hex digest}, "all" last: the inputs are written to
    `work` and run there."""
    inputs = write_inputs(seeds, work)
    total = hashlib.sha256()
    out = {}
    old = os.getcwd()
    os.chdir(work)
    try:
        for family, names in inputs.items():
            h = hashlib.sha256()
            calls = {"edits": edit_outputs, "oracle": oracle_outputs,
                     "multi": multi_outputs}.get(family, outputs)
            for name in names:
                for label, value in calls(name):
                    data = _encode(value)
                    record = f"{label}\0{len(data)}\0".encode() + data
                    h.update(record)
                    total.update(record)
            out[family] = h.hexdigest()
    finally:
        os.chdir(old)
    out["all"] = total.hexdigest()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                    help="workload seeds (default: 1 2 3)")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for family, hexdigest in digests(args.seeds,
                                         pathlib.Path(tmp)).items():
            print(f"{family}: {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
