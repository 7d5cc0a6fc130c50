"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
"""

import random
import sys
import time

from hosmt import cli
from hosmt.calculus import (check_certificate, check_step, parse_certificate,
                            print_certificate)
from hosmt.core import alpha_eq, beta_normal_form, sort_of, substitute
from hosmt.oracle import check_certificate_oracle
from hosmt.processor import process
from hosmt.surface import print_term
from hosmt.typecheck import erase

from conftest import DATA, parse_term

import gen
import mutate
import nameless
from oracle_ref import beta_step

from test_processor import example1_term, example2_term, example3_term

GOLDEN = ("example1.hoproof", "example2.hoproof", "example3.hoproof")


def report(name, ok, started, budget):
    elapsed = time.monotonic() - started
    line = f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s)"
    print(line, file=sys.stderr)
    assert ok, line
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _gen_batch(seed=171, count=1000):
    rng = random.Random(seed)
    return [gen.gen_closed(rng, depth=rng.randint(2, 7)) for _ in range(count)]


_certs = {}


def _batch_certificates():
    if "batch" not in _certs:
        _certs["batch"] = [process(t) for t in _gen_batch()]
    return _certs["batch"]


def test_1_golden_parse_typecheck(capsys):
    started = time.monotonic()
    ok = True
    for name in ("program1.smt2", "program2.smt2"):
        ok &= cli.main(["check", str(DATA / name)]) == 0
    capsys.readouterr()
    # the three equivalent declaration shapes of f share one curried sort
    from hosmt.surface import parse_script
    from hosmt.typecheck import check_script
    forms = [([], "(-> (-> Int Int) Int)"),
             (["(-> Int Int)"], "Int"),
             ([], "(-> (-> Int Int) Int)")]
    sorts = {check_script(parse_script(
                 f"(declare-fun f ({' '.join(args)}) {res})")).signature
             .symbols["f"] for args, res in forms}
    ok &= len(sorts) == 1
    eq, = check_script(parse_script(
        "(declare-fun g (Int Int) Int)(assert (= ((g 1) 2) (g 1 2)))")).asserts
    ok &= alpha_eq(eq.fn.arg, eq.arg)
    report("golden parse/typecheck", ok, started, 1.0)


def test_2_golden_derivations():
    started = time.monotonic()
    ok = True
    certs = {}
    for name in GOLDEN:
        certs[name] = parse_certificate((DATA / name).read_text())
        ok &= check_certificate(certs[name]).verdict == "valid"
    # the nested subtree (bind under beta) is part of the third derivation
    by_id = {s.id: s for s in certs["example3.hoproof"].steps}
    ok &= any(s.rule == "beta" and any(by_id[p].rule == "bind"
                                       for p in s.premises)
              for s in certs["example3.hoproof"].steps)
    for make in (example1_term, example2_term, example3_term):
        t, want = make()
        result = process(t)
        final = result.certificate.final.conclusion
        ok &= final.ctx.is_empty()
        ok &= alpha_eq(final.lhs, t) and alpha_eq(final.rhs, want)
        ok &= alpha_eq(result.term, want)
    report("golden derivations", ok, started, 1.0)


def test_3_producer_checker_closure():
    started = time.monotonic()
    ok = True
    for result in _batch_certificates():
        rep = check_certificate(result.certificate)
        ok &= rep.verdict == "valid" and rep.trusted_count == 0
    report("producer-checker closure (1000 terms)", ok, started, 60.0)


def test_4_oracle_agreement():
    started = time.monotonic()
    ok = True
    for result in _batch_certificates():
        ok &= all(v == "lambda-valid"
                  for _, v in check_certificate_oracle(result.certificate))
    report("oracle agreement (1000 certificates)", ok, started, 120.0)


def test_5_mutation_soundness():
    started = time.monotonic()
    rng = random.Random(173)
    total = rejected = 0
    for name in GOLDEN:
        cert = parse_certificate((DATA / name).read_text())
        for _ in range(100):
            _, mutated = mutate.random_mutation(cert, rng)
            total += 1
            rejected += check_certificate(mutated).verdict == "invalid"
    ok = total == 300 and rejected / total >= 0.95
    # side-condition violations must be rejected without exception
    from test_calculus import TestSideConditions
    side = TestSideConditions()
    for case in (side.test_bind_capture_rejected,
                 side.test_beta_non_invariant_argument_rejected,
                 side.test_let_non_invariant_value_rejected):
        case()  # asserts status == "invalid" internally
    report(f"mutation soundness ({rejected}/{total} kit mutations rejected, "
           "3/3 side-condition violations rejected)", ok, started, 60.0)


def test_6_core_oracles():
    started = time.monotonic()
    ok = True
    rng = random.Random(179)
    for _ in range(10000):
        t, fv = gen.gen_open(rng, depth=3)
        sigma = {v.id: gen.gen_term(rng, v.sort, 2) for v in fv
                 if rng.random() < 0.8}
        got = nameless.to_db(substitute(t, sigma))
        want = nameless.db_subst(
            nameless.to_db(t),
            {k: nameless.to_db(img) for k, img in sigma.items()})
        ok &= got == want
    for _ in range(1000):
        t = gen.gen_closed(rng, depth=4)
        n = beta_normal_form(t)
        ok &= beta_step(n) is None
        ok &= alpha_eq(beta_normal_form(n), n)
        ok &= nameless.to_db(n) == nameless.db_nf(nameless.to_db(t))
    done = 0
    while done < 1000:
        t = gen.gen_closed(rng, depth=4)
        r = beta_step(t)
        if r is None:
            continue
        ok &= sort_of(r) == sort_of(t)
        done += 1
    report("core oracles (10000 subst, 1000 nf, 1000 reductions)",
           ok, started, 120.0)


def test_7_round_trips():
    started = time.monotonic()
    ok = True
    rng = random.Random(181)
    for _ in range(1000):
        t = erase(gen.gen_closed(rng, depth=4))
        ok &= parse_term(print_term(t)) == t
    for name in GOLDEN:
        cert = parse_certificate((DATA / name).read_text())
        text = print_certificate(cert)
        ok &= print_certificate(parse_certificate(text)) == text
    report("round-trips (1000 terms + golden certificates)", ok, started, 60.0)
