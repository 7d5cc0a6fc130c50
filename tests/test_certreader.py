"""The one-walk certificate reader, `hosmt.certreader`, against the reader
it replaced (`certreader_ref`), which checked each term's syntax with
`hosmt.surface` and then elaborated it with a hooked copy of
`typecheck.infer_sort`.

An accepted certificate must read to the same per-step (id, status) under
`check_certificate`, and a rejected one to the same error class, message
and position, up to the differences `_agree` allows."""

import itertools
import pathlib
import random
import re
import sys

import pytest

from hosmt import calculus, certreader, core, processor, typecheck
from hosmt.sexpr import SourceError
from hosmt.surface import parse_script

from conftest import DATA

import certreader_ref
import mutate

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
FILE = "cert.hoproof"


def _outcome(read, text):
    try:
        cert = read(text, FILE)
    except SourceError as err:
        return type(err).__name__, err.message, err.line, err.col
    return [(r.id, r.status)
            for r in calculus.check_certificate(cert).results]


def _outcomes(text):
    """(new, reference) outcome of reading text.

    Both readers start from the same variable id, as each would in a fresh
    process: the reference's message that names one of a term's free
    variables names the first in the iteration order of its set of ids,
    which depends on them.
    """
    start = next(core._counter)
    end = start
    outcomes = []
    for read in (certreader.read_certificate, certreader_ref.read_certificate):
        core._counter = itertools.count(start)
        outcomes.append(_outcome(read, text))
        end = max(end, next(core._counter))
    core._counter = itertools.count(end)
    return outcomes


def _agree(text, syntax_first=True):
    """The new reader's outcome of text, which is the reference's up to the
    allowed differences; no input the reference rejects is accepted.

    `term @N uses X, which means another variable here` may name another
    of the variables wrong at that use: the reference names the first in
    the iteration order of a set of ids, the new reader the first the
    certificate registered.  With `syntax_first`, the reported error may
    differ too: the reference checked a term's whole syntax before any of
    its sorts, so for a term with both a syntax error and a sort error,
    either may be the one reported."""
    new, ref = (_any_wrong_variable(o) for o in _outcomes(text))
    if new != ref:
        assert syntax_first, (new, ref)
        assert isinstance(new, tuple) and isinstance(ref, tuple), (new, ref)
        assert _is_syntax(new) != _is_syntax(ref), (new, ref)
        assert _is_elaboration(new) != _is_elaboration(ref), (new, ref)
    return new


_WRONG_VARIABLE = re.compile(r"^(term @\S+ uses ).+(, which means another "
                             r"variable here)$")


def _any_wrong_variable(outcome):
    """The outcome with the variable a wrong-variable message names left
    out."""
    if isinstance(outcome, tuple):
        return (outcome[0], _WRONG_VARIABLE.sub(r"\1X\2", outcome[1]),
                *outcome[2:])
    return outcome


def _is_syntax(outcome):
    return outcome[0] == "ParseError"


def _is_elaboration(outcome):
    """Whether an error is one the reference found only once a term's
    syntax was checked: a sort error, or a term name that cannot be used
    where it stands."""
    return (outcome[0] == "SortError"
            or outcome[0] == "CertificateError"
            and outcome[1].startswith(("unknown term ", "term @")))


def _workload_certificates():
    """The certificates of the three benchmark workloads at seeds 1-3."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    import workloads

    texts = []
    for name in ("forall", "let", "batch"):
        for seed in (1, 2, 3):
            checked = typecheck.check_script(
                parse_script(workloads.make(name, seed).script))
            for t in checked.asserts:
                cert = processor.process(t, checked.signature).certificate
                texts.append(calculus.print_certificate(cert))
    return texts


@pytest.fixture(scope="module")
def workload_texts():
    return _workload_certificates()


GOLDEN = [p.read_text() for p in sorted(DATA.glob("*.hoproof"))]


class TestAgainstReference:
    def test_goldens(self):
        for text in GOLDEN:
            new, ref = _outcomes(text)
            assert new == ref and isinstance(new, list)

    def test_workload_certificates(self, workload_texts):
        assert len(workload_texts) == 114
        for text in workload_texts:
            new, ref = _outcomes(text)
            assert new == ref and isinstance(new, list)

    def test_text_mutants(self, workload_texts):
        # of the smallest certificates, where a mutant costs least to read
        rng = random.Random(17)
        pool = sorted(workload_texts, key=len)[:10]
        rejected = 0
        for _ in range(2000):
            _, text, _ = mutate.random_text_mutation(rng.choice(pool), rng)
            rejected += isinstance(_agree(text, syntax_first=False), tuple)
        assert rejected > 1000

    def test_character_edits(self):
        # single-character deletions and insertions reach the syntax and
        # sort checks, which the name mutations above do not
        rng = random.Random(5)
        for _ in range(3000):
            text = rng.choice(GOLDEN)
            i = rng.randrange(len(text))
            if rng.random() < 0.5:
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + rng.choice('()|";: x1.@') + text[i:]
            _agree(text)


def test_cert_read_span_is_one_scan(monkeypatch):
    """The traced benchmark times the `sexpr.cert_read` span by wrapping
    `sexpr.parse_text`: reading a certificate calls it exactly once, with
    the text and the file name, looked up at call time."""
    from hosmt import sexpr

    text = GOLDEN[0]
    calls = []
    scan = sexpr.parse_text

    def counting(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(sexpr, "parse_text", counting)
    calculus.parse_certificate(text, filename="span.hoproof")
    assert calls == [(text, "span.hoproof")]


def test_definitions_are_walked_at_most_twice(monkeypatch):
    """Each (define ...) body is walked by `Elaborator.term` once to check
    its syntax and once to elaborate it at its first use; a later use
    walks none of it."""
    k = 40
    lines = ["(declare-fun a () Int)", "(declare-fun f (Int Int) Int)",
             "(define @t0 ((lambda ((x Int)) (f x a)) a))"]
    for i in range(1, k):
        lines.append(f"(define @t{i} (f @t{i - 1} @t{i - 1}))")
    for i in range(k):
        lines.append(f"(step s{i} :rule refl :conclusion (= @t{i} @t{i}))")
    text = "\n".join(lines) + "\n"
    calls = {}
    walk = certreader._CertParser.term

    def counting(self, e, elab=True):
        calls[id(e)] = calls.get(id(e), 0) + 1
        return walk(self, e, elab)

    monkeypatch.setattr(certreader._CertParser, "term", counting)
    from hosmt import sexpr
    exprs = sexpr.parse_text(text, FILE)
    monkeypatch.setattr(sexpr, "parse_text", lambda *args: exprs)
    cert = calculus.parse_certificate(text, filename=FILE)
    assert len(cert.steps) == k
    bodies = [e.items[2] for e in exprs if e.items[0].text == "define"]
    nodes, todo = [], list(bodies)
    while todo:
        e = todo.pop()
        nodes.append(e)
        if e.__class__ is certreader.SList:
            todo += e.items
    # each body is used twice in its step and twice in the next body
    assert all(calls.get(id(e), 0) <= 2 for e in nodes)
    assert all(calls[id(e)] == 2 for e in bodies)
