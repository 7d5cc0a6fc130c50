"""Seeded workload generators.

Each workload is one SMT-LIB script plus, for every assertion, the
expected processed form in de Bruijn notation (see `reference.py`).  The
seed fixes every choice; the program under test only ever sees the
generated script.

- forall-n: n nested universal binders over one equation.
- let-n: a chain of n nested lets.
  Both are fixed-shape families, and the argument order of `g` alternates
  from level to level.  The seed picks the binder names, all of one length,
  so inputs differ between seeds but their cost does not: which levels
  swap arguments changes the certificate's size by several percent.
- batch: random Bool assertions from `tests/gen.py`, each drawn at depth 6
  and kept only if its size lies in a fixed band, so that the total work of
  a batch varies little from seed to seed.
"""

import random
from dataclasses import dataclass

import gen
import nameless
from hosmt import core, surface, typecheck

import reference

# Sizes are set by run length: a round of process, verify and
# verify --oracle should take about two seconds on a 2-core machine.
SIZES = {"forall": 24, "let": 16, "batch": 36}

GF_DECLS = "(declare-fun g (Int Int) Int)\n(declare-fun a () Int)\n"

# batch assertions are kept when their size (nodes) lies in this band
BATCH_DEPTH = 6
BATCH_SIZE_BAND = (55, 65)

_LETTERS = "bcdfhjkmnpqrstvz"


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    decls: str  # declarations only; the set-up call checks these
    script: str  # declarations and assertions
    expected: tuple  # de Bruijn form of each processed assertion


def _names(rng, n):
    """n distinct 4-letter binder names, none of which the program reserves."""
    out = []
    seen = set()
    while len(out) < n:
        name = "x" + "".join(rng.choice(_LETTERS) for _ in range(3))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _flips(n):
    """Which of n levels swap g's arguments: every second one."""
    return [i % 2 == 1 for i in range(n)]


def _g(flip, x, y):
    return f"(g {y} {x})" if flip else f"(g {x} {y})"


def forall_workload(seed, n):
    """(forall ((x1 Int)) ... (forall ((xn Int)) (= (g xn (... (g x1 a))) a)))."""
    rng = random.Random(seed)
    names = _names(rng, n)
    flips = _flips(n)
    # the processor renames binders w, w1, w2, ... outermost first
    ws = ["w"] + [f"w{i}" for i in range(1, n)]
    inner, expect = "a", "a"
    for x, w, flip in zip(names, ws, flips):
        inner = _g(flip, x, inner)
        expect = _g(flip, w, expect)
    term, expect = f"(= {inner} a)", f"(= {expect} a)"
    for x, w in zip(reversed(names), reversed(ws)):
        term = f"(forall (({x} Int)) {term})"
        expect = f"(forall (({w} Int)) {expect})"
    return Workload("forall", n, GF_DECLS, f"{GF_DECLS}(assert {term})\n",
                    (reference.db_of_text(expect),))


def let_workload(seed, n):
    """(= (let ((x1 a)) (let ((x2 (g x1 a))) ... (g xn a))) a)."""
    rng = random.Random(seed)
    names = _names(rng, n)
    flips = _flips(n)
    body = _g(flips[-1], names[-1], "a")
    for i in range(n - 1, -1, -1):
        img = "a" if i == 0 else _g(flips[i - 1], names[i - 1], "a")
        body = f"(let (({names[i]} {img})) {body})"
    # expanded: x1 = a, x(i+1) = g(xi, a) with the same argument orders
    expect = "a"
    for flip in flips:
        expect = _g(flip, expect, "a")
    term, expect = f"(= {body} a)", f"(= {expect} a)"
    return Workload("let", n, GF_DECLS, f"{GF_DECLS}(assert {term})\n",
                    (reference.db_of_text(expect),))


def _declare(const):
    args = []
    s = const.sort
    while isinstance(s, core.Fun):
        args.append(core.sort_str(s.dom))
        s = s.cod
    return f"(declare-fun {const.name} ({' '.join(args)}) {core.sort_str(s)})"


def batch_workload(seed, n):
    """n random Bool assertions over `gen.CONSTS`, sizes within the band."""
    rng = random.Random(seed)
    decls = "".join(_declare(c) + "\n" for c in gen.CONSTS)
    lo, hi = BATCH_SIZE_BAND
    lines, expected = [], []
    while len(lines) < n:
        t = gen.gen_term(rng, core.BOOL, BATCH_DEPTH)
        if not lo <= reference.db_size(nameless.to_db(t)) <= hi:
            continue
        lines.append(f"(assert {surface.print_term(typecheck.erase(t))})\n")
        expected.append(reference.expected_db(t))
    return Workload("batch", n, decls, decls + "".join(lines),
                    tuple(expected))


BUILDERS = {"forall": forall_workload, "let": let_workload,
            "batch": batch_workload}


def make(name, seed, size=None):
    """The named workload at the given size (default: `SIZES[name]`)."""
    return BUILDERS[name](seed, SIZES[name] if size is None else size)
