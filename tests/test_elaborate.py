"""Scripts elaborated through `hosmt.elaborate`, by `typecheck.check_script`,
against the script front end it replaced: `surface_ref`'s walk, which
checked syntax and rewrote each command into canonical form, and then
`certreader_ref.check_script`.

The inputs are the forall, let and batch scripts of `bench/workloads.py`
at seeds 1-3, the command scripts of `scripts/outputs_digest.py` at seeds
1-3, the scripts under tests/data, and 30 seeded single-character edits of
each of them.  On each input:

- the elaborator's syntax-only mode (`Elaborator.command(e, False)`) gives
  the commands `surface_ref.parse_script` gives, positions included, or
  the same error class, message and position;
- `check_script` gives the reference's assertion nodes and an equal
  signature, or the same error, both on the canonical commands and on the
  reader's trees as they stand.  Each check starts from the same variable
  id, as each would in a fresh process.  When `surface_ref` rejects the
  input, `check_script` on the reader's trees reports the same syntax
  error, or a sort error of an earlier command: the first command in
  error, where a syntax error comes before a sort error."""

import itertools
import pathlib
import random
import sys

import pytest

from hosmt import core, sexpr, typecheck
from hosmt.elaborate import Elaborator
from hosmt.sexpr import SList, SourceError
from hosmt.signature import SortError

from conftest import DATA

import certreader_ref
import surface_ref

ROOT = pathlib.Path(__file__).resolve().parent.parent
EDITS = 30
FILE = "input.smt2"


def _outcome(check, arg):
    try:
        return check(arg, FILE)
    except SourceError as err:
        return type(err).__name__, err.message, err.line, err.col


def _checked(canonical, raw):
    """The outcomes of `check_script` on the canonical commands and on the
    reader's trees, and of the reference on the canonical commands, each
    from the same variable id."""
    start = next(core._counter)
    end = start
    outcomes = []
    for check, cmds in ((typecheck.check_script, canonical),
                        (typecheck.check_script, raw),
                        (certreader_ref.check_script, canonical)):
        core._counter = itertools.count(start)
        outcomes.append(_outcome(check, cmds))
        end = max(end, next(core._counter))
    core._counter = itertools.count(end)
    return outcomes


def _agree(text):
    """(whether the front ends agree on the script `text`, `surface_ref`'s
    outcome, `check_script`'s on the reader's trees, or None when the
    reader rejects the text)."""
    canonical = _outcome(surface_ref.parse_script, text)
    try:
        raw = sexpr.parse_text(text, FILE)
    except SourceError:  # the reader's error, which both report
        return True, canonical, None
    syntax = Elaborator(FILE)
    trees = _outcome(lambda cmds, _: [syntax.command(e, False) for e in cmds],
                     raw)
    if isinstance(canonical, tuple):
        new = _outcome(typecheck.check_script, raw)
        # where the command with the syntax error starts
        start = max(p for p in ((c.line, c.col) for c in raw)
                    if p <= canonical[2:])
        return trees == canonical and (
            new == canonical or new[0] == SortError.__name__
            and new[2:] < start), canonical, new
    new, new_raw, ref = _checked(canonical, raw)
    # CheckedScript compares its asserts as lists of nodes: by identity
    return (trees == canonical and _positions(trees) == _positions(canonical)
            and new == ref and new_raw == ref), canonical, new


def _positions(e):
    if isinstance(e, list):
        return [_positions(x) for x in e]
    if isinstance(e, SList):
        return e.line, e.col, [_positions(x) for x in e.items]
    return e.line, e.col


def _scripts():
    """{name: text} of the unedited inputs."""
    for d in ("scripts", "bench"):
        if str(ROOT / d) not in sys.path:
            sys.path.append(str(ROOT / d))
    import outputs_digest
    import workloads

    texts = {}
    for seed in (1, 2, 3):
        for family in outputs_digest.FAMILIES:
            texts[f"{family}-{seed}"] = workloads.make(family, seed).script
        for k in range(outputs_digest.COMMAND_SCRIPTS):
            rng = random.Random(f"commands-{seed}-{k}")
            cmds = outputs_digest.command_script(rng)
            texts[f"commands-{seed}-{k}"] = outputs_digest._join(
                rng, [t for _, t in cmds])
    for path in sorted(DATA.glob("*.smt2")):
        texts[path.name] = path.read_text()
    return texts, outputs_digest.EDIT_CHARS


@pytest.fixture(scope="module")
def scripts():
    return _scripts()


def test_scripts_agree(scripts):
    texts, _ = scripts
    assert len(texts) == 9 + 120 + 2
    parsed = rejected = 0
    for name, text in texts.items():
        same, canonical, new = _agree(text)
        assert same, name
        if isinstance(canonical, tuple):  # a malformed command
            continue
        parsed += 1
        rejected += isinstance(new, tuple)
    # a few command scripts hold a malformed or clashing command
    assert parsed > 100 and 0 < rejected < 30


def test_edited_scripts_agree(scripts):
    texts, edit_chars = scripts
    parsed = rejected = malformed = earlier = 0
    for name, text in texts.items():
        rng = random.Random(f"edit-{name}")
        for k in range(EDITS):
            at = rng.randrange(len(text))
            insert = rng.choice(("", *edit_chars))
            same, canonical, new = _agree(
                text[:at] + insert + text[at + (not insert):])
            assert same, (name, k)
            if new is None:
                continue
            if isinstance(canonical, tuple):
                malformed += 1
                earlier += new != canonical
                continue
            parsed += 1
            rejected += isinstance(new, tuple)
    assert parsed > 1200 and rejected > 500
    # a syntax error the reference reports is mostly the first error, but
    # not always
    assert malformed > 500 and 0 < earlier < malformed / 5
