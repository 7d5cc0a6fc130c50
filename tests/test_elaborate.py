"""Scripts elaborated through `hosmt.elaborate`, by `typecheck.check_script`,
against the script front end it replaced (`certreader_ref.check_script`).

Each input is checked by both from the same variable id, as each would be
in a fresh process, and must give the same assertion nodes and an equal
signature, or the same error class, message and position.  The inputs are
the forall, let and batch scripts of `bench/workloads.py` at seeds 1-3,
the command scripts of `scripts/outputs_digest.py` at seeds 1-3, the
scripts under tests/data, and 30 seeded single-character edits of each of
them that `surface.parse_script` accepts."""

import itertools
import pathlib
import random
import sys

import pytest

from hosmt import core, typecheck
from hosmt.sexpr import SourceError
from hosmt.surface import parse_script

from conftest import DATA

import certreader_ref

ROOT = pathlib.Path(__file__).resolve().parent.parent
EDITS = 30
FILE = "input.smt2"


def _outcome(check, cmds):
    try:
        return check(cmds, FILE)
    except SourceError as err:
        return type(err).__name__, err.message, err.line, err.col


def _agree(cmds):
    """Whether both front ends give cmds the same outcome; the new one's is
    returned with the answer."""
    start = next(core._counter)
    end = start
    outcomes = []
    for check in (typecheck.check_script, certreader_ref.check_script):
        core._counter = itertools.count(start)
        outcomes.append(_outcome(check, cmds))
        end = max(end, next(core._counter))
    core._counter = itertools.count(end)
    new, ref = outcomes
    # CheckedScript compares its asserts as lists of nodes: by identity
    return new == ref, new


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


def _parsed(text):
    try:
        return parse_script(text, FILE)
    except SourceError:
        return None


def test_scripts_agree(scripts):
    texts, _ = scripts
    assert len(texts) == 9 + 120 + 2
    parsed = rejected = 0
    for name, text in texts.items():
        cmds = _parsed(text)
        if cmds is None:  # a malformed command
            continue
        same, new = _agree(cmds)
        assert same, name
        parsed += 1
        rejected += isinstance(new, tuple)
    # a few command scripts hold a malformed or clashing command
    assert parsed > 100 and 0 < rejected < 30


def test_edited_scripts_agree(scripts):
    texts, edit_chars = scripts
    parsed = rejected = 0
    for name, text in texts.items():
        rng = random.Random(f"edit-{name}")
        for k in range(EDITS):
            at = rng.randrange(len(text))
            insert = rng.choice(("", *edit_chars))
            cmds = _parsed(text[:at] + insert + text[at + (not insert):])
            if cmds is None:
                continue
            same, new = _agree(cmds)
            assert same, (name, k)
            parsed += 1
            rejected += isinstance(new, tuple)
    assert parsed > 1200 and rejected > 500
