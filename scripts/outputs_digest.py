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

Every call contributes its stdout, stderr and exit code.  The inputs are
copied into a temporary directory and named relative to it, since file
names appear in messages: the digest does not depend on where the checkout
lives.  One digest is printed per family (forall, let, batch, data, edits)
and one over everything:

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

import workloads  # noqa: E402
from hosmt import cli  # noqa: E402

FAMILIES = ("forall", "let", "batch")
EDIT_CHARS = '()|";: x1.'
EDITS_PER_INPUT = 24


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


def _encode(value):
    if isinstance(value, bytes):
        return value
    out, err, code = value
    return f"{out}\0{err}\0{code}".encode()


def digests(seeds, work):
    """{family: hex digest}, "all" last: the workload scripts and the
    files under tests/data are written to `work` and run there."""
    inputs = {f: [] for f in (*FAMILIES, "data", "edits")}
    for seed in seeds:
        for family in FAMILIES:
            name = f"{family}-{seed}.smt2"
            (work / name).write_text(workloads.make(family, seed).script)
            inputs[family].append(name)
    for path in sorted((ROOT / "tests" / "data").iterdir()):
        shutil.copy(path, work / path.name)
        inputs["data"].append(path.name)
    inputs["edits"] = [n for f in (*FAMILIES, "data") for n in inputs[f]]
    total = hashlib.sha256()
    out = {}
    old = os.getcwd()
    os.chdir(work)
    try:
        for family, names in inputs.items():
            h = hashlib.sha256()
            calls = edit_outputs if family == "edits" else outputs
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
