"""Command-line interface.

Subcommands: parse (echo canonical form), check (parse + typecheck),
process (rewrite asserts, optionally emitting certificates), verify
(check a certificate, optionally cross-checked by the oracle).

Exit codes: 0 success; 1 parse, sort or usage error; 2 I/O error; 3
divergence or input nested too deeply; 4 invalid certificate; 5 valid but
containing trusted steps (unless --allow-trust).  Multiple files are handled
one after another, in input order; the first non-zero code is the exit code.
"""

import argparse
import os
import sys

from . import core
from .sexpr import SourceError, sexpr_to_str

# Each subcommand imports the modules it uses: every call starts a fresh
# interpreter, which compiles what it imports.

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_IO_ERROR = 2
EXIT_DIVERGENCE = 3
EXIT_INVALID = 4
EXIT_TRUSTED = 5


def _read(path):
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    with open(path, encoding="utf-8") as fh:
        return fh.read(), path


def _run_parse(path, args, out, err):
    from . import surface

    text, name = _read(path)
    cmds = surface.parse_script(text, name)
    out.write(surface.print_script(cmds))
    return EXIT_OK


def _run_check(path, args, out, err):
    from . import sexpr, typecheck

    text, name = _read(path)
    checked = typecheck.check_script(sexpr.parse_text(text, name), name)
    if args.verbose:
        from . import certprinter

        for i, t in enumerate(checked.asserts, 1):
            out.write(f"; assert {i}: {certprinter.print_term(t)}\n")
    out.write(f"{name}: ok ({len(checked.asserts)} assertion(s))\n")
    return EXIT_OK


def _proof_path(base, index, count):
    if count == 1:
        return base
    root, ext = os.path.splitext(base)
    return f"{root}.{index}{ext or '.hoproof'}"


def _run_process(path, args, out, err):
    from . import calculus, certprinter, context, processor, sexpr, typecheck
    from .elaborate import Elaborator

    text, name = _read(path)
    cmds = sexpr.parse_text(text, name)
    checked = typecheck.check_script(cmds, name)
    syntax = Elaborator(name)  # echoes the other commands in canonical form
    n = 0
    for c in cmds:
        if c.items[0].text == "assert":
            n += 1
            term = checked.asserts[n - 1]
            # no assertion uses another's contexts: drop the cached ones
            context.context_subst.cache_clear()
            try:
                result = processor.process(term, checked.signature,
                                           max_steps=args.max_steps)
            except ValueError as e:  # a term under a choice binder
                raise SourceError(str(e), c.line, c.col, name) from None
            out.write(f"(assert {certprinter.print_term(result.term)})\n")
            if args.proof:
                # printed before the file is opened, so that a failure
                # leaves no empty certificate behind
                cert = calculus.print_certificate(result.certificate)
                dest = _proof_path(args.proof, n, len(checked.asserts))
                with open(dest, "w", encoding="utf-8") as fh:
                    fh.write(cert)
        else:
            out.write(sexpr_to_str(syntax.command(c, False)) + "\n")
    return EXIT_OK


def _run_verify(path, args, out, err):
    from . import calculus, context

    context.context_subst.cache_clear()  # another file's contexts
    text, name = _read(path)
    cert = calculus.parse_certificate(text, filename=name)
    report = calculus.check_certificate(cert, max_steps=args.max_steps)
    if report.verdict == "invalid":
        fail = report.first_failure
        err.write(f"{name}:{fail.line}:{fail.col}: invalid: {fail.message}\n")
        return EXIT_INVALID
    if args.oracle:
        from . import oracle

        for step_id, verdict in oracle.check_certificate_oracle(
                cert, max_steps=args.max_steps):
            if verdict != "lambda-valid":
                out.write(f"{name}: oracle: step {step_id} is {verdict}\n")
                break
        else:
            out.write(f"{name}: oracle: all steps lambda-valid\n")
    if report.verdict == "valid-with-trust":
        out.write(f"{name}: valid with {report.trusted_count} trusted step(s)\n")
        return EXIT_OK if args.allow_trust else EXIT_TRUSTED
    out.write(f"{name}: valid ({len(cert.steps)} steps)\n")
    return EXIT_OK


_COMMANDS = {
    "parse": _run_parse,
    "check": _run_check,
    "process": _run_process,
    "verify": _run_verify,
}


def _run_one(command, path, args):
    out, err = sys.stdout, sys.stderr
    try:
        code = _COMMANDS[command](path, args, out, err)
    except SourceError as e:
        err.write(str(e) + "\n")
        code = EXIT_INPUT_ERROR
    except core.DivergenceError as e:
        err.write(f"{path}: error: {e}\n")
        code = EXIT_DIVERGENCE
    except RecursionError:
        err.write(f"{path}: error: input nested too deeply\n")
        code = EXIT_DIVERGENCE
    except OSError as e:
        err.write(f"{path}: error: {e}\n")
        code = EXIT_IO_ERROR
    except ValueError as e:
        err.write(f"{path}: error: {e}\n")
        code = EXIT_INPUT_ERROR
    return code


def make_parser():
    ap = argparse.ArgumentParser(prog="hosmt",
                                 description="Higher-order SMT-LIB frontend "
                                             "and proof certificate tools")
    sub = ap.add_subparsers(dest="command", required=True)
    specs = {
        "parse": "parse scripts and echo their canonical form",
        "check": "parse and typecheck scripts",
        "process": "process assertions, optionally emitting certificates",
        "verify": "check proof certificates",
    }
    for name, help_ in specs.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("files", nargs="+", help="input files, or - for stdin")
        if name == "check":
            p.add_argument("--verbose", action="store_true",
                           help="print each elaborated assertion")
        if name in ("process", "verify"):
            p.add_argument("--max-steps", type=int,
                           default=core.DEFAULT_STEP_CAP,
                           help="beta-reduction step cap")
        if name == "process":
            p.add_argument("--proof", metavar="PATH",
                           help="write one certificate per assertion of a "
                                "single input file; with several assertions "
                                "an index is inserted before the extension")
        if name == "verify":
            p.add_argument("--oracle", action="store_true",
                           help="cross-check every step with the encoding oracle")
            p.add_argument("--allow-trust", action="store_true",
                           help="exit 0 even when trusted steps are present")
    return ap


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 on --help
        return EXIT_INPUT_ERROR if e.code else EXIT_OK
    if args.command == "process" and args.proof and len(args.files) > 1:
        sys.stderr.write(f"hosmt: error: --proof takes one input file, "
                         f"got {len(args.files)}\n")
        return EXIT_INPUT_ERROR
    code = EXIT_OK
    for path in args.files:
        c = _run_one(args.command, path, args)
        if code == EXIT_OK:
            code = c
    return code


if __name__ == "__main__":
    sys.exit(main())
