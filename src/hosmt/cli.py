"""Command-line interface.

Subcommands: parse (echo canonical form), check (parse + typecheck),
process (rewrite asserts, optionally emitting certificates), verify
(check a certificate, optionally cross-checked by the oracle).

Exit codes: 0 success; 1 parse, sort or usage error; 2 I/O error; 3
divergence or input nested too deeply; 4 invalid certificate; 5 valid but
containing trusted steps (unless --allow-trust).  Multiple files are
handled in input order; the first non-zero code is the exit code.

The files of a verify call, and the assertions of a script that process
reads, are independent items.  When there is enough work to pay for a
fork, `hosmt.forked` spreads them over the CPUs this process may use.
Output, certificate files and the exit code are as if the items ran one
after another: this process alone writes them, in input order, and
process stops at its first failing assertion.  Stdin (`-`) is read by
this process alone, and it runs every item that a worker did not
return, because the worker could not be forked, died or met a fault.
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

# The work of an item is estimated in microseconds from the size of its
# input: a certificate's bytes for verify, a script's characters spread
# over its assertions for process.  The rates were measured on the batch
# workload on a 2-vCPU x86 virtual machine with Python 3.11.
VERIFY_US_PER_BYTE = 1.0
PROCESS_US_PER_CHAR = 5.0
# On that machine, forking a 17 MB interpreter, its exit and its reaping
# take about 3 ms of wall time, and the copy-on-write faults of the pages
# that both processes go on writing about 3 ms more.  Spreading a verify
# call over two CPUs broke even at about 15 ms of work (two batch
# certificates) and won 5-10% at 28 ms, so a worker gets at least this
# much work; the three certificates under tests/data (4 KB) stay in one
# process.
MIN_SHARE_US = 12_000


def _cpus():
    """How many CPUs this process may run on; 1 where it cannot fork, or
    where another thread runs: a forked worker would hold a copy of the
    locks that thread holds, and never see them released."""
    threading = sys.modules.get("threading")
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading and threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _each(items, weights, run, out, err):
    """run(item, out, err) for each item, in order, as the caller consumes
    them; spread by `hosmt.forked` over the CPUs, in one share per CPU,
    where two or more may each get MIN_SHARE_US of the items' estimated
    work `weights`."""
    k = min(len(items), int(sum(weights) // MIN_SHARE_US))
    if k > 1:
        k = min(k, _cpus())
    if k < 2:
        return (run(item, out, err) for item in items)
    from . import forked

    return forked.fan_out(items, weights, k, run, out, err)


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
    at = [c for c in cmds if c.items[0].text == "assert"]

    def assertion(n, out, err):
        # no assertion uses another's contexts: drop the cached ones
        context.context_subst.cache_clear()
        try:
            result = processor.process(checked.asserts[n], checked.signature,
                                       max_steps=args.max_steps)
        except ValueError as e:  # a term under a choice binder
            raise SourceError(str(e), at[n].line, at[n].col, name) from None
        out.write(f"(assert {certprinter.print_term(result.term)})\n")
        # printed before the file is opened, so that a failure leaves no
        # empty certificate behind
        return (calculus.print_certificate(result.certificate)
                if args.proof else None)

    weight = len(text) * PROCESS_US_PER_CHAR / max(len(at), 1)
    certs = _each(range(len(at)), [weight] * len(at), assertion, out, err)
    try:
        n = 0
        for c in cmds:
            if c.items[0].text == "assert":
                n += 1
                cert = next(certs)
                if cert is not None:
                    dest = _proof_path(args.proof, n, len(at))
                    with open(dest, "w", encoding="utf-8") as fh:
                        fh.write(cert)
            else:
                out.write(sexpr_to_str(syntax.command(c, False)) + "\n")
    finally:
        certs.close()
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


def _run_one(command, path, args, out, err):
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

    def run(path, out, err):
        return _run_one(args.command, path, args, out, err)

    # verify spreads its files and process each script's assertions; the
    # files of parse and check weigh nothing, as no workload has shown
    # that spreading them pays
    rate = VERIFY_US_PER_BYTE if args.command == "verify" else 0
    codes = _each(args.files, [_size(path) * rate for path in args.files],
                  run, sys.stdout, sys.stderr)
    code = EXIT_OK
    try:
        for c in codes:
            code = code or c
    finally:
        codes.close()
    return code


def _size(path):
    try:
        return os.stat(path).st_size
    except OSError:  # a missing file; stdin
        return 0


if __name__ == "__main__":
    sys.exit(main())
