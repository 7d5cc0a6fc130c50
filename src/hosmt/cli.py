"""Command-line interface.

Subcommands: parse (echo canonical form), check (parse + typecheck),
process (rewrite asserts, optionally emitting certificates), verify
(check a certificate, optionally cross-checked by the oracle).

Exit codes: 0 success; 1 parse, sort or usage error; 2 I/O error, a
stdout that cannot be written included; 3 divergence or input nested too
deeply; 4 invalid certificate; 5 valid but containing trusted steps
(unless --allow-trust).  Multiple files are handled in input order; the
first non-zero code is the exit code.

A command line enters through `run()`; `main(argv)` changes nothing that
lasts, so that one process may call it many times.

The files of a verify call, and the assertions of a script that process
reads, are independent items.  When there is enough work to pay for a
fork, `hosmt.forked` spreads them over the CPUs this process may use.
Output, certificate files and the exit code are as if the items ran one
after another: this process alone writes them, in input order, and
process stops at its first failing assertion.  Stdin (`-`) is read by
this process alone, and it runs every item that a worker did not
return, because the worker could not be forked, died or met a fault.
"""

import gc
import os
import sys
import types

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

USAGE = f"""\
usage: hosmt parse   FILE...                              # echo scripts in canonical form
       hosmt check   FILE... [--verbose]                  # parse + typecheck
       hosmt process FILE... [--proof P] [--max-steps N]  # rewrite assertions, emit certificates
       hosmt verify  FILE... [--oracle] [--allow-trust] [--max-steps N]

Options may come before, between or after the files, and -- ends them.
A FILE of - reads stdin.  --opt=VALUE is the same as --opt VALUE, and
the last of a repeated option wins.

  --verbose        print each elaborated assertion
  --proof P        write one certificate per assertion of a single input
                   file; with several assertions an index is inserted
                   before the extension
  --max-steps N    beta-reduction step cap (default {core.DEFAULT_STEP_CAP})
  --oracle         cross-check every step with the encoding oracle
  --allow-trust    exit 0 even when trusted steps are present
  -h, --help       print this text and exit
"""

# each subcommand's options and their defaults: a flag's is False, and
# another option's value is read with the type of its default
OPTIONS = {"parse": {}, "check": {"--verbose": False},
           "process": {"--proof": "", "--max-steps": core.DEFAULT_STEP_CAP},
           "verify": {"--oracle": False, "--allow-trust": False,
                      "--max-steps": core.DEFAULT_STEP_CAP}}


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


def parse_args(argv):
    """The subcommand, files and options of argv as attributes (`max_steps`
    for --max-steps); None if argv asks for help.  Raises ValueError."""
    end = argv.index("--") if "--" in argv else len(argv)
    if "-h" in argv[:end] or "--help" in argv[:end]:
        return None
    if not argv or argv[0] not in OPTIONS:
        raise ValueError(f"unknown subcommand {argv[0]!r}" if argv
                         else "missing subcommand")
    command, files, values = argv[0], [], dict(OPTIONS[argv[0]])
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        if word == "--":
            files.extend(words)
        elif word == "-" or not word.startswith("-"):
            files.append(word)
        elif name not in values:
            raise ValueError(f"{command} takes no option {name}")
        elif isinstance(values[name], bool):
            if eq:
                raise ValueError(f"{name} takes no value")
            values[name] = True
        else:
            if not eq:
                value = next(words, None)
                # a path is not spelt like an option; int() judges a number
                if value is None or isinstance(values[name], str) and (
                        value.startswith("-") and value != "-"):
                    raise ValueError(f"{name} needs a value")
            try:
                values[name] = type(values[name])(value)
            except ValueError:
                raise ValueError(f"{name} takes an integer, not {value!r}")
    if not files:
        raise ValueError(f"{command} needs at least one file")
    return types.SimpleNamespace(command=command, files=files, **{
        name[2:].replace("-", "_"): v for name, v in values.items()})


def main(argv=None):
    """The exit code of one command line, sys.argv[1:] by default, whose
    output goes to sys.stdout and sys.stderr."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as e:  # a usage error
        synopsis = USAGE[:USAGE.index("\n\n")]
        sys.stderr.write(f"{synopsis}\nhosmt: error: {e}\n")
        return EXIT_INPUT_ERROR
    if args is None:
        sys.stdout.write(USAGE)
        return EXIT_OK
    if args.command == "process" and args.proof and len(args.files) > 1:
        sys.stderr.write(f"hosmt: error: --proof takes one input file, "
                         f"got {len(args.files)}\n")
        return EXIT_INPUT_ERROR

    def run_file(path, out, err):
        return _run_one(args.command, path, args, out, err)

    # verify spreads its files and process each script's assertions; the
    # files of parse and check weigh nothing, as no workload has shown
    # that spreading them pays
    rate = VERIFY_US_PER_BYTE if args.command == "verify" else 0
    codes = _each(args.files, [_size(path) * rate for path in args.files],
                  run_file, sys.stdout, sys.stderr)
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


def run():
    """main() as a command-line call; a stdout it cannot flush is exit 2."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as e:  # and the shutdown's flush goes to the null device
        sys.stderr.write(f"hosmt: error: stdout: {e}\n")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = code or EXIT_IO_ERROR
    gc.freeze()  # the shutdown's collections skip what the call built
    return code


if __name__ == "__main__":
    sys.exit(run())
