"""Well-sortedness and elaboration of scripts into core.

Declarations are normalized to fully curried sorts and kept in a
`signature.Signature`, so the three spellings of a binary function declaration
coincide; partial application is then well-typed for every symbol.
The canonical commands of `hosmt.surface` are read by position, and
their terms and sorts are elaborated by `elaborate.Elaborator`, as a
certificate's are: each binder and let variable is a fresh one, and the
arithmetic symbols are in scope after a `set-logic` whose logic has
arithmetic.  Core terms print through `hosmt.certprinter`.
"""

from . import surface
from .core import BOOL, fresh_var, fun_sort
from .elaborate import Elaborator
from .nodes import Record


def logic_has_arith(logic):
    return logic is not None and ("IA" in logic or "RA" in logic or logic == "ALL")


class CheckedScript(Record):
    __slots__ = ("signature", "asserts")

    def __init__(self, signature, asserts):
        self.signature = signature
        self.asserts = asserts  # core terms of sort Bool


def declare(el, cmd):
    """Add the canonical (declare-sort ...) or (declare-fun ...) command
    `cmd` to the signature of the elaborator `el`."""
    word, name, args, *result = cmd.items
    if word.text == "declare-sort":
        el.sig.declare_sort(name.text, int(args.text), (cmd.line, cmd.col),
                            el.filename)
    else:
        sort = fun_sort([el.sort(a) for a in args.items], el.sort(result[0]))
        el.declare_fun(name.text, sort, cmd)


def check_script(cmds, filename="<input>"):
    """Process the canonical commands (`hosmt.surface`) in order, and
    elaborate every assert to Bool."""
    el = Elaborator(filename)
    asserts = []
    for c in cmds:
        word = c.items[0].text
        if word == "set-logic":
            el.arith = logic_has_arith(c.items[1].text)
            el.consts.clear()  # the arithmetic symbols came or went
        elif word in ("declare-sort", "declare-fun"):
            declare(el, c)
        elif word == "define-fun":
            _, name, params, result, body = c.items
            vs = [fresh_var(p.items[0].text, el.sort(p.items[1]))
                  for p in params.items]
            el.scope.bind((v.name, v) for v in vs)
            _, s = el.term(body)
            el.scope.unbind()
            declared = el.sort(result)
            el.expect("define-fun", s, declared, c)
            el.declare_fun(name.text, fun_sort([v.sort for v in vs], declared),
                           c)
        elif word == "assert":
            term, s = el.term(c.items[1])
            el.expect("assert", s, BOOL, c)
            asserts.append(term)
    return CheckedScript(el.sig, asserts)


# ------------------------------------------------------- core -> surface

def erase(t):
    """Core term back to a surface term that re-elaborates to it: the parse
    of its printed text."""
    from . import certprinter

    return surface.parse_term(certprinter.print_term(t))
