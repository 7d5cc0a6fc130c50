"""Well-sortedness and elaboration of scripts into core.

Declarations are normalized to fully curried sorts and kept in a
`signature.Signature`, so the three spellings of a binary function declaration
coincide; partial application is then well-typed for every symbol.
Each command, the reader's tree as it stands, is checked and applied by
`elaborate.Elaborator.command` in one walk, as a certificate's
declarations are: each binder and let variable is a fresh one, and the
arithmetic symbols are in scope after a `set-logic` whose logic has
integer arithmetic.  Core terms print through `hosmt.certprinter`.
"""

from . import sexpr
from .elaborate import Elaborator
from .nodes import Record
from .signature import SortError


class CheckedScript(Record):
    __slots__ = ("signature", "asserts")

    def __init__(self, signature, asserts):
        self.signature = signature
        self.asserts = asserts  # core terms of sort Bool


def check_script(cmds, filename="<input>"):
    """Check and elaborate the commands `cmds`, canonical or not, in order,
    each in one walk; every assert must have sort Bool.  The first command
    in error raises, and a syntax error anywhere in it comes before a sort
    error."""
    el = Elaborator(filename)
    asserts = []
    for c in cmds:
        try:
            term = el.command(c)
        except SortError:
            el.command(c, False)  # raises the command's syntax error, if any
            raise
        if term is not None:
            asserts.append(term)
    return CheckedScript(el.sig, asserts)


# ------------------------------------------------------- core -> surface

def erase(t):
    """Core term back to a canonical term that re-elaborates to it: the
    tree of its printed text."""
    from . import certprinter

    (e,) = sexpr.parse_text(certprinter.print_term(t))
    return Elaborator().term(e, False)
