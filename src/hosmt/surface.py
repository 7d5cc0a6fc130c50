"""Parsing and printing scripts in canonical form.

A script's commands are the reader's s-expressions (`sexpr.Token`,
`sexpr.SList`), checked and in the canonical form that `hosmt.elaborate`
states, and print through `sexpr.sexpr_to_str` as single-space text that
reparses to an equal tree.  `check` and `process` elaborate the reader's
trees directly and load no part of this module.
"""

from . import sexpr
from .elaborate import Elaborator
from .sexpr import SYMBOL, SList, Token, sexpr_to_str


def command_from_sexpr(e, filename="<input>"):
    """The canonical tree of the command e: kept for `bench/layers.py`."""
    return Elaborator(filename).command(e, False)


def parse_script(text, filename="<input>"):
    """Parse a whole script; unknown commands are kept as they are."""
    el = Elaborator(filename)
    return [el.command(e, False) for e in sexpr.parse_text(text, filename)]


# ------------------------------------------------------------- printing

print_term = sexpr_to_str  # a term or a sort as text
print_command = sexpr_to_str  # a command as text: kept for bench/layers.py


def CAssert(term):
    """The command (assert term); exists only for `bench/layers.py`."""
    return SList((Token(SYMBOL, "assert"), term))


def print_script(cmds):
    return "\n".join(map(sexpr_to_str, cmds)) + "\n"
