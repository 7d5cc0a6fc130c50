"""Signatures: the declared sorts and symbols a term is elaborated in.

A `Signature` maps each declared symbol to its curried core sort and each
sort name to its arity; the built-in symbols are in `CORE_SYMBOLS` and,
with arithmetic, `ARITH_SYMBOLS`.  Scripts and certificates are both
elaborated into one by `hosmt.elaborate`.
"""

from .core import BOOL, INT, Fun
from .nodes import Record
from .sexpr import SourceError


class SortError(SourceError):
    pass


BUILTIN_SORTS = {"Bool": 0, "Int": 0, "Real": 0}

_B2 = Fun(BOOL, Fun(BOOL, BOOL))
CORE_SYMBOLS = {
    "true": BOOL,
    "false": BOOL,
    "not": Fun(BOOL, BOOL),
    "and": _B2,
    "or": _B2,
    "xor": _B2,
    "=>": _B2,
}

_I2I = Fun(INT, Fun(INT, INT))
_I2B = Fun(INT, Fun(INT, BOOL))
ARITH_SYMBOLS = {
    "+": _I2I, "-": _I2I, "*": _I2I,
    "<=": _I2B, "<": _I2B, ">=": _I2B, ">": _I2B,
}

class Signature(Record):
    """Declared symbols and sort names.  Symbols map to curried core sorts."""

    __slots__ = ("symbols", "sorts")

    def __init__(self):
        self.symbols = {}
        self.sorts = dict(BUILTIN_SORTS)

    def declare_sort(self, name, arity, pos=(0, 0), filename="<input>"):
        # (-> ...) is always the arrow, never a declaration
        if name in self.sorts or name == "->":
            raise SortError(f"sort {name} declared twice", *pos, filename)
        self.sorts[name] = arity

    def declare_fun(self, name, sort, pos=(0, 0), filename="<input>"):
        # = is always the built-in, never a declaration
        if name in self.symbols or name in CORE_SYMBOLS or name == "=":
            raise SortError(f"symbol {name} declared twice", *pos, filename)
        self.symbols[name] = sort

    def lookup(self, name, arith=False):
        if name in self.symbols:
            return self.symbols[name]
        if name in CORE_SYMBOLS:
            return CORE_SYMBOLS[name]
        if arith and name in ARITH_SYMBOLS:
            return ARITH_SYMBOLS[name]
        return None
