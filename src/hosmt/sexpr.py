"""SMT-LIB flavoured s-expression lexer and reader.

One compiled regex splits the input into tokens in a single left-to-right
scan; `;` comments and whitespace are dropped.  Every token carries its
1-based line and column, so each diagnostic downstream can point into the
offending lexeme.  Numerals and decimals are ASCII digits only, as in
SMT-LIB; any other word is a symbol, or a keyword when it starts with `:`.

The reader builds nested lists with an explicit stack, so nesting depth is
bounded by memory, not by the Python call stack.  Atoms are `Token`s;
lists are `SList` nodes at the position of their opening parenthesis.
"""

import re
from functools import lru_cache

from .nodes import Record


class SourceError(Exception):
    """Error anchored at a source position, rendered `file:line:col: error: msg`."""

    def __init__(self, message, line=0, col=0, filename="<input>"):
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename
        super().__init__(f"{filename}:{line}:{col}: error: {message}")


class LexError(SourceError):
    pass


class ParseError(SourceError):
    pass


LPAR = "lpar"
RPAR = "rpar"
SYMBOL = "symbol"
KEYWORD = "keyword"
NUMERAL = "numeral"
DECIMAL = "decimal"
STRING = "string"


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line=0, col=0):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


class SList(Record):
    __slots__ = ("items", "line", "col")

    def __init__(self, items, line=0, col=0):
        self.items = items
        self.line = line
        self.col = col


# Alternatives are tried in order at each offset and together match every
# character, so consecutive matches tile the input.  A quote or bar that
# cannot open a complete string or quoted symbol falls through to
# `unterminated`.  Strings take `""` as an escaped quote; the trailing
# lookahead keeps a match from ending between the two quotes of an escape.
# No possessive quantifiers or atomic groups: Python 3.10 has neither.
_TOKEN = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<comment>;[^\n]*)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | \|(?P<quoted>[^|]*)\|
  | "(?P<string>[^"]*(?:""[^"]*)*)"(?!")
  | (?P<unterminated>["|])
  | (?P<keyword>:[^ \t\r\n();|"]*)
  | (?P<decimal>[0-9]+\.[0-9]+)(?![^ \t\r\n();|"])
  | (?P<numeral>[0-9]+)(?![^ \t\r\n();|"])
  | (?P<symbol>[^ \t\r\n();|"]+)
""", re.VERBOSE)

_ONE_LINE = frozenset((LPAR, RPAR, KEYWORD, DECIMAL, NUMERAL, SYMBOL))
_UNTERMINATED = {'"': "unterminated string literal",
                 "|": "unterminated quoted symbol"}


def _scan(text, filename):
    """Yield (kind, text, line, col) for each token of text."""
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        col = m.start() - line_start + 1
        if kind in _ONE_LINE:
            yield kind, m.group(), line, col
            continue
        if kind == "string":
            yield STRING, m.group(kind).replace('""', '"'), line, col
        elif kind == "quoted":
            yield SYMBOL, m.group(kind), line, col
        elif kind == "unterminated":
            raise LexError(_UNTERMINATED[m.group()], line, col, filename)
        # spaces, comments, strings and quoted symbols: all but comments
        # can span lines
        start, end = m.span()
        newlines = text.count("\n", start, end)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", start, end) + 1


def tokenize(text, filename="<input>"):
    """Split input into SMT-LIB tokens with positions attached."""
    return [Token(*t) for t in _scan(text, filename)]


def parse_text(text, filename="<input>"):
    """Read text into a list of nested s-expressions."""
    top = items = []
    open_lists = []  # (enclosing items, line, col) per unclosed parenthesis
    for kind, word, line, col in _scan(text, filename):
        if kind == LPAR:
            open_lists.append((items, line, col))
            items = []
        elif kind == RPAR:
            if not open_lists:
                raise ParseError("unexpected )", line, col, filename)
            outer, line, col = open_lists.pop()
            outer.append(SList(tuple(items), line, col))
            items = outer
        else:
            items.append(Token(kind, word, line, col))
    if open_lists:
        _, line, col = open_lists[-1]
        raise ParseError("unbalanced parentheses: missing )", line, col,
                         filename)
    return top


# a word the lexer reads as a symbol and not as a keyword
_BARE = re.compile(r'[^ \t\r\n();|":][^ \t\r\n();|"]*')


@lru_cache(maxsize=None)
def quote(name):
    """A symbol as text: in bars when the lexer would not read it back
    bare as this one symbol.  Names spelled like numerals or decimals and
    reserved words stay bare: the core cannot tell the symbol `|12|` from
    the literal 12, and the reader takes `|forall|` as the keyword."""
    return name if _BARE.fullmatch(name) else f"|{name}|"


def sexpr_to_str(e):
    parts = []
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, str):
            parts.append(e)
        elif isinstance(e, SList):
            parts.append("(")
            todo.append(")")
            for i, x in enumerate(reversed(e.items)):
                if i:
                    todo.append(" ")
                todo.append(x)
        elif e.kind == STRING:
            parts.append('"' + e.text.replace('"', '""') + '"')
        else:
            parts.append(quote(e.text) if e.kind == SYMBOL else e.text)
    return "".join(parts)


def sexpr_pos(e):
    return (e.line, e.col)
