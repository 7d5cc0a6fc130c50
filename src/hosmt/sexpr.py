"""SMT-LIB flavoured s-expression lexer and reader.

One compiled regex reads the input in a single left-to-right scan, one
match per token.  Whitespace matches nothing, so the regex's own search
skips it; a `;` comment is one match that yields nothing.  A token's kind
comes from its first character: `(`, `)`, `;`, `"` (a string), `|` (a
quoted symbol) and `:` (a keyword) each start one kind, and any other word
is a symbol unless it is all ASCII digits, with at most one inner `.`: a
numeral or decimal, as in SMT-LIB.

Every token carries its 1-based line and column, so each diagnostic
downstream can point into the offending lexeme.  The scan keeps the offset
of the current line's end and counts newlines only when a match starts
past it, between that end and the match: most tokens pay one comparison,
and the count stays linear however the lines fall.

`parse_text` builds nested lists in the scan loop itself, with an explicit
stack, so nesting depth is bounded by memory, not by the Python call
stack.  Atoms are `Token`s; lists are `SList` nodes at the position of
their opening parenthesis.  `tokenize` lists the same tokens, parentheses
included.
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


# Whitespace matches no alternative, so `finditer`'s own search skips it,
# and every other character starts a match: consecutive matches and the
# whitespace between them tile the input.  A token's kind is read off its
# first character.  A quote or bar that cannot open a complete string or
# quoted symbol matches alone and is reported unterminated.  Strings take
# `""` as an escaped quote; the trailing lookahead keeps a match from ending
# between the two quotes of an escape.  No possessive quantifiers or atomic
# groups: Python 3.10 has neither.
_TOKEN = re.compile(r"""
    [()]
  | ;[^\n]*
  | \|[^|]*\|
  | "[^"]*(?:""[^"]*)*"(?!")
  | ["|]
  | [^ \t\r\n();|"]+
""", re.VERBOSE)

_UNTERMINATED = {'"': "unterminated string literal",
                 "|": "unterminated quoted symbol"}
_SPECIAL = frozenset(';"|')  # first characters of comments and quoted tokens
_KINDED = frozenset(":0123456789")  # words that may not be symbols


def _word_kind(word):
    """The kind of a match that starts with none of `()";|`: numerals and
    decimals are ASCII digits only, as in SMT-LIB."""
    c = word[0]
    if c == ":":
        return KEYWORD
    if "0" <= c <= "9" and word.isascii():
        if word.isdigit():
            return NUMERAL
        whole, _, frac = word.partition(".")
        if whole.isdigit() and frac.isdigit():
            return DECIMAL
    return SYMBOL


def _quoted(word, line, col, filename):
    """(kind, text) of a match that starts with a quote or a bar; a lone
    one is unterminated."""
    if len(word) == 1:
        raise LexError(_UNTERMINATED[word], line, col, filename)
    if word[0] == '"':
        return STRING, word[1:-1].replace('""', '"')
    return SYMBOL, word[1:-1]


def _eol(text, i):
    """The offset of the newline that ends the line holding offset i, or
    len(text) on the last line."""
    eol = text.find("\n", i)
    return eol if eol >= 0 else len(text)


def _next_line(text, line, eol, start):
    """(line, line_start, eol) of the line holding offset start, which lies
    past eol, the end of line `line`.  Only the text between the two is
    searched, so a scan that calls this as it crosses lines stays linear."""
    return (line + text.count("\n", eol, start),
            text.rfind("\n", eol, start) + 1, _eol(text, start))


def _scan(text, filename):
    """Yield (kind, text, line, col) for each token of text."""
    line, line_start, eol = 1, 0, _eol(text, 0)
    for m in _TOKEN.finditer(text):
        start = m.start()
        if start > eol:
            line, line_start, eol = _next_line(text, line, eol, start)
        word = m[0]
        c = word[0]
        col = start - line_start + 1
        if c == "(":
            yield LPAR, word, line, col
        elif c == ")":
            yield RPAR, word, line, col
        elif c == ";":
            continue
        elif c == '"' or c == "|":
            yield (*_quoted(word, line, col, filename), line, col)
        else:
            yield _word_kind(word), word, line, col


def tokenize(text, filename="<input>"):
    """Split input into SMT-LIB tokens with positions attached."""
    return [Token(*t) for t in _scan(text, filename)]


def parse_text(text, filename="<input>"):
    """Read text into a list of nested s-expressions."""
    top = items = []
    open_lists = []  # (enclosing items, line, col) per unclosed parenthesis
    line, line_start, eol = 1, 0, _eol(text, 0)
    for m in _TOKEN.finditer(text):
        start = m.start()
        if start > eol:
            line, line_start, eol = _next_line(text, line, eol, start)
        word = m[0]
        c = word[0]
        if c == "(":
            open_lists.append((items, line, start - line_start + 1))
            items = []
        elif c == ")":
            if not open_lists:
                raise ParseError("unexpected )", line, start - line_start + 1,
                                 filename)
            outer, l0, c0 = open_lists.pop()
            outer.append(SList(tuple(items), l0, c0))
            items = outer
        elif c not in _SPECIAL:
            items.append(Token(SYMBOL if c not in _KINDED else _word_kind(word),
                               word, line, start - line_start + 1))
        elif c != ";":
            col = start - line_start + 1
            items.append(Token(*_quoted(word, line, col, filename), line, col))
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
