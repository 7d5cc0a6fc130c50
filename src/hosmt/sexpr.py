"""SMT-LIB flavoured s-expression lexer and reader.

One compiled regex reads the input in a single left-to-right scan, one
match per token, except that a `(` and the symbol right after it, the head
of most lists, are one match, and so is a run of closing parentheses.
`findall` hands the loop each match with the whitespace before it, so that
the loop's sum of their lengths is its offset, and symbols and keywords,
most tokens, in groups of their own.  A `;` comment is one match that
yields nothing.  A token's kind comes from its first character: `(`, `)`,
`;`, `"` (a string), `|` (a quoted symbol) and `:` (a keyword) each start
one kind, and any other word is a symbol unless it is all ASCII digits,
with at most one inner `.`: a numeral or decimal, as in SMT-LIB.

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


# Group 1 is the whitespace before a match, and every other character
# starts a match: the matches tile the input.  Group 2 is a `(` and group 3
# a word that starts with neither `:` nor a digit, a symbol; the lookahead
# before them keeps both from being empty, and a list's `(` and its head
# symbol are one match.  Group 4 is a keyword and group 5 any other match.
# A quote or bar that cannot open a complete string or quoted symbol
# matches alone and is reported unterminated.  Strings take `""` as an
# escaped quote; the trailing lookahead keeps a match from ending between
# the two quotes of an escape.  No possessive quantifiers or atomic groups:
# Python 3.10 has neither.
_TOKEN = re.compile(r"""
    ([ \t\r\n]*)
    (?: (?=[^ \t\r\n);|":0-9])
        (\(?) ((?:[^ \t\r\n();|":0-9] [^ \t\r\n();|"]*)?)
      | (:[^ \t\r\n();|"]*) | (
    \)+
  | ;[^\n]*
  | \|[^|]*\|
  | "[^"]*(?:""[^"]*)*"(?!")
  | ["|]
  | [^ \t\r\n();|"]+
))""", re.VERBOSE)

_UNTERMINATED = {'"': "unterminated string literal",
                 "|": "unterminated quoted symbol"}
_new = object.__new__


def _word_kind(word):
    """The kind of a word that starts with none of `()";|`: numerals and
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


def _matches(text):
    """The groups of each match of text.  The search stops at the last
    character that is not whitespace: past it, each start would take the
    rest of the text as group 1 before it failed."""
    return _TOKEN.findall(text, 0, len(text.rstrip(" \t\r\n")))


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
    start = 0
    for space, *words in _matches(text):
        start += len(space)
        if start > eol:
            line, line_start, eol = _next_line(text, line, eol, start)
        for word in filter(None, words):
            col = start - line_start + 1
            start += len(word)
            c = word[0]
            if c == "(":
                yield LPAR, word, line, col
            elif c == ")":
                for i in range(len(word)):
                    yield RPAR, c, line, col + i
            elif c == '"' or c == "|":
                yield (*_quoted(word, line, col, filename), line, col)
            elif c != ";":
                yield _word_kind(word), word, line, col


def tokenize(text, filename="<input>"):
    """Split input into SMT-LIB tokens with positions attached."""
    return [Token(*t) for t in _scan(text, filename)]


def parse_text(text, filename="<input>"):
    """Read text into a list of nested s-expressions."""
    top = items = []
    # per unclosed parenthesis, the enclosing items, which end in its SList
    open_lists = []
    line, line_start, eol = 1, 0, _eol(text, 0)
    base = -1  # the offset before the current line: col = offset - base
    start = 0
    for space, lpar, symbol, keyword, word in _matches(text):
        start += len(space)
        if start > eol:
            line, line_start, eol = _next_line(text, line, eol, start)
            base = line_start - 1
        if lpar:
            node = _new(SList)  # its items are set at its )
            node.line = line
            node.col = start - base
            items.append(node)
            open_lists.append(items)
            items = []
            start += 1
            if not symbol:
                continue
        if symbol:
            kind = SYMBOL
        elif keyword:
            kind, symbol = KEYWORD, keyword
        else:
            c = word[0]
            if c == ")":
                for _ in word:
                    if not open_lists:
                        raise ParseError("unexpected )", line, start - base,
                                         filename)
                    outer = open_lists.pop()
                    outer[-1].items = tuple(items)
                    items = outer
                    start += 1
                continue
            if c == ";":
                start += len(word)
                continue
            kind, symbol = (_quoted(word, line, start - base, filename)
                            if c in '"|' else (_word_kind(word), word))
        # a Token without the call of its __init__
        token = _new(Token)
        token.kind = kind
        token.text = symbol
        token.line = line
        token.col = start - base
        items.append(token)
        start += len(word or symbol)
    if open_lists:
        node = open_lists[-1][-1]
        raise ParseError("unbalanced parentheses: missing )", node.line,
                         node.col, filename)
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
