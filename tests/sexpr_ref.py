"""Reference s-expression lexer and reader.

The character-at-a-time lexer and recursive reader `hosmt.sexpr` used
before its one-pass scanner.  They are kept unchanged as the reference the
scanner and its explicit-stack reader are compared with, apart from imports
and one rule: numerals and decimals are ASCII digits only, as in SMT-LIB
and in the scanner (`str.isdigit` alone also takes `²` and `٣`).  The reader recurses once per open parenthesis, so deep input
overflows the stack here.
"""

from hosmt.sexpr import (DECIMAL, KEYWORD, LPAR, NUMERAL, RPAR, STRING,
                         SYMBOL, LexError, ParseError, SList, Token)


def sexpr_pos(e):
    return (e.line, e.col)


# characters that terminate a simple symbol
_DELIMS = set(" \t\r\n();|\"")


def tokenize(text, filename="<input>"):
    """Split input into SMT-LIB tokens with positions attached."""
    tokens = []
    i, n = 0, len(text)
    line, col = 1, 1

    def advance(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance()
        elif c == ";":
            while i < n and text[i] != "\n":
                advance()
        elif c == "(":
            tokens.append(Token(LPAR, "(", line, col))
            advance()
        elif c == ")":
            tokens.append(Token(RPAR, ")", line, col))
            advance()
        elif c == "|":
            l0, c0 = line, col
            advance()
            start = i
            while i < n and text[i] != "|":
                advance()
            if i >= n:
                raise LexError("unterminated quoted symbol", l0, c0, filename)
            name = text[start:i]
            advance()
            tokens.append(Token(SYMBOL, name, l0, c0))
        elif c == '"':
            l0, c0 = line, col
            advance()
            parts = []
            while True:
                if i >= n:
                    raise LexError("unterminated string literal", l0, c0, filename)
                if text[i] == '"':
                    if i + 1 < n and text[i + 1] == '"':  # SMT-LIB "" escape
                        parts.append('"')
                        advance(2)
                    else:
                        advance()
                        break
                else:
                    parts.append(text[i])
                    advance()
            tokens.append(Token(STRING, "".join(parts), l0, c0))
        else:
            l0, c0 = line, col
            start = i
            while i < n and text[i] not in _DELIMS:
                advance()
            word = text[start:i]
            if word.startswith(":"):
                tokens.append(Token(KEYWORD, word, l0, c0))
            elif word.isascii() and word.isdigit():
                tokens.append(Token(NUMERAL, word, l0, c0))
            elif _is_decimal(word):
                tokens.append(Token(DECIMAL, word, l0, c0))
            else:
                tokens.append(Token(SYMBOL, word, l0, c0))
    return tokens


def _is_decimal(word):
    if not word.isascii() or word.count(".") != 1:
        return False
    a, b = word.split(".")
    return a.isdigit() and b.isdigit()


def read_all(tokens, filename="<input>"):
    """Read a token stream into a list of nested s-expressions.

    Atoms are Tokens, lists are SList nodes carrying the position of
    their opening parenthesis.
    """
    exprs = []
    pos = 0

    def read_one():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok.kind == LPAR:
            items = []
            while True:
                if pos >= len(tokens):
                    raise ParseError("unbalanced parentheses: missing )",
                                     tok.line, tok.col, filename)
                if tokens[pos].kind == RPAR:
                    pos += 1
                    return SList(tuple(items), tok.line, tok.col)
                items.append(read_one())
        if tok.kind == RPAR:
            raise ParseError("unexpected )", tok.line, tok.col, filename)
        return tok

    while pos < len(tokens):
        exprs.append(read_one())
    return exprs
