"""Lexer, reader, surface parser, and printer."""

import pathlib
import random
import sys

import pytest

from hosmt import calculus, certprinter, processor, sexpr, surface, typecheck
from hosmt.elaborate import Elaborator
from hosmt.sexpr import LexError, ParseError, SList, SourceError, tokenize
from hosmt.surface import parse_script, print_term

from conftest import DATA, growth_exponent, parse_sort, parse_term
import sexpr_ref
import surface_ref

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def tree(text):
    """The s-expression that text reads as."""
    (e,) = sexpr.parse_text(text)
    return e


def token_texts(text):
    return [t.text for t in tokenize(text)]


class TestTokenize:
    def test_arrow_sort(self):
        assert token_texts("(-> Int Int)") == ["(", "->", "Int", "Int", ")"]

    def test_assert_line_token_count(self):
        line = "(assert (= (f (h 1)) ((g 1) 2)))"
        toks = tokenize(line)
        # independent count: parens plus whitespace-split atoms
        expected = line.count("(") + line.count(")") + len(
            line.replace("(", " ").replace(")", " ").split())
        assert len(toks) == expected == 20
        assert [t.text for t in toks[-4:]] == ["2", ")", ")", ")"]

    def test_comment_elision(self):
        assert token_texts("; comment\n(exit)") == ["(", "exit", ")"]

    def test_kinds(self):
        kinds = [t.kind for t in tokenize('x :kw 12 1.5 "a""b" |s p|')]
        assert kinds == ["symbol", "keyword", "numeral", "decimal",
                         "string", "symbol"]
        assert tokenize('"a""b"')[0].text == 'a"b'
        assert tokenize("|s p|")[0].text == "s p"

    def test_unterminated_string(self):
        with pytest.raises(LexError) as e:
            tokenize('(x "abc)')
        assert e.value.line == 1 and e.value.col == 4

    def test_unterminated_quoted_symbol(self):
        with pytest.raises(LexError):
            tokenize("|abc")

    def test_positions(self):
        toks = tokenize("(a\n  b)")
        assert (toks[2].line, toks[2].col) == (2, 3)

    def test_non_ascii_digits_are_symbols(self):
        # SMT-LIB numerals are [0-9]+: not str.isdigit(), not regex \d
        assert [(t.kind, t.text) for t in tokenize("² ٣ 1.٣")] == [
            ("symbol", "²"), ("symbol", "٣"), ("symbol", "1.٣")]


def reading_exponent(unit, n, repeat=15):
    """The growth exponent of `sexpr.parse_text` on `unit` repeated, over
    sizes that add up to 3n units."""
    return growth_exponent(sexpr.parse_text, lambda m: unit * m, n // 5,
                           repeat)


def _next_line_from_start(text, line, eol, start):
    # counts the newlines from the start of the text each time: quadratic
    return (1 + text.count("\n", 0, start), text.rfind("\n", 0, start) + 1,
            sexpr._eol(text, start))


class TestReader:
    @pytest.mark.parametrize("unit, n", [
        ("(f x) ", 5_000),
        ("(f x)\n", 10_000),
        ('(f "a\nb" |c\nd|)\n', 5_000),
    ], ids=["one-line", "short-lines", "multiline-strings"])
    def test_reading_is_linear(self, unit, n):
        # newlines are counted between a line's end and the next match
        # only: counting them from the start of the text is quadratic
        assert reading_exponent(unit, n) <= 1.3

    def test_quadratic_reading_fails_the_check(self, monkeypatch):
        # one timing of each size: the quadratic reader takes 0.9 s at 8m
        monkeypatch.setattr(sexpr, "_next_line", _next_line_from_start)
        assert reading_exponent("(f x)\n", 10_000, repeat=1) > 1.3

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            sexpr.parse_text("(a (b)")
        with pytest.raises(ParseError):
            sexpr.parse_text(")")

    def test_nesting(self):
        (e,) = sexpr.parse_text("(a (b c) d)")
        assert len(e.items) == 3

    def test_deep_nesting(self):
        n = 10_000
        (e,) = sexpr.parse_text("(" * n + "x" + ")" * n)
        depth = 0
        while isinstance(e, SList):
            (e,) = e.items
            depth += 1
        assert depth == n and e.text == "x"


def _with_positions(e):
    if isinstance(e, SList):
        return ("list", e.line, e.col, [_with_positions(x) for x in e.items])
    return (e.kind, e.text, e.line, e.col)


def _outcome(read, text):
    try:
        return read(text)
    except SourceError as err:
        return (type(err).__name__, err.message, err.line, err.col)


def _checked(text):
    """The assertions of a script, printed, or its error and message."""
    try:
        checked = typecheck.check_script(parse_script(text))
    except SourceError as err:
        return type(err).__name__, err.message
    return [certprinter.print_term(t) for t in checked.asserts]


def _new_tokens(text):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]


def _ref_tokens(text):
    return [(t.kind, t.text, t.line, t.col) for t in sexpr_ref.tokenize(text)]


def _new_trees(text):
    return [_with_positions(e) for e in sexpr.parse_text(text)]


def _ref_trees(text):
    return [_with_positions(e)
            for e in sexpr_ref.read_all(sexpr_ref.tokenize(text))]


class TestAgainstReference:
    """The one-pass scanner and stack reader against the character-loop
    lexer and recursive reader in tests/sexpr_ref.py."""

    def assert_same(self, text):
        assert _outcome(_new_tokens, text) == _outcome(_ref_tokens, text)
        new, ref = _outcome(_new_trees, text), _outcome(_ref_trees, text)
        if new != ref:
            # the one allowed difference: the reader stops at a stray )
            # before the scanner reaches a later unterminated lexeme,
            # which the reference lexer reported first
            assert new[:2] == ("ParseError", "unexpected )")
            assert ref[0] == "LexError" and ref[2:] > new[2:]

    @pytest.mark.parametrize("alphabet", [
        ' \t\r\n();|"abx:1.2;',
        # what reading a kind off the first character could get wrong:
        # leading zeros, non-ASCII digits, runs of dots and digits, `\f`
        # (a symbol character), and strings and quoted symbols across lines
        ("0", "007", "1.2.3", "1a", "1.", ".5", "²", "٣", "1.٣", "\f", "\n",
         " ", "(", ")", '"', "|", ":", ";", "x"),
    ], ids=["delimiters", "kinds"])
    def test_random_strings(self, alphabet):
        rng = random.Random(11)
        for _ in range(5000):
            self.assert_same("".join(rng.choice(alphabet)
                                     for _ in range(rng.randint(0, 30))))

    def test_data_files(self):
        for path in sorted(DATA.iterdir()):
            self.assert_same(path.read_text())


class TestParseSort:
    def test_arrow(self):
        s = parse_sort("(-> Int Int)")
        assert s == tree("(-> Int Int)")

    def test_nested_arrow(self):
        s = parse_sort("(-> (-> Int Int) Int)")
        assert s == tree("(-> (-> Int Int) Int)")

    def test_atom(self):
        assert parse_sort("Int") == tree("Int")

    def test_arrow_needs_two(self):
        with pytest.raises(ParseError):
            parse_sort("(-> Int)")

    def test_parenthesized_atom_tolerated(self):
        s = parse_sort("(Int)")
        assert s == tree("Int") and (s.line, s.col) == (1, 1)


class TestParseScript:
    def test_first_program(self):
        cmds = parse_script((DATA / "program1.smt2").read_text())
        assert len(cmds) == 6
        assert [c.items[0].text for c in cmds] == [
            "set-logic", "declare-fun", "declare-fun", "declare-fun",
            "assert", "exit"]
        assert cmds[0].items[1].text == "UFLIA"
        eq = cmds[4].items[1]
        # right-hand side of the equality is ((g 1) 2)
        rhs = eq.items[2]
        assert rhs == tree("((g 1) 2)")

    def test_second_program(self):
        cmds = parse_script((DATA / "program2.smt2").read_text())
        assertion = next(c for c in cmds if c.items[0].text == "assert")
        lhs = assertion.items[1].items[1]
        lam = lhs.items[0]
        assert lam.items[0].text == "lambda"
        assert [b.items[0].text for b in lam.items[1].items] == ["f", "x"]
        # the multi-term body `f x` is the application (f x), at the
        # lambda's position
        assert lam.items[2] == tree("(f x)")
        assert (lam.items[2].line, lam.items[2].col) == (lam.line, lam.col)
        assert lhs.items[1:] == (tree("g"), tree("1"))

    def test_empty_input(self):
        assert parse_script("") == []

    def test_unknown_command_preserved(self):
        cmds = parse_script("(check-sat)")
        assert cmds == [tree("(check-sat)")]
        assert surface.print_script(cmds) == "(check-sat)\n"

    def test_error_position(self):
        with pytest.raises(ParseError) as e:
            parse_script("(assert)")
        assert "1:1" in str(e.value)


class TestPrint:
    def test_lambda(self):
        t = parse_term("(lambda ((f (-> Int Int)) (x Int)) f x)")
        assert print_term(t) == "(lambda ((f (-> Int Int)) (x Int)) (f x))"

    def test_identifier(self):
        assert print_term(tree("g")) == "g"

    def test_curried_application(self):
        assert print_term(tree("( (g  1)\n 2)")) == "((g 1) 2)"

    def test_annotation_roundtrip(self):
        src = "(! (p a) :named hyp)"
        t = parse_term(src)
        assert print_term(t) == src
        assert parse_term(print_term(t)) == t

    def test_match_parses_and_prints(self):
        t = parse_term("(match s ((zero a) ((succ n) b)))")
        assert parse_term(print_term(t)) == t

    def test_ascription(self):
        t = parse_term("(as f (-> Int Int))")
        assert print_term(t) == "(as f (-> Int Int))"

    def test_script_roundtrip(self):
        # a script is rejected, or its printed text reads back to the same
        # commands and typechecks as it does
        texts = [(DATA / name).read_text()
                 for name in ("program1.smt2", "program2.smt2")]
        # multi-term lambda bodies that begin with a reserved word
        texts += ["(declare-fun x () Int)\n"
                  "(assert (= (lambda ((y Int)) let y) (lambda ((y Int)) y)))",
                  "(assert (= (lambda ((y Int)) as y Int) (lambda ((y Int)) y)))"]
        # commands that are rewritten into canonical form
        texts.append("(declare-sort U 01)(declare-const c U)"
                     "(define-fun h () U c)(check-sat)(exit)")
        for text in texts:
            cmds = _outcome(parse_script, text)
            if isinstance(cmds, tuple):
                continue
            printed = surface.print_script(cmds)
            assert parse_script(printed) == cmds
            assert _checked(printed) == _checked(text)


def _printed_parts(text):
    """(reader, s-expression) for each command, sort and term of a script
    printed by `parse`, and each declaration, :conclusion and define body
    of a certificate; each reader is the elaborator's syntax-only mode."""
    syntax = Elaborator()
    for e in sexpr.parse_text(text):
        word, *rest = e.items
        if word.text not in ("context", "define", "step"):
            yield lambda e: syntax.command(e, False), e
        if word.text == "assert":
            yield lambda e: syntax.term(e, False), rest[0]
        elif word.text == "declare-fun":
            for s in (*rest[1].items, rest[2]):
                yield syntax.check_sort, s
        elif word.text == "define-fun":
            if rest[1].items:
                yield syntax.binders, rest[1]
            yield syntax.check_sort, rest[2]
            yield lambda e: syntax.term(e, False), rest[3]
        elif word.text == "define":
            yield lambda e: syntax.term(e, False), rest[1]
        elif word.text == "step":
            k = [x.text for x in rest[1::2]].index(":conclusion")
            yield lambda e: syntax.term(e, False), rest[2 * k + 2]


# messages of syntax errors, which one module states: the one statement of
# the syntax
SYNTAX_MESSAGES = (
    "expected a nonempty binder list",
    "let takes a binding list and one body",
    "application needs at least one argument",
    "arrow sort needs at least two sorts",
    "declare-fun takes a name",
    "assert takes one term",
    "set-logic takes one symbol",
    "declare-sort arity has too many digits",
)


@pytest.mark.parametrize("message", SYNTAX_MESSAGES)
def test_syntax_message_in_one_module(message):
    src = pathlib.Path(sexpr.__file__).resolve().parent
    holders = [p.name for p in sorted(src.glob("*.py"))
               if message in p.read_text()]
    assert len(holders) == 1, holders


def test_printed_text_is_canonical():
    """The reader's tree of printed text comes back as the same object:
    reading printer output builds no second tree."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    import workloads

    scripts = [p.read_text() for p in sorted(DATA.glob("*.smt2"))]
    scripts += [workloads.make(name, 1).script
                for name in ("forall", "let", "batch")]
    texts = [p.read_text() for p in sorted(DATA.glob("*.hoproof"))]
    for script in scripts:
        texts.append(surface.print_script(parse_script(script)))
        checked = typecheck.check_script(parse_script(script))
        for t in checked.asserts:
            cert = processor.process(t, checked.signature).certificate
            texts.append(calculus.print_certificate(cert))
    count = 0
    for text in texts:
        for read, e in _printed_parts(text):
            assert read(e) is e, sexpr.sexpr_to_str(e)
            count += 1
    assert count > 1000


def test_random_roundtrip():
    """parse(print(t)) is structurally identical, over generated terms."""
    from hosmt.typecheck import erase
    import gen

    rng = random.Random(7)
    for _ in range(300):
        t = erase(gen.gen_closed(rng, depth=4))
        assert parse_term(print_term(t)) == t
