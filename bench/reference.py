"""Reference answers the program under test does not produce.

A processed assertion is compared in de Bruijn form (`tests/nameless.py`),
so binder names do not matter.  The expected form is computed on the
de Bruijn side: lets are expanded here and the result is normalized by
`nameless.db_nf`.  The program's printed output is read back by the small
reader below rather than by `hosmt`'s own front end.
"""

import re

import nameless

_TOKEN = re.compile(r"[()]|[^\s()]+")
_BINDERS = ("lambda", "forall", "exists")


def _read(text):
    """Nested lists of atoms from one s-expression."""
    stack = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) < 2:
                raise ValueError(f"unbalanced ) in {text[:80]!r}")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"not one s-expression: {text[:80]!r}")
    return stack[0][0]


def _sort_text(e):
    if isinstance(e, str):
        return e
    return "(" + " ".join(_sort_text(x) for x in e) + ")"


def _db(e, bound):
    if isinstance(e, str):
        if e in bound:
            return ("b", bound.index(e))
        return ("c", e)
    if not e:
        raise ValueError("empty list in a term")
    head = e[0]
    if isinstance(head, str) and head in _BINDERS and len(e) == 3:
        (name, sort), = e[1]
        body = _db(e[2], (name,) + bound)
        if head == "lambda":
            return ("l", _sort_text(sort), body)
        return ("q", head, _sort_text(sort), body)
    out = _db(head, bound)
    for arg in e[1:]:
        out = ("a", out, _db(arg, bound))
    return out


def db_of_text(term_text):
    """De Bruijn form of a closed, let-free term printed in SMT-LIB syntax."""
    return _db(_read(term_text), ())


def matches(line, expected):
    """Whether an `(assert <term>)` line printed by the program has the
    expected de Bruijn form; malformed output does not match."""
    try:
        e = _read(line)
        return (isinstance(e, list) and len(e) == 2 and e[0] == "assert"
                and _db(e[1], ()) == expected)
    except ValueError:
        return False


def _expand(t):
    """Unfold every let of a de Bruijn term (`nameless` keeps them)."""
    tag = t[0]
    if tag in ("f", "b", "c"):
        return t
    if tag == "a":
        return ("a", _expand(t[1]), _expand(t[2]))
    if tag == "l":
        return ("l", t[1], _expand(t[2]))
    if tag == "q":
        return ("q", t[1], t[2], _expand(t[3]))
    imgs = tuple(_expand(i) for i in t[1])
    return _instantiate(_expand(t[2]), imgs, 0)


def _instantiate(t, imgs, depth):
    """Replace the let's own indices by its images under `depth` binders.

    Index j (counted from the let) names binding n-1-j; indices past the
    let's n bindings drop by n.  The term contains no lets.
    """
    tag = t[0]
    if tag == "b":
        k = t[1]
        if k < depth:
            return t
        n = len(imgs)
        if k - depth < n:
            return nameless._shift(imgs[n - 1 - (k - depth)], depth)
        return ("b", k - n)
    if tag in ("f", "c"):
        return t
    if tag == "a":
        return ("a", _instantiate(t[1], imgs, depth),
                _instantiate(t[2], imgs, depth))
    if tag == "l":
        return ("l", t[1], _instantiate(t[2], imgs, depth + 1))
    return ("q", t[1], t[2], _instantiate(t[3], imgs, depth + 1))


def expected_db(core_term):
    """Expected processed form of a generated core term: let-free, beta-normal."""
    return nameless.db_nf(_expand(nameless.to_db(core_term)))


def db_size(t):
    """Node count of a de Bruijn term (a let counts once, plus its parts)."""
    tag = t[0]
    if tag in ("f", "b", "c"):
        return 1
    if tag == "a":
        return 1 + db_size(t[1]) + db_size(t[2])
    if tag == "l":
        return 1 + db_size(t[2])
    if tag == "q":
        return 1 + db_size(t[3])
    return 1 + sum(db_size(i) for i in t[1]) + db_size(t[2])
