"""Independent nameless (de Bruijn) term representation.

Used as an oracle for alpha-equivalence, capture-avoiding substitution, and
beta-normalization: converting a named core term throws the names away, so a
naive traversal over the nameless form cannot capture anything, and an
innermost evaluator over indices gives a reduction order independent of the
library's normal-order strategy.

Nameless terms are plain tuples:
    ("f", id)            free variable (by core id)
    ("b", k)             bound variable, k indices up
    ("c", name)          constant
    ("a", fn, arg)       application
    ("l", sort, body)    lambda
    ("q", kind, sort, body)   quantifier / choice binder
    ("t", (img, ...), body)   let (simultaneous, non-recursive)
"""

from hosmt.core import (App, Binder, Const, Let, Var, sort_str)


def to_db(t, bound=()):
    """Convert a core term; `bound` lists enclosing binder ids, innermost first."""
    if isinstance(t, Var):
        if t.id in bound:
            return ("b", bound.index(t.id))
        return ("f", t.id)
    if isinstance(t, Const):
        return ("c", t.name)
    if isinstance(t, App):
        return ("a", to_db(t.fn, bound), to_db(t.arg, bound))
    if isinstance(t, Binder) and t.kind == "lambda":
        return ("l", sort_str(t.var.sort), to_db(t.body, (t.var.id,) + bound))
    if isinstance(t, Binder):
        return ("q", t.kind, sort_str(t.var.sort),
                to_db(t.body, (t.var.id,) + bound))
    if isinstance(t, Let):
        imgs = tuple(to_db(img, bound) for _, img in t.bindings)
        inner = tuple(reversed([v.id for v, _ in t.bindings])) + bound
        return ("t", imgs, to_db(t.body, inner))
    raise TypeError(f"not a core term: {t!r}")


def db_subst(t, mapping):
    """Replace free markers by closed-context nameless images.

    Images come from to_db(img, ()) so they contain no dangling bound
    indices; plain replacement is therefore already capture-free.
    """
    tag = t[0]
    if tag == "f":
        return mapping.get(t[1], t)
    if tag in ("b", "c"):
        return t
    if tag == "a":
        return ("a", db_subst(t[1], mapping), db_subst(t[2], mapping))
    if tag == "l":
        return ("l", t[1], db_subst(t[2], mapping))
    if tag == "q":
        return ("q", t[1], t[2], db_subst(t[3], mapping))
    imgs = tuple(db_subst(i, mapping) for i in t[1])
    return ("t", imgs, db_subst(t[2], mapping))


def _shift(t, d, cutoff=0):
    tag = t[0]
    if tag == "b":
        return ("b", t[1] + d) if t[1] >= cutoff else t
    if tag in ("f", "c"):
        return t
    if tag == "a":
        return ("a", _shift(t[1], d, cutoff), _shift(t[2], d, cutoff))
    if tag == "l":
        return ("l", t[1], _shift(t[2], d, cutoff + 1))
    if tag == "q":
        return ("q", t[1], t[2], _shift(t[3], d, cutoff + 1))
    imgs = tuple(_shift(i, d, cutoff) for i in t[1])
    return ("t", imgs, _shift(t[2], d, cutoff + len(t[1])))


def _subst_idx(t, j, s):
    """Substitute s for bound index j, lowering indices above j."""
    tag = t[0]
    if tag == "b":
        if t[1] == j:
            return _shift(s, j)
        return ("b", t[1] - 1) if t[1] > j else t
    if tag in ("f", "c"):
        return t
    if tag == "a":
        return ("a", _subst_idx(t[1], j, s), _subst_idx(t[2], j, s))
    if tag == "l":
        return ("l", t[1], _subst_idx(t[2], j + 1, s))
    if tag == "q":
        return ("q", t[1], t[2], _subst_idx(t[3], j + 1, s))
    imgs = tuple(_subst_idx(i, j, s) for i in t[1])
    return ("t", imgs, _subst_idx(t[2], j + len(t[1]), s))


def db_nf(t):
    """Beta-normal form by innermost (applicative) reduction over indices.

    Lets are left in place, matching the library's normalizer.
    """
    tag = t[0]
    if tag in ("f", "b", "c"):
        return t
    if tag == "a":
        fn = db_nf(t[1])
        arg = db_nf(t[2])
        if fn[0] == "l":
            return db_nf(_subst_idx(fn[2], 0, arg))
        return ("a", fn, arg)
    if tag == "l":
        return ("l", t[1], db_nf(t[2]))
    if tag == "q":
        return ("q", t[1], t[2], db_nf(t[3]))
    return ("t", tuple(db_nf(i) for i in t[1]), db_nf(t[2]))
