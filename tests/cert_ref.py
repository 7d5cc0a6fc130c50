"""The certificate printer that restates every step's whole context inline.

It is the reference for `hosmt.calculus.print_certificate`, which names each
context node and each repeated term once: a certificate printed either way
must parse to the same per-step verdicts.
"""

from hosmt import core, signature
from hosmt.calculus import EqJudgment
from hosmt.context import Fix

from print_ref import print_core


def _assign_names(cert):
    """Unique printed name per context-variable id across the certificate."""
    names = {}
    used = set(cert.signature.symbols) if cert.signature else set()
    used |= set(signature.CORE_SYMBOLS)

    def claim(v):
        if v.id in names:
            return
        name = v.name
        k = 1
        while name in used:
            name = f"{v.name}{k}"
            k += 1
        names[v.id] = name
        used.add(name)

    for step in cert.steps:
        if isinstance(step.conclusion, EqJudgment):
            for e in step.conclusion.ctx.entries():
                if isinstance(e, Fix):
                    claim(e.var)
                else:
                    for v, _ in e.pairs:
                        claim(v)
    return names


def _print_entry(e, names):
    if isinstance(e, Fix):
        return f"(fix {names[e.var.id]} {core.sort_str(e.var.sort)})"
    pairs = " ".join(
        f"({names[v.id]} {print_core(img, names)})" for v, img in e.pairs)
    return f"(map {pairs})"


def print_step(step, names):
    parts = [f"(step {step.id} :rule {step.rule}"]
    if step.premises:
        parts.append(":premises (" + " ".join(step.premises) + ")")
    if isinstance(step.conclusion, EqJudgment):
        c = step.conclusion
        entries = c.ctx.entries()
        if entries:
            parts.append(":context ("
                         + " ".join(_print_entry(e, names) for e in entries) + ")")
        if step.theory is not None:
            parts.append(f":theory {step.theory}")
        parts.append(f":conclusion (= {print_core(c.lhs, names)} "
                     f"{print_core(c.rhs, names)}))")
    else:
        if step.binding:
            bs = " ".join(f"({n} {print_core(t, names)})"
                          for n, t in step.binding)
            parts.append(f":binding ({bs})")
        parts.append(f":conclusion {print_core(step.conclusion, names)})")
    return " ".join(parts)


def print_certificate(cert):
    lines = []
    if cert.signature is not None:
        for name, arity in cert.signature.sorts.items():
            if name not in signature.BUILTIN_SORTS:
                lines.append(f"(declare-sort {name} {arity})")
        for name, sort in cert.signature.symbols.items():
            args = []
            s = sort
            while isinstance(s, core.Fun):
                args.append(s.dom)
                s = s.cod
            astr = " ".join(core.sort_str(a) for a in args)
            lines.append(f"(declare-fun {name} ({astr}) {core.sort_str(s)})")
    names = _assign_names(cert)
    for step in cert.steps:
        lines.append(print_step(step, names))
    return "\n".join(lines) + "\n"
