#!/usr/bin/env python3
"""Print statistics for proof certificate files.

For each .hoproof file: verdict, step and trusted-step counts, rule
histogram, size in bytes and per step, the number of (context ...)
definitions, the number of (define ...) term definitions, and (with
--oracle) the oracle verdict per certificate.
"""

import argparse
from collections import Counter

from hosmt import sexpr
from hosmt.calculus import check_certificate, parse_certificate
from hosmt.oracle import check_certificate_oracle

CONTEXT = sexpr.Token(sexpr.SYMBOL, "context")
DEFINE = sexpr.Token(sexpr.SYMBOL, "define")


def describe(path, use_oracle):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    cert = parse_certificate(text, filename=path)
    report = check_certificate(cert)
    rules = Counter(s.rule for s in cert.steps)
    size = len(text.encode())
    heads = [e.items[:1] for e in sexpr.parse_text(text, path)
             if isinstance(e, sexpr.SList)]
    contexts = heads.count((CONTEXT,))
    print(f"{path}: {report.verdict}, {len(cert.steps)} steps"
          + (f", {report.trusted_count} trusted" if report.trusted_count
             else ""))
    print("  rules: " + ", ".join(f"{r} {n}" for r, n in rules.most_common()))
    print(f"  size: {size} bytes, {size / len(cert.steps):.1f} bytes/step, "
          f"{contexts} context lines")
    print(f"  terms: {heads.count((DEFINE,))} define lines")
    if report.first_failure is not None:
        print(f"  first failure: {report.first_failure.message}")
    if use_oracle and report.verdict != "invalid":
        verdicts = Counter(v for _, v in check_certificate_oracle(cert))
        print("  oracle: " + ", ".join(f"{v} {n}"
                                       for v, n in verdicts.most_common()))
    return report.verdict == "valid"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+", help="certificate files")
    ap.add_argument("--oracle", action="store_true",
                    help="cross-check steps with the encoding oracle")
    args = ap.parse_args()
    ok = True
    for path in args.files:
        ok &= describe(path, args.oracle)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
