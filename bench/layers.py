"""The traced run: each layer's public functions called in-process.

Spans are recorded around the calls into each layer from here; the program
itself is not instrumented.  Spans of one assertion share its index as
trace id (script-level front-end spans use "script"), and every span names
its parent, so a span's self time is its duration minus its children's.
The certificate reader inside `calculus.parse_certificate` is reached by
wrapping `hosmt.sexpr.parse_text` for the verify phase only.

Users start a fresh process per call, so each phase starts from a cleared
`context_subst` cache.
"""

import contextlib
import gc
import io
import math
import os
import statistics
import time
from collections import Counter

from hosmt import calculus, cli, context, oracle, processor, sexpr, surface, typecheck

import reference
import workloads
from stats import Tally

RULES = ("refl", "cong", "bind", "beta", "let", "trans")

# metric -> the span whose total it reports
SPAN_METRICS = {
    "sexpr.read_s": "sexpr.read",
    "surface.parse_s": "surface.parse",
    "typecheck.check_s": "typecheck.check",
    "typecheck.erase_s": "typecheck.erase",
    "sexpr.cert_read_s": "sexpr.cert_read",
    "calculus.parse_s": "calculus.parse",
    "calculus.print_s": "calculus.print",
    "calculus.check_s": "calculus.check",
    "processor.process_s": "processor.process",
    "oracle.check_s": "oracle.check",
}

# span metrics that also get a `.growth` exponent, as does cert_bytes
GROWTH = ("processor.process_s", "calculus.print_s", "calculus.parse_s",
          "calculus.check_s", "oracle.check_s")


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, trace=None):
        parent = self._open[-1] if self._open else None
        if trace is None and parent is not None:
            trace = parent["trace"]
        rec = {"id": len(self.spans), "name": name, "trace": trace,
               "parent": parent["id"] if parent else None}
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def totals(self):
        out = Counter()
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return out

    def self_totals(self):
        out = self.totals()
        for s in self.spans:
            if s["parent"] is not None:
                out[self.spans[s["parent"]]["name"]] -= s["end"] - s["start"]
        return out


class NullTracer:
    """Same calls, no spans: the untraced pass that prices the tracing."""

    def span(self, name, trace=None):
        return contextlib.nullcontext()


@contextlib.contextmanager
def _traced_reader(tracer):
    original = sexpr.parse_text

    def parse_text(text, filename="<input>"):
        with tracer.span("sexpr.cert_read"):
            return original(text, filename)

    sexpr.parse_text = parse_text
    try:
        yield
    finally:
        sexpr.parse_text = original


def _subst_info():
    info = context.context_subst.cache_info()
    return {"hits": info.hits, "calls": info.hits + info.misses,
            "entries": info.currsize}


def run_pass(wl, tr, tally):
    """Process, print, parse, check and oracle-check every assertion.

    Returns the pass's wall time, certificate texts and counters.
    """
    gc.collect()
    start = time.perf_counter()
    context.context_subst.cache_clear()
    with tr.span("sexpr.read", "script"):
        exprs = sexpr.parse_text(wl.script, "input.smt2")
    with tr.span("surface.parse", "script"):
        cmds = [surface.command_from_sexpr(e, "input.smt2") for e in exprs]
    with tr.span("typecheck.check", "script"):
        checked = typecheck.check_script(cmds, "input.smt2")
    rules, texts = Counter(), []
    for i, term in enumerate(checked.asserts, 1):
        with tr.span("processor.process", i):
            result = processor.process(term, checked.signature)
        with tr.span("typecheck.erase", i):
            line = surface.print_command(
                surface.CAssert(typecheck.erase(result.term)))
        with tr.span("calculus.print", i):
            texts.append(calculus.print_certificate(result.certificate))
        rules.update(s.rule for s in result.certificate.steps)
        ok = (i <= len(wl.expected)
              and reference.matches(line, wl.expected[i - 1]))
        tally.record("assertion", ok, f"assertion {i} differs: {line[:200]}")
    if len(checked.asserts) != len(wl.expected):
        tally.record("assertion count", False,
                     f"{len(checked.asserts)} assertions, expected "
                     f"{len(wl.expected)}")
    phases = [_subst_info()]
    context.context_subst.cache_clear()
    judgments = 0
    reader = _traced_reader(tr) if isinstance(tr, Tracer) else contextlib.nullcontext()
    with reader:
        for i, text in enumerate(texts, 1):
            with tr.span("calculus.parse", i):
                cert = calculus.parse_certificate(text, filename=f"out.{i}.hoproof")
            with tr.span("calculus.check", i):
                report = calculus.check_certificate(cert)
            tally.record("check_certificate", report.verdict == "valid",
                         f"certificate {i} is {report.verdict}")
            with tr.span("oracle.check", i):
                verdicts = oracle.check_certificate_oracle(cert)
            judgments += len(verdicts)
            tally.record("oracle", all(v == "lambda-valid" for _, v in verdicts),
                         f"certificate {i}: oracle disagrees")
    phases.append(_subst_info())
    return {"seconds": time.perf_counter() - start, "texts": texts,
            "rules": rules, "judgments": judgments, "subst": phases}


def pool_seconds(paths, tally):
    """One multi-file `verify` call minus the same files one call each,
    both in this process (the pool is the only difference)."""
    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        tally.record("cli.main verify", code == 0, f"exit {code}")
        return seconds

    gc.collect()
    context.context_subst.cache_clear()
    together = call(["verify", *paths])
    gc.collect()
    context.context_subst.cache_clear()
    apart = sum(call(["verify", p]) for p in paths)
    return together - apart


def _growth(full, half, n_full, n_half):
    """The exponent k in time ~ n^k between sizes n_half and n_full."""
    return math.log(full / half) / math.log(n_full / n_half)


def run(wl, seed, seconds, workdir):
    """Repeat the traced pass, an untraced pass, a half-size pass and the
    pool comparison until `seconds` are used.  Returns (metrics, tally,
    spans of the last traced pass, repeats)."""
    half_wl = workloads.make(wl.name, seed, wl.size // 2)
    tally = Tally()
    reps = []
    start = time.perf_counter()
    run_pass(half_wl, NullTracer(), tally)  # warms every code path
    last = 0.0
    while not reps or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        tr, tr_half = Tracer(), Tracer()
        passes = [("full", wl, tr), ("plain", wl, NullTracer()),
                  ("half", half_wl, tr_half)]
        # each kind of pass takes each place in the order equally often
        k = len(reps) % len(passes)
        done = {kind: run_pass(w, t, tally)
                for kind, w, t in passes[k:] + passes[:k]}
        full, plain, half = done["full"], done["plain"], done["half"]
        paths = []
        for i, text in enumerate(full["texts"], 1):
            paths.append(os.path.join(workdir, f"cert.{i}.hoproof"))
            with open(paths[-1], "w") as fh:
                fh.write(text)
        reps.append({"full": full, "plain": plain, "half": half,
                     "totals": tr.totals(), "self": tr.self_totals(),
                     "half_totals": tr_half.totals(),
                     "pool": pool_seconds(paths, tally)})
        last = time.perf_counter() - began

    def med(f):
        return statistics.median(f(r) for r in reps)

    first = reps[0]["full"]
    cert_bytes = sum(len(t.encode()) for t in first["texts"])
    half_bytes = sum(len(t.encode()) for t in reps[0]["half"]["texts"])
    steps = sum(first["rules"].values())
    tokens = sum(len(sexpr.tokenize(t)) for t in first["texts"])
    m = {name: med(lambda r, s=span: r["totals"][s])
         for name, span in SPAN_METRICS.items()}
    m["calculus.parse_self_s"] = med(lambda r: r["self"]["calculus.parse"])
    m["sexpr.cert_tokens"] = tokens
    m["sexpr.tokens_per_s"] = tokens / m["sexpr.cert_read_s"]
    m["calculus.cert_bytes_per_step"] = cert_bytes / steps
    m["calculus.check_steps_per_s"] = steps / m["calculus.check_s"]
    m["processor.steps"] = steps
    for rule in RULES:
        m[f"processor.steps.{rule}"] = first["rules"][rule]
    calls = sum(p["calls"] for p in first["subst"])
    m["context.subst_calls"] = calls
    m["context.subst_hit_ratio"] = (sum(p["hits"] for p in first["subst"])
                                    / calls if calls else 0.0)
    m["context.subst_cache_entries"] = max(p["entries"] for p in first["subst"])
    m["oracle.judgments"] = first["judgments"]
    m["oracle.judgments_per_s"] = first["judgments"] / m["oracle.check_s"]
    m["cli.pool_s"] = med(lambda r: r["pool"])
    for name in GROWTH:
        span = SPAN_METRICS[name]
        m[f"{name}.growth"] = _growth(
            m[name], med(lambda r, s=span: r["half_totals"][s]),
            wl.size, half_wl.size)
    m["cert_bytes.growth"] = _growth(cert_bytes, half_bytes,
                                     wl.size, half_wl.size)
    m["trace.overhead_s"] = (med(lambda r: r["full"]["seconds"])
                             - med(lambda r: r["plain"]["seconds"]))
    return m, tally, tr.spans, len(reps)
