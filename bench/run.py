#!/usr/bin/env python3
"""hosmt benchmark: `process --proof`, `verify` and `verify --oracle`.

    python3 bench/run.py --workload forall|let|batch --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from `src/` and the generators from `tests/`.  With `--trace 0`
each round runs the command-line program once per call and the end-to-end
metrics are reported; with `--trace 1` the layers are called in-process and
the per-layer metrics are reported.  Metric names and units come from
BENCHMARK.json.  A table goes to standard output first, and the last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Scratch files go to `.bench_work/` in the checkout; the traced run leaves
its spans there as `spans-<workload>-<seed>.json`.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _parse_args(argv, spec):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def _end_to_end(wl, seconds, workdir):
    import e2e
    from stats import describe, summarize

    scaled, measured, cert_bytes, tally, peak_mb = e2e.run(
        wl, seconds, ROOT, workdir)
    for name in e2e.TIMINGS:
        print(describe(name, scaled[name], "s"))
    print(describe("cert_bytes", cert_bytes, "bytes"))
    print(f"{'peak_rss_mb':<34} max    {peak_mb:.6g} MB over {tally.attempted} "
          f"operations")
    print(f"{'failed_frac':<34} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations: {tally.base()})")
    print("timings above are scaled to the reference task's nominal speed; "
          "as measured:")
    for name in e2e.TIMINGS:
        print("  " + describe(name, measured[name], "s"))
    values = {name: summarize(v)["median"] for name, v in scaled.items()}
    values["cert_bytes"] = summarize(cert_bytes)["median"]
    values["peak_rss_mb"] = peak_mb
    values["ok_frac"] = 1 - tally.failed / tally.attempted
    return values, tally


def _traced(wl, seed, seconds, workdir, spec):
    import layers

    values, tally, spans, repeats = layers.run(wl, seed, seconds, workdir)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in units:
        print(f"{name:<34} {values[name]:.6g} {units[name]}")
    print(f"(medians over {repeats} traced passes at n={wl.size}; "
          f"failed {tally.failed} of {tally.attempted} operations: "
          f"{tally.base()})")
    path = os.path.join(ROOT, ".bench_work", f"spans-{wl.name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump(spans, fh)
    return values, tally


def main(argv=None):
    spec = _spec()
    args = _parse_args(argv, spec)
    for need in (os.path.join(SRC, "hosmt"), os.path.join(TESTS, "gen.py")):
        if not os.path.exists(need):
            print(f"bench: {need} not found; run inside a full checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [p for p in (HERE, SRC, TESTS) if p not in sys.path]
    import workloads

    wl = workloads.make(args.workload, args.seed)
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base)
    try:
        if args.trace:
            values, tally = _traced(wl, args.seed, args.seconds, workdir, spec)
            metrics = spec["per_layer"]
        else:
            values, tally = _end_to_end(wl, args.seconds, workdir)
            metrics = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in tally.messages:
        print(f"failure: {line}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
