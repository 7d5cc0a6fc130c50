#!/usr/bin/env python3
"""Random end-to-end pipeline demo.

Generates random well-sorted terms with the test suite's generator
(tests/gen.py), processes each one into a certificate, checks the
certificate, cross-checks every step with the encoding oracle, and prints
summary statistics.  The script finds `src/` and `tests/` from its own
path, so it runs from any working directory:

    python3 scripts/random_pipeline.py --count 300 --seed 3
"""

import argparse
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
sys.path[:0] = [p for p in (SRC, TESTS) if p not in sys.path]

from gen import BASE_SORTS, gen_term  # noqa: E402
from hosmt.calculus import check_certificate  # noqa: E402
from hosmt.oracle import check_certificate_oracle  # noqa: E402
from hosmt.processor import process  # noqa: E402


@dataclass
class Config:
    count: int = 200
    max_depth: int = 6
    seed: int = 0
    oracle: bool = True


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=Config.count)
    ap.add_argument("--max-depth", type=int, default=Config.max_depth)
    ap.add_argument("--seed", type=int, default=Config.seed)
    ap.add_argument("--no-oracle", dest="oracle", action="store_false")
    cfg = Config(**vars(ap.parse_args()))

    rng = random.Random(cfg.seed)
    rules = Counter()
    steps = []
    verdicts = Counter()
    oracle_ok = 0
    started = time.monotonic()
    for i in range(cfg.count):
        sort = rng.choice(BASE_SORTS)
        depth = rng.randint(1, cfg.max_depth)
        t = gen_term(rng, sort, depth)
        result = process(t)
        report = check_certificate(result.certificate)
        verdicts[report.verdict] += 1
        rules.update(s.rule for s in result.certificate.steps)
        steps.append(len(result.certificate.steps))
        if cfg.oracle:
            oracle_ok += all(v == "lambda-valid" for _, v in
                             check_certificate_oracle(result.certificate))
    elapsed = time.monotonic() - started

    print(f"{cfg.count} terms (seed {cfg.seed}, depth <= {cfg.max_depth}) "
          f"in {elapsed:.2f}s")
    print(f"verdicts: {dict(verdicts)}")
    print(f"steps per certificate: min {min(steps)} / "
          f"mean {sum(steps) / len(steps):.1f} / max {max(steps)}")
    print("rule histogram: "
          + ", ".join(f"{r} {n}" for r, n in rules.most_common()))
    if cfg.oracle:
        print(f"oracle: {oracle_ok}/{cfg.count} certificates "
              "fully lambda-valid")
    return 0 if verdicts.get("valid", 0) == cfg.count else 1


if __name__ == "__main__":
    raise SystemExit(main())
