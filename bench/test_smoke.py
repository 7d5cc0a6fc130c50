"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric of BENCHMARK.json is printed with its unit, that
a corrupted certificate is counted as a failed operation without crashing
the harness, that exact counts repeat across runs, and that the benchmark
refuses to run without the program's sources.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import e2e  # noqa: E402
import mutate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hosmt import calculus, sexpr  # noqa: E402
from stats import Tally  # noqa: E402

TINY = {"forall": 4, "let": 4, "batch": 4}
SPEC = run._spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def tiny_sizes(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TINY)


def bench(capsys, workload, trace, seed=1):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(capsys, workload, trace, key):
    table, result = bench(capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        row = [l for l in table if l.split()[0] == m["name"]]
        if m["name"] != "ok_frac":
            assert row and m["unit"] in row[0], m["name"]
    if trace == 0:
        assert any(l.startswith("failed_frac") for l in table)


def _invalid_text(cert, rng):
    """A mutated certificate that the checker rejects once printed."""
    while True:
        _, bad = mutate.random_mutation(cert, rng)
        text = calculus.print_certificate(bad)
        try:
            report = calculus.check_certificate(calculus.parse_certificate(text))
        except sexpr.SourceError:
            return text
        if report.verdict == "invalid":
            return text


def test_corrupted_certificate_is_counted(tmp_path):
    wl = workloads.make("let", 1)
    workdir = str(tmp_path)
    e2e.write_inputs(wl, workdir)
    cli = e2e.Cli(ROOT, workdir)
    tally = Tally()
    _, names, _ = e2e.process_call(cli, wl, tally, set())
    assert tally.failed == 0
    path = tmp_path / names[0]
    cert = calculus.parse_certificate(path.read_text())
    path.write_text(_invalid_text(cert, random.Random(0)))
    e2e.verify_call(cli, names, tally, oracle=False)
    e2e.verify_call(cli, names, tally, oracle=True)
    # process and the assertion pass; both verify calls fail
    assert (tally.attempted, tally.failed) == (4, 2)
    assert len(tally.messages) == 2


def test_exact_counts_repeat(capsys):
    for workload in NAMES:
        _, a = bench(capsys, workload, 0)
        _, b = bench(capsys, workload, 0)
        assert a["metrics"]["cert_bytes"] == b["metrics"]["cert_bytes"]
        _, a = bench(capsys, workload, 1)
        _, b = bench(capsys, workload, 1)
        for m in SPEC["per_layer"]:
            if m["name"].startswith("processor.steps"):
                assert a["metrics"][m["name"]] == b["metrics"][m["name"]]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
