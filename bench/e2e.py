"""End-to-end rounds through the command line, the way a user runs it.

One round is: a set-up call (`check` on the declarations alone), then
`process <script> --proof out.hoproof`, `verify <certificates>` and
`verify <certificates> --oracle`, each a fresh interpreter started with
`python -m hosmt.cli`.  Calls run one at a time (a closed loop with one
client); the harness starts no threads or pools of its own.

Every call and every processed assertion is one operation.  A call fails
on a non-zero exit or a missing verdict line; an assertion fails when its
processed form differs from the reference.

On a 2-core virtual machine shared with other workloads, the speed of the
machine drifts by up to 2x within minutes, which moves every timing of a
run together.  So the calls are bracketed by a reference task: a fresh
interpreter running a fixed loop that imports nothing from `hosmt`, timed
before each round, before `verify`, before `verify --oracle` and after it.
A timing is reported both as measured and scaled by REFERENCE_S / (the mean
of the two reference times around it), i.e. as it would read at the
reference task's nominal speed.  No change to the program can move the
reference task.
"""

import os
import re
import signal
import subprocess
import sys
import time

import reference
from stats import Tally

REFERENCE_TASK = """
d = {}
for i in range(150000):
    k = (i % 97, i % 89)
    d[k] = d.get(k, 0) + len(str(i))
sorted(d.items())
"""
# the reference task's wall time at the nominal speed (2-core x86 machine)
REFERENCE_S = 0.15

# a call that takes longer has hung: the run must end within 180 seconds
CALL_TIMEOUT_S = 100

TIMINGS = ("setup_s", "process_s", "verify_s", "verify_oracle_s", "pipeline_s")


class Cli:
    """Runs the command-line program in a work directory and records
    each child's peak resident set size from `os.wait4`."""

    def __init__(self, root, workdir):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.workdir = workdir
        self.peak_rss_kb = 0

    def run(self, *args):
        """(seconds, exit code, stdout, stderr) of one call.

        A call still running after CALL_TIMEOUT_S is killed, and its exit
        code is the negative signal number.
        """
        out_path = os.path.join(self.workdir, "cli.out")
        err_path = os.path.join(self.workdir, "cli.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "hosmt.cli", *args], cwd=self.workdir,
                env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, _timed_out)
            signal.alarm(CALL_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path) as out, open(err_path) as err:
            return seconds, proc.returncode, out.read(), err.read()


def _timed_out(signum, frame):
    raise TimeoutError


def cert_names(count):
    """Certificate paths `process --proof out.hoproof` writes for `count`
    assertions (the documented out.N.hoproof route)."""
    if count == 1:
        return ["out.hoproof"]
    return [f"out.{i}.hoproof" for i in range(1, count + 1)]


def setup_call(cli, tally):
    seconds, code, out, err = cli.run("check", "decls.smt2")
    tally.record("cli check", code == 0 and "ok (0 assertion(s))" in out,
                 f"exit {code}: {err.strip()[:200]}")
    return seconds


def process_call(cli, wl, tally, verified):
    """Run `process --proof` and check every processed assertion.

    `verified` holds (index, line) pairs already matched to the reference,
    so repeated rounds compare text instead of re-reading it.
    Returns (seconds, certificate names, certificate bytes).
    """
    names = cert_names(len(wl.expected))
    for name in os.listdir(cli.workdir):
        if name.endswith(".hoproof"):
            os.remove(os.path.join(cli.workdir, name))
    seconds, code, out, err = cli.run("process", "input.smt2",
                                      "--proof", "out.hoproof")
    present = [n for n in names if os.path.exists(os.path.join(cli.workdir, n))]
    tally.record("cli process", code == 0 and len(present) == len(names),
                 f"exit {code}, {len(present)} of {len(names)} certificates: "
                 f"{err.strip()[:200]}")
    lines = [l for l in out.splitlines() if l.startswith("(assert")]
    for i, expected in enumerate(wl.expected):
        if i >= len(lines):
            tally.record("assertion", False, f"assertion {i + 1} missing")
            continue
        ok = (i, lines[i]) in verified
        if not ok and reference.matches(lines[i], expected):
            ok = True
            verified.add((i, lines[i]))
        tally.record("assertion", ok,
                     f"assertion {i + 1} differs: {lines[i][:200]}")
    size = sum(os.path.getsize(os.path.join(cli.workdir, n)) for n in present)
    return seconds, names, size


def verify_call(cli, names, tally, oracle):
    args = ["verify", *names] + (["--oracle"] if oracle else [])
    seconds, code, out, err = cli.run(*args)
    ok = code == 0
    for name in names:
        ok = ok and re.search(rf"^{re.escape(name)}: valid \(\d+ steps\)$",
                              out, re.M) is not None
        if oracle:
            ok = ok and f"{name}: oracle: all steps lambda-valid" in out
    what = "cli verify --oracle" if oracle else "cli verify"
    tally.record(what, ok, f"exit {code}: {(err or out).strip()[:200]}")
    return seconds


def write_inputs(wl, workdir):
    for name, text in (("decls.smt2", wl.decls), ("input.smt2", wl.script)):
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)


def reference_seconds(cli):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_TASK], check=True,
                   cwd=cli.workdir, env=cli.env, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def run(wl, seconds, root, workdir):
    """Rounds until `seconds` are used.

    Returns (scaled timings, measured timings, certificate bytes, tally,
    peak MB); the timings map each name in TIMINGS to one sample per round.
    """
    write_inputs(wl, workdir)
    cli = Cli(root, workdir)
    tally = Tally()
    verified = set()
    measured = {k: [] for k in TIMINGS}
    scaled = {k: [] for k in TIMINGS}
    cert_bytes = []
    start = time.perf_counter()
    before = reference_seconds(cli)
    last = 0.0
    while not cert_bytes or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        setup_s = setup_call(cli, tally)
        process_s, names, size = process_call(cli, wl, tally, verified)
        ref = [before, reference_seconds(cli)]
        verify_s = verify_call(cli, names, tally, oracle=False)
        ref.append(reference_seconds(cli))
        oracle_s = verify_call(cli, names, tally, oracle=True)
        ref.append(reference_seconds(cli))
        before = ref[-1]
        # speed over the calls between reference k and reference k + 1
        speed = [REFERENCE_S / ((a + b) / 2) for a, b in zip(ref, ref[1:])]
        row = {"setup_s": (setup_s, setup_s * speed[0]),
               "process_s": (process_s, process_s * speed[0]),
               "verify_s": (verify_s, verify_s * speed[1]),
               "verify_oracle_s": (oracle_s, oracle_s * speed[2])}
        row["pipeline_s"] = tuple(p + o for p, o in zip(row["process_s"],
                                                        row["verify_oracle_s"]))
        for name, (as_measured, at_nominal) in row.items():
            measured[name].append(as_measured)
            scaled[name].append(at_nominal)
        cert_bytes.append(size)
        last = time.perf_counter() - began
    return scaled, measured, cert_bytes, tally, cli.peak_rss_kb / 1024
