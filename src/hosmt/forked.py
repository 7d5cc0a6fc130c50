"""Worker processes for the fan-out of `hosmt.cli`.

`fan_out` cuts a call's independent items into shares, runs the first in
this process and forks a worker for each other one.  A worker runs each
item of its share, sends the list of results over a pipe, marshalled,
and exits without returning into its caller's code.  Only the calls that
fork import this module, so that the others do not compile it.
"""

import gc
import io
import marshal
import os
import sys


def fan_out(items, weights, k, run, lost, out, err):
    """Yield run(item, out, err) for each item, in order, as if each ran
    in this process when the caller reaches it.

    `weights` are the items' estimated work.  The items are cut into k
    contiguous shares of about equal weight.  This process runs the first
    share as the caller consumes it, and a worker the others, whose text
    is written to out and err when the caller reaches its item.  A worker
    leaves to this process the stdin item (`-`), which it alone reads, and
    the item on which run raised, after which it stops: run again here,
    the item raises as it would have in a serial run.  An item whose
    worker ended without its result gives lost(item, err).  Closing the
    generator kills and reaps every worker.
    """
    total, shares, start, acc = sum(weights), [], 0, 0
    for i, w in enumerate(weights):
        # a share ends before the item whose middle lies past its part
        if start < i and len(shares) < k - 1 and (
                (acc + w / 2) * k >= total * (len(shares) + 1)):
            shares.append(items[start:i])
            start = i
        acc += w
    shares.append(items[start:])
    workers = _start(shares[1:], run)
    try:
        for item in shares[0]:
            yield run(item, out, err)
        for share, worker in zip(shares[1:], workers):
            results = _results(worker) if worker else [None] * len(share)
            for i, item in enumerate(share):
                if i >= len(results):
                    yield lost(item, err)
                elif results[i] is None:
                    yield run(item, out, err)
                else:
                    value, text, message = results[i]
                    out.write(text)
                    err.write(message)
                    yield value
    finally:
        _stop(workers)


def _start(shares, run):
    """A worker for each share, as (pid, read end of its pipe), or None
    where none could be forked."""
    # nothing buffered may be written twice; frozen objects keep the
    # collector from touching, and so copying, the pages they share
    sys.stdout.flush()
    sys.stderr.flush()
    gc.freeze()
    workers = []
    try:
        for share in shares:
            workers.append(_fork(share, run))
    except BaseException:  # an interrupt between two forks
        _stop(workers)
        raise
    return workers


def _fork(share, run):
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:  # the worker never returns into its caller's code
        results = []
        for item in share:
            if item == "-":
                results.append(None)
                continue
            out, err = io.StringIO(), io.StringIO()
            try:
                value = run(item, out, err)
            except Exception:
                results.append(None)
                break
            results.append((value, out.getvalue(), err.getvalue()))
        with open(w, "wb") as fh:
            fh.write(marshal.dumps(results))
        status = 0
    finally:
        os._exit(status)


def _results(worker):
    """The list of results a worker sent; [] if it ended without sending
    them whole."""
    with open(worker[1], "rb", closefd=False) as fh:
        data = fh.read()
    try:
        return marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        return []


def _stop(workers):
    """Kill and reap the workers started: one whose results were read has
    ended, or is ending, on its own."""
    for worker in filter(None, workers):
        os.kill(worker[0], 9)  # SIGKILL
        os.close(worker[1])
        os.waitpid(worker[0], 0)
    gc.unfreeze()
