import contextlib
import gc
import math
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from hosmt import sexpr  # noqa: E402
from hosmt.elaborate import Elaborator  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent / "data"


@contextlib.contextmanager
def recursion_limit(n):
    """A higher recursion limit, for the recursive references and passes."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, n))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def best_times(f, terms, repeat):
    """The fastest of `repeat` calls f(t) for each t, taken in turns so that
    a drift of the machine's speed reaches every term, with the collector
    off: its pauses depend on what the rest of the run left on the heap.
    Calls are timed in this process's CPU time, which other processes on
    the machine do not add to."""
    best = [math.inf] * len(terms)
    gc.disable()
    try:
        for _ in range(repeat):
            for k, t in enumerate(terms):
                start = time.process_time()
                f(t)
                best[k] = min(best[k], time.process_time() - start)
    finally:
        gc.enable()
    return best


def _one(text, filename, what):
    exprs = sexpr.parse_text(text, filename)
    if len(exprs) != 1:
        raise sexpr.ParseError(f"expected exactly one {what}", 1, 1, filename)
    return exprs[0]


def parse_sort(text, filename="<input>"):
    """The one sort that `text` spells, checked and in canonical form."""
    return Elaborator(filename).check_sort(_one(text, filename, "sort"))


def parse_term(text, filename="<input>"):
    """The one term that `text` spells, checked and in canonical form."""
    return Elaborator(filename).term(_one(text, filename, "term"), False)
