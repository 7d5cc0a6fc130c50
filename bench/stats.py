"""Sample summaries and the failed-operation tally."""

import statistics


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_kind = {}
        self.messages = []

    def record(self, kind, ok, message):
        self.attempted += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{kind}: {message}")

    def base(self):
        """The operations counted, e.g. `12 cli check, 480 assertion`."""
        return ", ".join(f"{n} {kind}" for kind, n in self.by_kind.items())


def summarize(values):
    """Median, and the highest percentile with at least ten samples beyond
    it (None when there are ten or fewer), with the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    below = n - 10
    high = None
    if below >= 1:
        high = (100 * below // n, ordered[below - 1])
    return {"median": statistics.median(ordered), "high": high, "n": n}


def describe(name, values, unit):
    s = summarize(values)
    high = (f"p{s['high'][0]} {s['high'][1]:.6g}" if s["high"]
            else "no percentile with 10 beyond")
    return (f"{name:<34} median {s['median']:.6g} {unit:<9} "
            f"{high:<32} n={s['n']}")
