"""Machine-speed probe.

The machine this benchmark was built on drifts in speed by 20-30% over
minutes (shared cores), far more than the changes the benchmark must
detect. So every run times this fixed pure-Python job every fraction of a
second between requests, and scales the requests' times to a machine on
which the job takes ``REFERENCE_S``. Raw, unscaled times are reported next
to the scaled ones. The job uses no ncworlds code, so a change to the
program cannot move it.
"""

from __future__ import annotations

import argparse
import json
import time
from fractions import Fraction

REFERENCE_S = 0.012


def _job() -> None:
    # the program's staple operations: tuples as keys, sorting, dict
    # accumulation, Fraction arithmetic and string joins ...
    words = [tuple((i * 7 + j) % 5 for j in range(6)) for i in range(40)]
    acc: dict[tuple[int, ...], Fraction] = {}
    f = Fraction(0)
    for r in range(15):
        for w in words:
            key = tuple(sorted(w))
            acc[key] = acc.get(key, Fraction(0)) + Fraction(len(w), 1 + r % 3)
            f = f * Fraction(1, 2) + Fraction(r % 7, 1 + r % 5)
        ".".join(str(x) for x in words[r])
    # ... and, as in every small request, building and running an argparse
    # parser and dumping JSON
    for _ in range(3):
        top = argparse.ArgumentParser(prog="probe")
        sub = top.add_subparsers(dest="command", required=True)
        for name in ("alpha", "beta", "gamma", "delta", "epsilon", "zeta"):
            cmd = sub.add_parser(name, help=f"{name} help")
            cmd.add_argument("item")
            cmd.add_argument("--seed", type=int, default=0)
            cmd.add_argument("--size", type=int, default=3)
            cmd.add_argument("--json", action="store_true")
        top.parse_args(["gamma", "x y z", "--seed", "4", "--json"])
        json.dumps({"a": [1, 2, 3], "b": "x" * 20}, sort_keys=True)


def probe() -> float:
    """Seconds the job takes now: the best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _job()
        best = min(best, time.perf_counter() - t0)
    return best
