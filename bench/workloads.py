"""Seeded request lists for the benchmark workloads.

A workload is an endless stream of blocks. Every block of a workload holds
the same mix of request families and sizes; the seed draws only the order
of the requests in a block and their contents (indices, letters, parameter
names, matrix entries, inner seeds). Fixing the size mix per block keeps the
latency distribution of a run close to the same from seed to seed, so runs
measure the program and not the luck of the draw. A run always executes
whole blocks.

Each request carries the argv list handed to ``ncworlds.cli.main`` and a
``spec`` with the parameters its oracle needs. The program sees only argv.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

PARAMS = ("m", "tau", "dt", "k", "Delta")

# (a, b, c, d) for P_i^a P_j^b Q^i^c Q^j^d; each reduces in under ~0.25 s
# at the seed commit (P_1^4 P_2^4 Q^1^4 Q^2^4 alone takes about 7 s).
PQ_SIZES = ((1, 1, 1, 1), (2, 1, 2, 1), (2, 2, 1, 1), (2, 2, 2, 2),
            (3, 1, 2, 2), (3, 2, 3, 2), (3, 3, 3, 3), (4, 1, 4, 1))
# (a, c) for (i hbar P_j)^a (p^e Q^j)^c
SCALED_SIZES = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4), (5, 5))
# letter multiplicities of the {...} requests, sizes 3 to 6
SYMM_SHAPES = ((3,), (1, 1, 1), (2, 1), (1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1))
# A reduce block holds 45 requests. At the seed commit four request kinds
# cost over 0.13 s and the next, (Q P)^7, about 0.08 s; with 45 requests the
# p90 rank falls in the middle of the (Q P)^7 latencies rather than on the
# gap between two kinds, where it would jump from run to run.
VERIFY_SUITES = ("iterant", "flat", "schroedinger", "gauge", "constraints-1",
                 "constraints-2", "constraints-3", "tower", "bianchi")


@dataclass
class Request:
    family: str
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict)

    def text(self) -> str:
        return json.dumps(self.argv)


def _reduce_req(family: str, expr: str, world: str, **spec) -> Request:
    return Request(family, ("reduce", expr, "--world", world, "--json"),
                   dict(spec, world=world))


# -- em-sim -------------------------------------------------------------------

def em_sim_request(seed: int, length: int, spread: int) -> Request:
    return Request("em-sim", ("em-sim", "--trials", "1", "--seed", str(seed),
                              "--length", str(length), "--range", str(spread), "--json"),
                   {"seed": seed, "trials": 1})


def em_sim_block(rng: random.Random) -> list[Request]:
    return [em_sim_request(rng.randrange(10**6), length, rng.randint(1, 5))
            for length in range(8, 17)]


# -- reduce -------------------------------------------------------------------

def qp_power(n: int, i: int) -> Request:
    """(Q^i P_i)^n in the flat world."""
    return _reduce_req("qp-power", " ".join([f"Q^{i} P_{i}"] * n), "flat", n=n, i=i)


def pq_product(a: int, b: int, c: int, d: int, i: int, j: int) -> Request:
    """P_i^a P_j^b Q^i^c Q^j^d in the flat world."""
    expr = " ".join([f"P_{i}"] * a + [f"P_{j}"] * b
                    + [f"Q^{i}"] * c + [f"Q^{j}"] * d)
    return _reduce_req("pq-product", expr, "flat", a=a, b=b, c=c, d=d, i=i, j=j)


def scaled_product(a: int, c: int, j: int, param: str, exp: int) -> Request:
    """(i hbar P_j)^a (param^exp Q^j)^c in the flat world."""
    ptext = param if exp == 1 else f"{param}^{exp}"
    expr = " ".join([f"(i hbar P_{j})"] * a + [f"({ptext} Q^{j})"] * c)
    return _reduce_req("scaled-product", expr, "flat", a=a, c=c, j=j, param=param, exp=exp)


def p_theta(n: int, j: int) -> Request:
    """P_j^n theta in the flat world with function symbols."""
    return _reduce_req("p-theta", " ".join([f"P_{j}"] * n + ["theta"]), "flat-fn",
                       n=n, j=j)


def abc_word(letters: str) -> Request:
    return _reduce_req("abc-word", " ".join(letters), "abc", letters=letters)


def symmetrized(letters: str) -> Request:
    return _reduce_req("symmetrize", "{" + " ".join(letters) + "}", "free", letters=letters)


def reduce_block(rng: random.Random) -> list[Request]:
    block = [qp_power(n, rng.randint(1, 3)) for n in range(2, 9)]
    for a, b, c, d in PQ_SIZES:
        i, j = rng.sample((1, 2, 3), 2)
        block.append(pq_product(a, b, c, d, i, j))
    for a, c in SCALED_SIZES:
        block.append(scaled_product(a, c, rng.randint(1, 3), rng.choice(PARAMS),
                                    rng.choice((1, -1, 2))))
    block += [p_theta(n, rng.randint(1, 3)) for n in range(1, 9)]
    block += [abc_word("".join(rng.choice("ABC") for _ in range(length)))
              for length in range(4, 13)]
    for shape in SYMM_SHAPES:
        letters = [x for x, mult in zip(rng.sample("THXY", len(shape)), shape)
                   for _ in range(mult)]
        rng.shuffle(letters)
        block.append(symmetrized("".join(letters)))
    return block


# -- symbolic -----------------------------------------------------------------

def tower(levels: int) -> Request:
    return Request("tower", ("tower", "--levels", str(levels), "--json"), {"levels": levels})


def decompose(rows: list[list[Fraction]]) -> Request:
    text = json.dumps([[str(x) for x in row] for row in rows])
    return Request("decompose", ("matrix", "decompose", text), {"rows": rows})


def verify(suite: str, seed: int) -> Request:
    return Request("verify", ("verify", suite, "--seed", str(seed), "--json"),
                   {"suite": suite, "seed": seed})


def symbolic_block(rng: random.Random) -> list[Request]:
    # 25 requests: the median then falls in the middle of one request kind
    # (verify constraints-1 at the seed commit), not between two kinds
    block = [tower(levels) for levels in range(3, 14)]
    for n in range(2, 7):
        block.append(decompose([[Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                 for _ in range(n)] for _ in range(n)]))
    block += [verify(suite, rng.randrange(10**6)) for suite in VERIFY_SUITES]
    return block


# -- registry -----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random], list[Request]]
    warmup: Request          # the set-up request; fixed, not drawn from the seed
    trace_blocks: int        # blocks in a traced run; fixed so its counts repeat


WORKLOADS = {
    "em-sim": Workload("em-sim", em_sim_block, em_sim_request(0, 12, 3), trace_blocks=6),
    "reduce": Workload("reduce", reduce_block, qp_power(5, 1), trace_blocks=2),
    "symbolic": Workload("symbolic", symbolic_block, tower(8), trace_blocks=3),
}


def blocks(workload: Workload, seed: int, stream: str = "run") -> Iterator[list[Request]]:
    """The workload's endless block stream for one seed and stream name."""
    rng = random.Random(f"{workload.name}:{seed}:{stream}")
    while True:
        block = workload.block(rng)
        rng.shuffle(block)
        yield block


def digest(requests: list[Request]) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(r.text().encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def repeat_share(requests: list[Request]) -> float:
    """Share of requests whose argv repeats that of an earlier request."""
    seen: set[str] = set()
    repeats = 0
    for r in requests:
        t = r.text()
        repeats += t in seen
        seen.add(t)
    return repeats / len(requests) if requests else 0.0
