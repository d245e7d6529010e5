"""Benchmark of the ncworlds command line, one workload per process.

Usage:
    python3 bench/run.py --workload {em-sim,reduce,symbolic} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
Requests are argv lists passed to ``ncworlds.cli.main`` in this process with
standard output captured: a closed loop, one client, one thread. Whole
blocks of requests run until S seconds of requests have been timed and at
least 100 have completed. Every output is checked by an oracle in
``oracles.py``, which shares no code with ncworlds, and each oracle must
first reject corrupted copies of a real output.

Times are scaled to a reference machine speed measured between requests
(see ``calibrate.py``); the raw times are printed on the ``# raw`` line.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a fixed request list run
once untraced and once traced (see ``tracer.py``). A run record, and in
traced runs the spans, go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, wrapper_cost  # noqa: E402

MIN_REQUESTS = 100
PROBE_EVERY = 0.25    # seconds of requests between machine-speed probes
SETUP_SAMPLES = 11
DIGEST_BLOCKS = 16    # the request digest covers this many blocks of the stream
# layers whose call count is predicted to be 0 on a workload
BYPASSED = {
    "em-sim": ("quotient", "ncpoly", "parser", "constraints", "iterant"),
    "reduce": ("skewdiff", "iterant"),
    "symbolic": ("skewdiff",),
}


@dataclass
class Outcome:
    latency: float
    rc: object
    stdout: str
    stderr: str
    error: str | None = None


def execute(cli, req: workloads.Request) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(req.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed request, not a failed run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
    return Outcome(latency, rc, out.getvalue(), err.getvalue(), error)


def failure(req: workloads.Request, outcome: Outcome) -> str | None:
    """Why the request failed, or None when its output is right."""
    if outcome.error:
        return outcome.error
    if outcome.rc != 0:
        return f"exit code {outcome.rc}: {outcome.stderr.strip()[:200]}"
    try:
        oracles.check(req.family, req.spec, outcome.stdout)
    except oracles.Mismatch as exc:
        return f"oracle: {exc}"
    return None


def output_digest(outcome: Outcome) -> int:
    data = f"{outcome.rc!r}\0{outcome.stdout}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def from_checkout(module_file: str) -> bool:
    return Path(module_file).resolve().parent == (SRC / "ncworlds").resolve()


def self_check(cli, workload: workloads.Workload, seed: int) -> list[str]:
    """Each family's oracle accepts a real output and rejects corrupted copies."""
    problems = []
    first: dict[str, workloads.Request] = {}
    for req in next(workloads.blocks(workload, seed, stream="self-check")):
        first.setdefault(req.family, req)
    for family, req in sorted(first.items()):
        outcome = execute(cli, req)
        why = failure(req, outcome)
        if why:
            problems.append(f"{family}: real output rejected: {why}")
            continue
        for bad in oracles.CORRUPTERS[family](outcome.stdout):
            try:
                oracles.check(family, req.spec, bad)
            except oracles.Mismatch:
                continue
            problems.append(f"{family}: corrupted output accepted: {bad.strip()[:200]}")
    return problems


def measure_setup(workload: workloads.Workload) -> tuple[list[float], list[float], list[str]]:
    """Fresh-process set-up times, raw and scaled to the reference speed by
    the speed probes timed here before and after each child process.

    The first child process is not counted: it warms the file cache."""
    raw, scaled, problems = [], [], []
    probes = [calibrate.probe()]
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
             json.dumps(list(workload.warmup.argv))],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            problems.append(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
            break
        probes.append(calibrate.probe())
        child = json.loads(proc.stdout.splitlines()[-1])
        if not from_checkout(child["module"]):
            problems.append(f"set-up probe imported {child['module']}, not the checkout's program")
            break
        why = failure(workload.warmup, Outcome(0.0, child["rc"], child["stdout"], ""))
        if why:
            problems.append(f"set-up request: {why}")
        if i:
            raw.append(child["setup_s"])
            scaled.append(child["setup_s"] * calibrate.REFERENCE_S
                          / ((probes[-2] + probes[-1]) / 2))
    return raw, scaled, problems


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ncworlds").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def header(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(), "commit": commit(),
        "source_sha256": source_digest(),
    }


@dataclass
class Pass:
    """Requests run in whole blocks, with the speed probe timed before the
    first request and then after every PROBE_EVERY seconds of requests. A
    request's time is scaled by the mean of the probes around it.

    Each block's outputs are checked after its last probe and then dropped:
    a pass keeps a few numbers per request and the failures, so that what
    it holds does not grow the process's peak memory with the run."""
    latencies: array = field(default_factory=lambda: array("d"))  # raw, checked requests
    outputs: array = field(default_factory=lambda: array("Q"))    # digests of exit code and stdout
    failures: list = field(default_factory=list)                  # (request, why)
    scaled: array = field(default_factory=lambda: array("d"))     # latency at reference speed
    blocks: list = field(default_factory=list)      # block time at reference speed
    busy: float = 0.0                               # raw seconds spent in requests
    probes: list = field(default_factory=list)

    def run(self, cli, stream, stop, tracer=None) -> "Pass":
        self.probes.append(calibrate.probe())
        while not stop(self):
            block = next(stream)                 # generated outside the timed part
            outcomes: list[Outcome] = []
            pending: list[Outcome] = []
            block_time = 0.0
            for k, req in enumerate(block):
                if tracer is not None:
                    tracer.request = len(self.latencies) + k
                pending.append(execute(cli, req))
                outcomes.append(pending[-1])
                raw = sum(o.latency for o in pending)
                if raw >= PROBE_EVERY or k == len(block) - 1:
                    self.probes.append(calibrate.probe())
                    scale = calibrate.REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)
                    self.scaled.extend(o.latency * scale for o in pending)
                    self.busy += raw
                    block_time += raw * scale
                    pending = []
            self.blocks.append(block_time)
            for req, outcome in zip(block, outcomes):
                self.latencies.append(outcome.latency)
                self.outputs.append(output_digest(outcome))
                if why := failure(req, outcome):
                    self.failures.append((req.text(), why))
        return self


def end_to_end(run: Pass, block_size: int, setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_rps": (block_size / statistics.median(run.blocks), "req/s"),
        "latency_p50_ms": (statistics.median(run.scaled) * 1e3, "ms"),
        "latency_p90_ms": (nearest_rank(run.scaled, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_end_to_end(run: Pass, setup: list[float]) -> dict:
    raw = run.latencies
    return {
        "setup_s": statistics.median(setup) if setup else None,
        "throughput_rps": len(raw) / run.busy,
        "latency_p50_ms": statistics.median(raw) * 1e3,
        "latency_p90_ms": nearest_rank(raw, 0.9) * 1e3,
        "probe_median_s": statistics.median(run.probes),
    }


def traced_run(cli, workload, seed, problems) -> tuple[Pass, Pass, dict, Tracer]:
    """The same fixed request list, untraced and then traced."""
    def stop(p):
        return len(p.blocks) == workload.trace_blocks

    plain = Pass().run(cli, workloads.blocks(workload, seed), stop)
    tracer = Tracer()
    tracer.install()
    try:
        before = calibrate.probe()
        cost = wrapper_cost()
        speed = calibrate.REFERENCE_S / ((before + calibrate.probe()) / 2)
        tracer.cost = {key: value * speed for key, value in cost.items()}
        traced = Pass().run(cli, workloads.blocks(workload, seed), stop, tracer)
    finally:
        tracer.uninstall()
    if plain.outputs != traced.outputs:
        problems.append("traced outputs differ from untraced")
    scale = sum(traced.blocks) / traced.busy
    metrics = tracer.metrics(scale)
    metrics["trace.overhead_frac"] = (sum(traced.blocks) / sum(plain.blocks) - 1, "ratio")
    print("# trace wrapper cost per call at reference speed, us: "
          + json.dumps({k: round(v * 1e6, 4) for k, v in tracer.cost.items()}))
    print(f"# layer self times over the untraced pass's time: "
          f"{sum(tracer.net_self_s(scale)) / sum(plain.blocks):.3f}")
    for layer in BYPASSED[workload.name]:
        key = f"{layer}.calls"
        if metrics[key][0]:
            print(f"# prediction missed: {key} = {metrics[key][0]} on {workload.name}")
    return plain, traced, metrics, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "ncworlds" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'ncworlds'} is missing",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    head = header(args)
    problems: list[str] = []
    setup_raw: list[float] = []
    setup: list[float] = []
    if not args.trace:
        setup_raw, setup, problems = measure_setup(workload)
        if not setup:
            print(f"error: no set-up sample: {problems}", file=sys.stderr)
            return 1

    sys.path.insert(0, str(SRC))
    import ncworlds.cli as cli
    if not from_checkout(cli.__file__):
        print(f"error: imported {cli.__file__}, not the checkout's program", file=sys.stderr)
        return 2
    why = failure(workload.warmup, execute(cli, workload.warmup))
    if why:
        problems.append(f"warm-up request: {why}")
    problems += self_check(cli, workload, args.seed)

    tracer = None
    if args.trace:
        run, traced, metrics, tracer = traced_run(cli, workload, args.seed, problems)
        passes = (run, traced)
    else:
        def stop(p):
            return p.busy >= args.seconds and len(p.latencies) >= MIN_REQUESTS

        run = Pass().run(cli, workloads.blocks(workload, args.seed), stop)
        passes = (run,)
        metrics = end_to_end(run, len(run.latencies) // len(run.blocks), setup)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    # the requests of run are generated again from the seed rather than kept
    requests = [r for block in islice(workloads.blocks(workload, args.seed), len(run.blocks))
                for r in block]
    head["loadavg_end"] = os.getloadavg()
    stats = {
        "requests": attempted,
        "failed_frac": len(failures) / attempted,
        "p90_samples_beyond": len(run.latencies) - math.ceil(0.9 * len(run.latencies)),
        "request_digest": workloads.digest(
            [r for block in islice(workloads.blocks(workload, args.seed), DIGEST_BLOCKS)
             for r in block]),
        "repeat_share": workloads.repeat_share(requests),
        "setup_samples_s": setup_raw,
    }
    print("# header " + json.dumps(head))
    print("# stats " + json.dumps(stats))
    for text, why in failures[:5]:
        print(f"# failed: {text[:160]}: {why}")
    for p in problems:
        print(f"# problem: {p}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    raw = raw_end_to_end(run, setup_raw)
    print("# raw " + json.dumps(raw))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(header=head, stats=stats, metrics=metrics, raw=raw, probes_s=run.probes,
                  latencies=[x for p in passes for x in p.latencies],
                  failures=failures, problems=problems)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.tsv.gz")

    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
