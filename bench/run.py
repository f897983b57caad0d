"""chaincore benchmark: drives the real CLI, ``chaincore.cli.main(argv)``,
in-process with stdout captured, and checks every output.

The load is a closed loop with one client: one thread sends each command
only after the previous one returned.  Each invocation runs one workload
in a fresh process.  Inputs come from ``--seed``; the program sees only
the generated files.  Usage::

    python3 bench/run.py --workload sweep_sub --seed 1 --seconds 30 --trace 0

``--trace 0`` executes whole batches (see workloads.py) until at least
``--seconds`` of command time and MIN_COMMANDS commands have passed, and
reports the end-to-end metrics.  ``--trace 1`` runs the first
TRACE_BATCHES batches twice, in two fresh processes, once plain and once
with spans around the calls into each module (spans.py), checks that
both produce the same output bytes, and reports the per-layer metrics.

Times are scaled for the speed of the host at the moment they were
taken (see Batch).  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a summary with the unscaled times, the output digests, the
failed ratio and, when traced, the split of time across layers.  Exit
status 2 means the benchmark could not run, for instance because
``src/chaincore`` is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

#: Commands a timed run executes at least, so p90 has ten samples above it.
MIN_COMMANDS = 100

#: Batches in each pass of a traced run.
TRACE_BATCHES = 2

#: Seconds a child pass of a traced run may take.
PASS_TIMEOUT = 170

#: Nominal duration of one reference slice.  Every reported time is
#: scaled to a host on which the slice takes this long; see Batch.
REFERENCE_NS = 6_000_000


def reference_ns() -> int:
    """Time one fixed slice of exact rational arithmetic, the kind of work
    chaincore does, as a probe of how fast the host runs this process now."""
    start = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter_ns() - start


@dataclass
class Batch:
    """Timings of one batch.

    On a shared virtual machine, other tenants slow this process down by
    up to a factor of two (seen on a 2-vCPU Intel Xeon guest), for
    stretches of seconds to minutes, in CPU time as much as in wall time.
    A reference slice runs after every command, outside the timed region,
    and the batch's times are divided by the mean slice over REFERENCE_NS,
    so that runs made at different moments compare.  The unscaled figures
    are in the summary line.
    """

    setup_ns: int
    pairs: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    reference_ns: list[int] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.reference_ns) / REFERENCE_NS

    def scaled(self, ns: float) -> float:
        return ns / self.slowdown


@dataclass
class Outcome:
    """What one pass over the corpus observed."""

    batches: list[Batch] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    output_bytes: int = 0
    outputs: list[bytes] = field(default_factory=list)  # sha256 of each exit code and stdout

    @property
    def attempted(self) -> int:
        return len(self.outputs)

    @property
    def command_ns(self) -> int:
        return sum(sum(b.latencies_ns) for b in self.batches)

    @property
    def scaled_command_ns(self) -> float:
        return sum(b.scaled(sum(b.latencies_ns)) for b in self.batches)

    def digest(self, commands: int | None = None) -> str:
        """sha256 over the outputs of the first ``commands`` commands."""
        return hashlib.sha256(b"".join(self.outputs[:commands])).hexdigest()

    @property
    def pairs(self) -> int:
        return sum(b.pairs for b in self.batches)


def execute(main, argv: list[str]) -> tuple[int, str, str, int]:
    """One CLI call; returns exit code, stdout, stderr and its duration."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        duration = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), duration


def run_commands(main, commands, outcome: Outcome, batch: Batch, tracer=None) -> None:
    """Execute, probe the host after, and check each command in order."""
    from checks import problems

    for cmd in commands:
        if tracer is not None:
            tracer.command = outcome.attempted
        code, stdout, stderr, duration = execute(main, cmd.argv)
        if tracer is not None:
            tracer.command = None
        batch.reference_ns.append(reference_ns())
        batch.latencies_ns.append(duration)
        batch.pairs += cmd.pairs
        outcome.outputs.append(hashlib.sha256(f"{code}\n{stdout}".encode()).digest())
        outcome.output_bytes += len(stdout.encode())
        bad = problems(cmd, code, stdout)
        if bad:
            outcome.failures.append(f"{' '.join(cmd.argv)}: {'; '.join(bad)} {stderr.strip()}")


def run_pass(workload: str, seed: int, *, seconds: float | None, batches: int | None,
             tiny: bool, tracer=None) -> Outcome:
    """Warm up, then run whole batches of ``workload`` until the stop rule.

    Setup (generating and writing a batch), probing and checking happen
    outside the timed region; only the CLI calls are timed.
    """
    from chaincore import cli
    from workloads import batch_random, make_batch

    workdir = WORK / f"{workload}-{os.getpid()}"
    outcome = Outcome()
    try:
        # Warm-up: one tiny batch from a stream no measured batch uses.
        warm = make_batch(workload, batch_random(workload, seed, "warm-up"), workdir / "warm", True)
        run_commands(cli.main, warm, Outcome(), Batch(0))
        if tracer is not None:
            tracer.install()
        k = 0
        while True:
            start = time.perf_counter_ns()
            commands = make_batch(workload, batch_random(workload, seed, k), workdir / str(k), tiny)
            batch = Batch(time.perf_counter_ns() - start)
            run_commands(cli.main, commands, outcome, batch, tracer)
            outcome.batches.append(batch)
            shutil.rmtree(workdir / str(k))
            k += 1
            if batches is not None and k >= batches:
                break
            if (seconds is not None and outcome.command_ns >= seconds * 1e9
                    and outcome.attempted >= MIN_COMMANDS):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def _timings(batches: list[Batch], scale: bool) -> dict[str, float]:
    def t(b: Batch, ns: float) -> float:
        return b.scaled(ns) if scale else ns

    latencies_ms = [t(b, ns) / 1e6 for b in batches for ns in b.latencies_ns]
    return {
        "setup_s": statistics.median(t(b, b.setup_ns) / 1e9 for b in batches),
        "pairs_per_s": statistics.median(b.pairs / (t(b, sum(b.latencies_ns)) / 1e9)
                                         for b in batches),
        "latency_ms_p50": statistics.median(latencies_ms),
        "latency_ms_p90": statistics.quantiles(latencies_ms, n=10)[8],
    }


def end_to_end(workload: str, seed: int, seconds: float, tiny: bool) -> tuple[dict, dict]:
    o = run_pass(workload, seed, seconds=seconds, batches=None, tiny=tiny)
    units = {"setup_s": "s", "pairs_per_s": "1/s", "latency_ms_p50": "ms",
             "latency_ms_p90": "ms", "peak_rss_mb": "MB"}
    metrics = _timings(o.batches, scale=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    slowdowns = [b.slowdown for b in o.batches]
    summary = {
        "workload": workload,
        "seed": seed,
        "load": "closed loop, 1 client",
        "commands": o.attempted,
        "batches": len(o.batches),
        "pairs": o.pairs,
        "command_s": o.command_ns / 1e9,
        "failed_ratio": {"value": len(o.failures) / o.attempted, "unit": "ratio"},
        "unscaled": _timings(o.batches, scale=False),
        "host_slowdown": {"min": min(slowdowns), "median": statistics.median(slowdowns),
                          "max": max(slowdowns)},
        "output_sha256_first_100": o.digest(MIN_COMMANDS),
        "output_sha256": o.digest(),
        "failures": o.failures[:5],
    }
    result = {
        "correct": not o.failures,
        "attempted": o.attempted,
        "failed": len(o.failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return summary, result


def child_pass(workload: str, seed: int, traced: bool, tiny: bool) -> dict:
    """One pass of a traced run, in the process the coordinator started."""
    from spans import Tracer

    tracer = Tracer() if traced else None
    o = run_pass(workload, seed, seconds=None, batches=TRACE_BATCHES, tiny=tiny, tracer=tracer)
    out = {
        "attempted": o.attempted,
        "failures": o.failures,
        "scaled_command_ns": o.scaled_command_ns,
        "digest": o.digest(),
    }
    if tracer is not None:
        # Layer times are scaled for host speed like the end-to-end ones.
        out["metrics"] = tracer.metrics(o.pairs, o.output_bytes,
                                        o.scaled_command_ns / o.command_ns)
        out["split"] = tracer.self_split(o.command_ns)
        out["missing"] = tracer.missing
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


def traced_run(workload: str, seed: int, tiny: bool) -> tuple[dict, dict]:
    passes = {}
    for mode in ("plain", "traced"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--pass", mode] + (["--tiny"] if tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PASS_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} pass failed:\n{proc.stderr}")
        passes[mode] = json.loads(proc.stdout.splitlines()[-1])
    plain, traced = passes["plain"], passes["traced"]
    failures = plain["failures"] + traced["failures"]
    same_output = plain["digest"] == traced["digest"]
    if not same_output:
        failures.append("traced output differs from untraced output")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["metrics"].items()}
    metrics["trace.overhead_ratio"] = {
        "value": traced["scaled_command_ns"] / plain["scaled_command_ns"], "unit": "ratio"}
    summary = {
        "workload": workload,
        "seed": seed,
        "load": "closed loop, 1 client",
        "commands": traced["attempted"],
        "output_sha256": traced["digest"],
        "traced_output_matches": same_output,
        "trace_missing": traced["missing"],
        "spans_file": traced["spans_file"],
        "self_time_split": {k: round(v, 4) for k, v in traced["split"].items()},
        "failures": failures[:5],
    }
    result = {
        "correct": not failures,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }
    return summary, result


def load_chaincore() -> bool:
    """Put the checkout's own sources first on the path and import them."""
    package = ROOT / "src" / "chaincore"
    if not (package / "__init__.py").is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a full checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    import chaincore

    if Path(chaincore.__file__).resolve().parent != package.resolve():
        print(f"error: imported chaincore from {chaincore.__file__}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    if not load_chaincore():
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (for the benchmark's own tests)")
    parser.add_argument("--pass", dest="pass_mode", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pass_mode:
        print(json.dumps(child_pass(args.workload, args.seed, args.pass_mode == "traced",
                                    args.tiny)))
        return 0
    if args.trace:
        summary, result = traced_run(args.workload, args.seed, args.tiny)
    else:
        summary, result = end_to_end(args.workload, args.seed, args.seconds, args.tiny)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
