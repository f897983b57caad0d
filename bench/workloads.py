"""Seeded corpus for the benchmark workloads.

Each workload is a fixed composition of commands called a batch.  A run
executes whole batches, so every run sees the same mix of command kinds,
sizes and capacity families; the seed changes only the instances, the
subsets and the order of the commands inside a batch.  The families are
fixed per slot because their costs differ: a random mix would add
seed-to-seed spread.  Batch ``k`` of seed ``s`` is built from its own
random stream, and the warm-up batch from a stream no measured batch
uses, so a cache kept across commands cannot hit on an input the warm-up
already saw.

Every command gets its own instance or family file, written before the
command runs and read by it exactly once.  Instances are built by
chaincore's own generators, so generating a batch is work of the program.
A command carries the facts the checker needs to judge its output; they
follow from the slot's kind, never from the program's answers, and the
independent oracles in checks.py confirm the instance is of that kind.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import chaincore as cc


@dataclass(frozen=True)
class Spec:
    """One slot of a batch.

    ``command`` is a CLI subcommand.  ``source`` is the capacity family:
    ``coverage`` and ``concave`` (a concave piecewise-linear distortion of
    a probability) are submodular, the two families random_submodular
    draws from; ``convex`` is a supermodular distortion; ``non`` is
    random_monotone_nonsubmodular; ``family`` is a generating family for
    ``embed``.  ``form`` is how the file states it: ``table`` lists the
    values, ``dual`` lists the values of the complement dual (so a
    submodular family becomes supermodular), and ``spec`` is a generator
    spec the CLI expands at load time.  ``size`` is the ground-set size,
    or the member count of a family.
    """

    command: str
    source: str
    size: int
    form: str = "table"
    float_mode: bool = False
    risk: bool = False


@dataclass
class Command:
    """A CLI invocation with what a correct answer must satisfy."""

    argv: list[str]
    spec: Spec
    expect_exit: int
    facts: dict = field(default_factory=dict)
    pairs: int = 0  # (A, B) pairs the command verifies
    kind: str | None = None  # sub, super or non, for an instance
    table: tuple = ()  # the instance's values, for the checker's oracles


def _both(command: str, size: int, **kw) -> tuple[Spec, Spec]:
    """One slot of each submodular family."""
    return Spec(command, "coverage", size, **kw), Spec(command, "concave", size, **kw)


# sweep_sub: `chaincore sweep` over a directory holding one instance.
# Three in five are submodular, one in five non-submodular (the failing
# claim path, exit 1), and one in five submodular in float mode (the
# tolerant compare path).  Work lands in measure (telescoping, the
# measure table, the lower-core scan, the claims) and in insert_chain;
# the dual route never runs.  Seven n=5 and three n=6 sweeps: the n=6
# ones are the top 30% of latencies, so p90 falls inside that group.
SWEEP_SUB = (
    *_both("sweep", 5) * 2,
    *_both("sweep", 6),
    Spec("sweep", "non", 5),
    Spec("sweep", "non", 6),
    *_both("sweep", 5, float_mode=True),
)

# sweep_super: the same sweep on complement duals, which are
# supermodular, so the CLI takes the inf route: the measure layer in
# upper-core mode plus the dual route (restrict, dual_transform and an
# inner sup run) on every pair.  A cache for the dual route shows here
# and must not move sweep_sub.  Two n=6 sweeps out of ten keep a batch
# under three seconds and put p90 inside the n=6 group.
SWEEP_SUPER = (
    *_both("sweep", 5, form="dual") * 3,
    *_both("sweep", 6, form="dual"),
    *_both("sweep", 5, form="dual", float_mode=True),
)

# queries: single commands on freshly loaded instances with n in 9..11,
# and embed on 16-point families with 9, 11 and 13 members.  The
# structural predicates (check, and the preconditions of core and
# choquet) and recover_generator (embed) take most of the time; the
# sweep machinery takes little.  The n=11 instances are generator specs,
# so the CLI builds their tables at load time; the rest list values.
# Choquet functions have ties, and half of the choquet calls use --risk.
# Latencies fall in bands: five calls at n=10 of like cost sit in the
# middle, so p50 falls inside them, and the two n=11 checks below the
# 13-member embed hold p90.
# The three core commands verify one (A, B) pair each, and pairs_per_s
# counts those, so on queries it is the batch throughput in units of
# three pairs per batch.
QUERIES = (
    Spec("check", "non", 9),
    Spec("core", "non", 9),
    Spec("embed", "family", 9),
    Spec("choquet", "coverage", 9),
    Spec("choquet", "concave", 9, risk=True),
    Spec("core", "concave", 10),
    *_both("choquet", 10),
    *_both("choquet", 10, risk=True),
    Spec("embed", "family", 11),
    Spec("check", "concave", 10, form="dual"),
    Spec("core", "convex", 11, form="spec"),
    Spec("check", "coverage", 11, form="spec"),
    Spec("check", "concave", 11, form="spec"),
    Spec("embed", "family", 13),
)

WORKLOADS = {"sweep_sub": SWEEP_SUB, "sweep_super": SWEEP_SUPER, "queries": QUERIES}

#: Points of every embed family.
FAMILY_POINTS = 16

#: Size reduction for the test-only tiny scale, per command.
TINY_SHRINK = {"sweep": 2, "check": 6, "core": 6, "choquet": 6, "embed": 8}
TINY_FAMILY_POINTS = 6


def batch_random(workload: str, seed: int, batch: int | str) -> random.Random:
    """The random stream of one batch; string seeds hash deterministically."""
    return random.Random(f"{workload}:{seed}:{batch}")


def make_batch(
    workload: str, rng: random.Random, directory: Path, tiny: bool = False
) -> list[Command]:
    """Generate and write one batch of ``workload`` into ``directory``."""
    specs = list(WORKLOADS[workload])
    rng.shuffle(specs)
    directory.mkdir(parents=True, exist_ok=True)
    commands = []
    for i, spec in enumerate(specs):
        if tiny:
            spec = replace(spec, size=spec.size - TINY_SHRINK[spec.command])
        commands.append(_make_command(spec, rng, directory / f"c{i:02d}", tiny))
    return commands


def _make_command(spec: Spec, rng: random.Random, stem: Path, tiny: bool) -> Command:
    prefix = ["--float"] if spec.float_mode else []
    if spec.command == "embed":
        points = TINY_FAMILY_POINTS if tiny else FAMILY_POINTS
        members = [rng.randrange(1, 1 << points) for _ in range(spec.size)]
        path = stem.with_suffix(".json")
        _write(path, {"n": points, "members": [_points_of(m) for m in members]})
        return Command(["embed", str(path)], spec, 0, {"members": members})

    n = spec.size
    obj, v, kind = _instance(spec, rng)
    table = tuple(v.table)
    if spec.command == "sweep":
        # sweep reads a directory, so each instance gets a directory of its own.
        stem.mkdir()
        _write(stem / "instance.json", obj)
        failing = kind == "non"
        facts = {"n": n, "route": "inf" if kind == "super" else "sup", "failing": failing}
        return Command([*prefix, "sweep", str(stem)], spec, int(failing), facts, 3**n,
                       kind, table)

    path = stem.with_suffix(".json")
    _write(path, obj)
    if spec.command == "check":
        facts = {"n": n, "flags": _guaranteed_flags(kind)}
        return Command([*prefix, "check", str(path)], spec, 0, facts, 0, kind, table)
    if spec.command == "core":
        b = rng.randrange(1 << n)
        facts = {"kind": "inf-attainment" if kind == "super" else "sup-attainment",
                 "passed": kind != "non"}
        return Command([*prefix, "core", str(path), "--B", str(b)], spec,
                       int(kind == "non"), facts, 1, kind, table)
    if spec.command == "choquet":
        # Values from a small range force ties once n exceeds it.
        f = [Fraction(rng.randint(-2, 3)) for _ in range(n)]
        argv = [*prefix, "choquet", str(path), "--f=" + ",".join(str(x) for x in f)]
        if spec.risk:
            argv.append("--risk")
            f = [-x for x in f]
        facts = {"key": "risk" if spec.risk else "integral", "f": f}
        return Command(argv, spec, 0, facts, 0, kind, table)
    raise ValueError(f"unknown command {spec.command!r}")


def _write(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _points_of(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def _guaranteed_flags(kind: str) -> dict:
    """Predicates the generator guarantees; the rest depend on the draw.

    The complement dual swaps submodularity and supermodularity and keeps
    monotonicity.  A non-submodular draw is monotone and grounded by
    construction and resampled until it fails submodularity.
    """
    flags = {"grounded": True, "monotone": True, "dual.monotone": True}
    if kind == "sub":
        flags.update({"submodular": True, "dual.supermodular": True})
    elif kind == "super":
        flags.update({"supermodular": True, "dual.submodular": True})
    else:
        flags["submodular"] = False
    return flags


#: Draws an instance slot makes before it keeps the last one; the
#: checker's oracle then reports a draw that is not of the slot's kind.
DRAWS = 100


def _instance(spec: Spec, rng: random.Random) -> tuple[dict, cc.SetFunction, str]:
    """An instance file body, the capacity, and whether it is ``sub``,
    ``super`` or ``non`` (neither).

    The capacity comes from chaincore's generators and is accepted through
    its predicates, the self-check random_submodular makes, so the set-up
    time is the program's.  The CLI takes the sup route whenever an
    instance is submodular, so a supermodular draw that happens to be
    modular is redrawn, and so is a non-submodular draw that happens to be
    supermodular: every super instance takes the inf route (and the dual
    route on every pair), and every non instance fails its claims.
    """
    n = spec.size
    if spec.source == "non":
        kind = "non"
    elif (spec.source == "convex") == (spec.form == "dual"):
        kind = "sub"
    else:
        kind = "super"
    for _ in range(DRAWS):
        if spec.source == "non":
            v = cc.random_monotone_nonsubmodular(n, rng.randrange(1 << 32))
            if not v.is_supermodular():
                break
            continue
        obj, v = _CAPACITIES[spec.source](rng, n)
        if spec.form == "dual":
            v = v.dual()
        if not (v.is_grounded() and v.is_monotone()):
            continue
        if kind == "sub" and v.is_submodular():
            break
        if kind == "super" and v.is_supermodular() and not v.is_submodular():
            break
    if spec.form != "spec":
        obj = v.to_json_dict()
    return obj, v, kind


def _coverage(rng: random.Random, n: int) -> tuple[dict, cc.SetFunction]:
    """Coverage capacity: always grounded, monotone and submodular."""
    items = n + rng.randint(1, 3)
    covers = [rng.randrange(1, 1 << items) for _ in range(n)]
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(items)]
    spec = {"n": n, "generator": "coverage", "covers": covers,
            "weights": [str(w) for w in weights]}
    return spec, cc.coverage_capacity(covers, weights)


def _distortion(rng: random.Random, n: int, concave: bool) -> tuple[dict, cc.SetFunction]:
    """v(S) = g(p(S)) for a piecewise-linear distortion g with two to four
    segments: concave g gives a submodular capacity, convex g a
    supermodular one."""
    raw = [rng.randint(1, 9) for _ in range(n)]
    p = [Fraction(r, sum(raw)) for r in raw]
    segments = rng.randint(2, 4)
    slopes = sorted((rng.randint(1, 12) for _ in range(segments)), reverse=concave)
    knots = [(Fraction(0), Fraction(0))]
    for k, s in enumerate(slopes, start=1):
        knots.append((Fraction(k, segments), knots[-1][1] + Fraction(s, sum(slopes))))
    spec = {"n": n, "generator": "distortion",
            "g": {"kind": "pwl", "knots": [[str(x), str(y)] for x, y in knots]},
            "p": [str(w) for w in p]}
    return spec, cc.distortion_capacity(cc.PiecewiseLinearDistortion(tuple(knots)), p)


_CAPACITIES = {
    "coverage": _coverage,
    "concave": lambda rng, n: _distortion(rng, n, concave=True),
    "convex": lambda rng, n: _distortion(rng, n, concave=False),
}
