"""Output checker: judges one command's exit code and stdout against the
facts its generator recorded, and confirms with oracles written here, not
taken from chaincore, that each instance is of the kind its slot asks
for.  Runs outside the timed region."""

from __future__ import annotations

import json
import math
from fractions import Fraction

from workloads import Command


def problems(cmd: Command, exit_code: int, stdout: str) -> list[str]:
    """Every way the output disagrees with expectation; empty when correct."""
    bad = _kind_problems(cmd.kind, cmd.table) if cmd.kind else []
    if exit_code != cmd.expect_exit:
        return bad + [f"exit code {exit_code}, expected {cmd.expect_exit}"]
    try:
        out = json.loads(stdout)
        if cmd.spec.command == "choquet":
            return bad + _choquet(cmd.facts, cmd.table, out)
        return bad + _CHECKS[cmd.spec.command](cmd.facts, out)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unexpected output shape: {exc!r}"]


def _sweep(facts: dict, out: dict) -> list[str]:
    (entry,) = out["instances"]
    n = facts["n"]
    bad = []
    if entry["n"] != n or entry["pairs"] != 3**n:
        bad.append(f"pairs {entry['pairs']} for n={entry['n']}, expected {3**n} for n={n}")
    if entry["route"] != facts["route"]:
        bad.append(f"route {entry['route']}, expected {facts['route']}")
    if facts["failing"]:
        if entry["failures"] == 0:
            bad.append("non-submodular instance passed every pair")
    elif entry["failures"] != 0 or not entry["unique"]:
        bad.append(f"{entry['failures']} failures, unique={entry['unique']}")
    return bad


def _check(facts: dict, out: dict) -> list[str]:
    bad = [] if out["n"] == facts["n"] else [f"n={out['n']}, expected {facts['n']}"]
    for name, want in facts["flags"].items():
        got = out["dual"][name[5:]] if name.startswith("dual.") else out[name]
        if got is not want:
            bad.append(f"{name}={got}, expected {want}")
    return bad


def _core(facts: dict, out: dict) -> list[str]:
    bad = []
    if out["kind"] != facts["kind"]:
        bad.append(f"kind {out['kind']}, expected {facts['kind']}")
    if out["passed"] is not facts["passed"]:
        bad.append(f"passed={out['passed']}, expected {facts['passed']}")
    if out["unique"] is not True:
        bad.append("uniqueness failed")
    return bad


def _choquet(facts: dict, table: tuple, out: dict) -> list[str]:
    bad = [] if out["passed"] is True else ["a choquet claim failed"]
    got = Fraction(str(out[facts["key"]]))
    want = choquet_sum(table, facts["f"])
    if got != want:
        bad.append(f"{facts['key']} {got}, expected {want}")
    return bad


def _embed(facts: dict, out: dict) -> list[str]:
    got = [r["via_intervals"] for r in out["recoveries"]]
    if got != facts["members"]:
        return [f"recovered members {got}, expected {facts['members']}"]
    return []


_CHECKS = {"sweep": _sweep, "check": _check, "core": _core, "embed": _embed}


def _kind_problems(kind: str, table: tuple) -> list[str]:
    """The instance is submodular (``sub``), supermodular but not
    submodular (``super``), or neither (``non``), as its slot requires."""
    # Scaled to integers by a common denominator: the same signs, and much
    # faster to compare than fractions.
    scale = math.lcm(*(x.denominator for x in table))
    table = tuple(x.numerator * (scale // x.denominator) for x in table)
    sub, sup = _pairwise(table, submodular=True), _pairwise(table, submodular=False)
    if not {"sub": sub, "super": sup and not sub, "non": not sub and not sup}[kind]:
        return [f"instance is not of kind {kind}: submodular={sub}, supermodular={sup}"]
    return []


def _pairwise(table: tuple, submodular: bool) -> bool:
    """Submodularity (or supermodularity) by pairwise increments."""
    size = len(table)
    for mask in range(size):
        outside = [1 << i for i in range(size.bit_length() - 1) if not mask & 1 << i]
        for x, i in enumerate(outside):
            for j in outside[x + 1:]:
                gap = table[mask | i] + table[mask | j] - table[mask | i | j] - table[mask]
                if gap < 0 if submodular else gap > 0:
                    return False
    return True


def choquet_sum(table: tuple, f: list[Fraction]) -> Fraction:
    """Choquet integral of f against a grounded capacity, by sorting the
    points on decreasing f and summing f times the increments of v along
    that order.  Ties may be broken either way."""
    order = sorted(range(len(f)), key=lambda p: f[p], reverse=True)
    total = Fraction(0)
    prev = 0
    for p in order:
        cur = prev | 1 << p
        total += f[p] * (table[cur] - table[prev])
        prev = cur
    return total
