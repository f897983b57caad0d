"""Spans around the calls into chaincore's public functions, recorded
from outside the package by wrapping them.

Each target is replaced in every ``chaincore`` module namespace that
holds it (methods on their class), so names imported across modules,
and identity checks between them, stay consistent.  A target missing
from the code under test is reported and skipped.  Spans are recorded
only while a command is active and kept in memory; each is
``(target, start ns, end ns, parent span, command id)``.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

#: (group, module, attribute path).  A group is the prefix of the
#: per-layer metrics its targets feed; several targets may share one.
TARGETS = (
    ("cli.load_instance", "chaincore.cli", "load_instance"),
    ("setfun.predicates", "chaincore.setfun", "SetFunction.is_grounded"),
    ("setfun.predicates", "chaincore.setfun", "SetFunction.is_monotone"),
    ("setfun.predicates", "chaincore.setfun", "SetFunction.is_submodular"),
    ("setfun.predicates", "chaincore.setfun", "SetFunction.is_supermodular"),
    ("setfun.restrict", "chaincore.setfun", "SetFunction.restrict"),
    ("setfun.dual_transform", "chaincore.setfun", "dual_transform"),
    ("chains.insert_chain", "chaincore.chains", "insert_chain"),
    ("measure.chain_measure", "chaincore.measure", "chain_measure"),
    ("measure.table", "chaincore.measure", "AtomicMeasure.table"),
    ("measure.verify_sup", "chaincore.measure", "verify_sup_representation"),
    ("measure.verify_inf", "chaincore.measure", "verify_inf_representation"),
    ("measure.verify_uniqueness", "chaincore.measure", "verify_uniqueness"),
    ("choquet.verify_choquet_sup", "chaincore.choquet", "verify_choquet_sup"),
    ("choquet.choquet_integral", "chaincore.choquet", "choquet_integral"),
    ("embed.recover_generator", "chaincore.embed", "recover_generator"),
    ("embed.ternary_digit", "chaincore.embed", "ternary_digit"),
)

_VERIFY = ("measure.verify_sup", "measure.verify_inf")


@dataclass
class GroupStats:
    calls: int = 0
    total_ns: int = 0  # outermost spans of the group only
    self_ns: int = 0  # span time not covered by child spans


class Tracer:
    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: list = []
        self.command: int | None = None
        self.missing: list[str] = []
        self.stats: dict[str, GroupStats] = defaultdict(GroupStats)
        self.counts: Counter = Counter()
        self._stack: list[list[int]] = []  # [span index, child ns] per open span
        self._depth: Counter = Counter()
        self._seen: dict[int, tuple[weakref.ref, set]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "chaincore" or name.startswith("chaincore.")]
        for index, (group, module, path) in enumerate(self.targets):
            owner = sys.modules.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module}.{path}")
                continue
            wrapper = self._wrap(index, group, original)
            holders = [owner] if outer else [m for m in modules
                                             if any(v is original for v in vars(m).values())]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, index: int, group: str, fn: Callable) -> Callable:
        tracer = self
        observe = {
            "setfun.predicates": self._observe_predicate,
            "measure.table": self._observe_table,
            "measure.verify_sup": self._observe_report,
            "measure.verify_inf": self._observe_report,
        }.get(group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.command is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0]
            tracer.spans.append(None)
            stack.append(frame)
            tracer._depth[group] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._depth[group] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans[frame[0]] = (index, start, end, parent, tracer.command)
                stats = tracer.stats[group]
                stats.calls += 1
                stats.self_ns += duration - frame[1]
                if tracer._depth[group] == 0:
                    stats.total_ns += duration
            if observe is not None:
                observe(fn.__name__, args, kwargs, result)
            return result

        return traced

    def _observe_predicate(self, name, args, kwargs, result) -> None:
        obj = args[0]
        key = (name, args[1:], tuple(sorted(kwargs.items())))
        ref, seen = self._seen.get(id(obj), (None, None))
        if ref is None or ref() is not obj:  # a new object, possibly at a reused id
            seen = set()
            self._seen[id(obj)] = (weakref.ref(obj), seen)
        if key in seen:
            self.counts["predicate_repeats"] += 1
        seen.add(key)

    def _observe_table(self, name, args, kwargs, result) -> None:
        self.counts["table_subsets"] += len(result)

    def _observe_report(self, name, args, kwargs, result) -> None:
        # The inner sup run of the dual route belongs to the outer report.
        if not any(self._depth[g] for g in _VERIFY):
            self.counts["claims"] += len(result.claims)
            self.counts["claims_failed"] += sum(not c.passed for c in result.claims)

    # -- results ------------------------------------------------------------

    def metrics(self, pairs: int, output_bytes: int,
                scale: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``; times are
        multiplied by ``scale``."""
        s = self.stats

        def ms(ns: int) -> float:
            return ns * scale / 1e6

        def per_pair(count: int) -> float:
            return count / pairs if pairs else 0.0

        predicates = s["setfun.predicates"]
        return {
            "cli.load_instance.ms": (ms(s["cli.load_instance"].total_ns), "ms"),
            "cli.load_instance.calls": (s["cli.load_instance"].calls, "count"),
            "cli.output_bytes": (output_bytes, "bytes"),
            "setfun.predicates.ms": (ms(predicates.total_ns), "ms"),
            "setfun.predicates.calls": (predicates.calls, "count"),
            "setfun.predicates.repeat_ratio": (
                self.counts["predicate_repeats"] / predicates.calls if predicates.calls else 0.0,
                "ratio"),
            "setfun.restrict.ms": (ms(s["setfun.restrict"].total_ns), "ms"),
            "setfun.restrict.calls": (s["setfun.restrict"].calls, "count"),
            "setfun.dual_transform.ms": (ms(s["setfun.dual_transform"].total_ns), "ms"),
            "setfun.dual_transform.calls": (s["setfun.dual_transform"].calls, "count"),
            "chains.insert_chain.ms": (ms(s["chains.insert_chain"].total_ns), "ms"),
            "chains.insert_chain.per_pair": (per_pair(s["chains.insert_chain"].calls), "count/pair"),
            "measure.chain_measure.ms": (ms(s["measure.chain_measure"].total_ns), "ms"),
            "measure.chain_measure.per_pair": (
                per_pair(s["measure.chain_measure"].calls), "count/pair"),
            "measure.table.ms": (ms(s["measure.table"].total_ns), "ms"),
            "measure.table.subsets": (self.counts["table_subsets"], "count"),
            "measure.verify_sup.self_ms": (ms(s["measure.verify_sup"].self_ns), "ms"),
            "measure.verify_inf.self_ms": (ms(s["measure.verify_inf"].self_ns), "ms"),
            "measure.verify_uniqueness.ms": (ms(s["measure.verify_uniqueness"].total_ns), "ms"),
            "measure.claims": (self.counts["claims"], "count"),
            "measure.claims_failed": (self.counts["claims_failed"], "count"),
            "choquet.verify_choquet_sup.self_ms": (
                ms(s["choquet.verify_choquet_sup"].self_ns), "ms"),
            "choquet.choquet_integral.ms": (ms(s["choquet.choquet_integral"].total_ns), "ms"),
            "embed.recover_generator.ms": (ms(s["embed.recover_generator"].total_ns), "ms"),
            "embed.recover_generator.calls": (s["embed.recover_generator"].calls, "count"),
            "embed.ternary_digit.ms": (ms(s["embed.ternary_digit"].total_ns), "ms"),
        }

    def self_split(self, command_ns: int) -> dict[str, float]:
        """Each group's self time as a share of all command time; the
        remainder is code outside every wrapped function."""
        split = {g: st.self_ns / command_ns for g, st in self.stats.items() if st.calls}
        split["untraced"] = 1.0 - sum(split.values())
        return dict(sorted(split.items(), key=lambda kv: -kv[1]))

    def write_spans(self, path) -> None:
        names = [f"{module}.{attr}" for _, module, attr in self.targets]
        with open(path, "w") as fh:
            for index, start, end, parent, command in self.spans:
                fh.write(json.dumps([names[index], start, end, parent, command]) + "\n")
