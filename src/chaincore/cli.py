"""Command-line interface: load instances, check structure, verify core
attainment, integrate, embed, and sweep whole directories.

All output is JSON on stdout (``--pretty`` renders a human summary).
Exit codes: 0 all claims pass, 1 a verified claim failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .chains import Chain, chain_generates, one_point_steps
from .choquet import PointFunction, verify_choquet_sup
from .embed import GeneratingFamily, embed_chain, recover_generator, ternary_digit, ternary_embed
from .generators import GeneratorError, set_function_from_spec
from .measure import (
    VerificationReport,
    construction_verdicts,
    preconditions_hold,
    verify_inf_representation,
    verify_sup_representation,
)
from .scalar import ScalarModeError, format_scalar, parse_scalar, tolerance
from .setfun import GroundSet, SetFunction, dual_transform

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_INPUT_ERROR = 2

#: Largest ground set the exhaustive directory sweep agrees to process.
SWEEP_MAX_POINTS = 8

_INPUT_ERRORS = (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError,
                 GeneratorError, ScalarModeError)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        # Floats arrive as strings so exact mode can read decimal literals.
        obj = json.load(fh, parse_float=str)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return obj


def load_instance(path: str, exact: bool = True) -> SetFunction:
    """Read an instance file: an explicit values table or a generator spec."""
    obj = _read_json(path)
    if "generator" in obj:
        v = set_function_from_spec(obj, exact)
        if not exact:
            v = SetFunction(v.ground, tuple(float(x) for x in v.table))
        return v
    return SetFunction.from_json_dict(obj, exact)


def load_family(path: str) -> GeneratingFamily:
    obj = _read_json(path)
    ground = GroundSet.from_json_dict(obj)
    return GeneratingFamily(ground, tuple(ground.parse_subset(s) for s in obj["members"]))


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _report_payload(report: VerificationReport, ground: GroundSet) -> dict:
    out = report.to_json_dict()
    out["pretty_failures"] = [
        f"{c.claim} on {[ground.format_subset(m) for m in c.subsets]}"
        for c in report.failures()
    ]
    return out


def _cmd_check(args: argparse.Namespace) -> int:
    v = load_instance(args.instance, exact=not args.float)
    dual = dual_transform(v)
    _emit(
        {
            "n": v.ground.n,
            "grounded": v.is_grounded(),
            "monotone": v.is_monotone(),
            "submodular": v.is_submodular(),
            "supermodular": v.is_supermodular(),
            "dual": {
                "monotone": dual.is_monotone(),
                "submodular": dual.is_submodular(),
                "supermodular": dual.is_supermodular(),
                "values_at_singletons": {
                    v.ground.format_subset(1 << i): format_scalar(dual.table[1 << i])
                    for i in range(v.ground.n)
                },
            },
        },
        args.pretty,
    )
    return EXIT_OK


def _parse_base_chain(spec: str | None, v: SetFunction) -> Chain | list[int] | None:
    """A base chain given as a point permutation ("2,1,0") or an explicit
    semicolon-separated subset list ("0;4;5;7"), validated for strict
    inclusion by the chain constructor."""
    if spec is None:
        return None
    if ";" in spec:
        masks = tuple(v.ground.parse_subset(t.strip()) for t in spec.split(";"))
        return Chain(v.ground.full, masks)
    return [int(t) for t in spec.split(",")]


def _route(v: SetFunction):
    """The inf check for supermodular, non-submodular v; the sup check
    otherwise, which doubles as the counterexample probe."""
    if not v.is_submodular() and v.is_supermodular():
        return verify_inf_representation
    return verify_sup_representation


def _unique(report: VerificationReport) -> bool:
    """:func:`verify_uniqueness`, read off the inserted chain the report holds."""
    return one_point_steps(report.context["chain"])


def _cmd_core(args: argparse.Namespace) -> int:
    v = load_instance(args.instance, exact=not args.float)
    a = v.ground.parse_subset(args.A) if args.A is not None else v.ground.full
    b = v.ground.parse_subset(args.B)
    if b & ~a:
        raise ValueError("B must be a subset of A")
    base = _parse_base_chain(args.chain, v)
    report = _route(v)(v, a, b, base=base)
    payload = _report_payload(report, v.ground)
    payload["unique"] = _unique(report)
    _emit(payload, args.pretty)
    return EXIT_OK if report.passed and payload["unique"] else EXIT_CLAIM_FAILED


def _cmd_choquet(args: argparse.Namespace) -> int:
    v = load_instance(args.instance, exact=not args.float)
    raw = [t.strip() for t in args.f.split(",")]
    if len(raw) != v.ground.n:
        raise ValueError(f"expected {v.ground.n} values for f, got {len(raw)}")
    f = PointFunction(v.ground, tuple(parse_scalar(t, not args.float) for t in raw))
    if args.risk:
        f = f.negate()
    report = verify_choquet_sup(v, f, samples=args.samples, seed=args.seed)
    payload = _report_payload(report, v.ground)
    key = "risk" if args.risk else "integral"
    payload[key] = report.context["choquet_integral"]
    _emit(payload, args.pretty)
    return EXIT_OK if report.passed else EXIT_CLAIM_FAILED


def _cmd_embed(args: argparse.Namespace) -> int:
    family = load_family(args.family)
    f = ternary_embed(family)
    chain = embed_chain(family)
    indices = [args.recover] if args.recover is not None else list(range(1, len(family) + 1))
    recoveries = []
    ok = True
    for idx in indices:
        via_intervals = recover_generator(f, len(family), idx)
        via_digits = 0
        for p, x in enumerate(f.values):
            if ternary_digit(x, idx) == 1:
                via_digits |= 1 << p
        match = via_intervals == via_digits == family.subsets[idx - 1]
        ok = ok and match
        recoveries.append(
            {
                "member": idx,
                "expected": family.subsets[idx - 1],
                "via_intervals": via_intervals,
                "via_digits": via_digits,
                "passed": match,
            }
        )
    payload = {
        "n": family.ground.n,
        "f": f.to_json(),
        "chain": list(chain.sets),
        "chain_generates": chain_generates(chain),
        "separates_points": family.separates_points,
        "recoveries": recoveries,
    }
    if not family.separates_points:
        payload["point_classes"] = [
            family.ground.format_subset(m) for m in family.point_classes()
        ]
    _emit(payload, args.pretty)
    return EXIT_OK if ok else EXIT_CLAIM_FAILED


def _cmd_sweep(args: argparse.Namespace) -> int:
    paths = sorted(Path(args.directory).glob("*.json"))
    if not paths:
        raise ValueError(f"no *.json instances found in {args.directory}")
    summaries = []
    all_ok = True
    for path in paths:
        try:
            v = load_instance(str(path), exact=not args.float)
        except _INPUT_ERRORS as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if v.ground.n > SWEEP_MAX_POINTS:
            raise ValueError(f"{path}: sweep supports n <= {SWEEP_MAX_POINTS}")
        # Verdicts only: one kernel call per carrier A checks every B inside
        # it, no report is built for a pair, and the preconditions, which
        # depend on v alone, are checked once.
        lower = _route(v) is verify_sup_representation
        tol = tolerance(v.exact)
        holds = preconditions_hold(v, submodular=lower, tol=tol)
        pairs = failures = 0
        unique = True
        for a in v.ground.subsets():
            for passed, chain in construction_verdicts(v, a, lower, tol):
                pairs += 1
                if not (holds and passed):
                    failures += 1
                unique = unique and one_point_steps(chain)
        ok = failures == 0 and unique
        all_ok = all_ok and ok
        summaries.append(
            {
                "instance": path.name,
                "n": v.ground.n,
                "route": "sup" if lower else "inf",
                "pairs": pairs,
                "failures": failures,
                "unique": unique,
                "passed": ok,
            }
        )
    _emit({"instances": summaries, "passed": all_ok}, args.pretty)
    return EXIT_OK if all_ok else EXIT_CLAIM_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaincore",
        description="Verify core attainment, Choquet integration, and chain "
        "embeddings for capacities on finite ground sets.",
    )
    parser.add_argument("--float", action="store_true",
                        help="float mode with tolerance (default: exact rationals)")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="structural predicates and the dual summary")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("core", help="verify core membership and attainment for (A, B)")
    p.add_argument("instance")
    p.add_argument("--A", help="carrier subset (default: the full set)")
    p.add_argument("--B", required=True, help="target subset")
    p.add_argument(
        "--chain",
        help="base chain: a comma-separated point permutation (2,1,0) or a "
        "semicolon-separated explicit subset list (0;4;5;7)",
    )
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("choquet", help="Choquet integral with attainment checks")
    p.add_argument("instance")
    p.add_argument("--f", required=True, help="comma-separated point values")
    p.add_argument("--risk", action="store_true", help="integrate -f instead")
    p.add_argument("--samples", type=int, default=32, help="core samples for domination")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_choquet)

    p = sub.add_parser("embed", help="ternary embedding of a generating family")
    p.add_argument("family")
    p.add_argument("--recover", type=int, help="recover only this member index (1-based)")
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("sweep", help="verify every (A, B) pair for each instance in a directory")
    p.add_argument("directory")
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
