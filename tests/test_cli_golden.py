"""Byte-stability of the CLI output.

Each case pins the exit code and the sha256 of stdout for one command,
in exact and in float mode.  The digests were recorded before the sup and
inf checks were merged into one direct route, and that merge left every
byte unchanged; the digests of the generator-spec cases were recorded
before the generators built their tables by doubling; the digests of the
sweeps at the benchmark's sizes were recorded before the sweep stopped
building a report per pair.  A changed digest is a change to the output
format and must be made on purpose;
``PYTHONPATH=src python tests/test_cli_golden.py`` prints the current
digests.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from chaincore import random_monotone_nonsubmodular, random_submodular, random_supermodular
from chaincore.cli import main
from chaincore.generators import set_function_from_spec

RUNNING = {
    "n": 3,
    "generator": "distortion",
    "g": {"kind": "poly", "coeffs": [0, 2, -1]},
    "p": ["1/3", "1/3", "1/3"],
}
ADDITIVE = {"n": 3, "values": {"0": 0, "1": "1/4", "2": "1/2", "3": "3/4",
                               "4": "1/4", "5": "1/2", "6": "3/4", "7": 1}}
FAMILY = {"n": 4, "members": [[0, 1], [1, 2], [3]]}
COARSE_FAMILY = {"n": 3, "members": [[0, 1]]}
# monotone and grounded, neither submodular nor supermodular
MIXED = {"n": 3, "values": {"0": 0, "1": "1/2", "2": "1/2", "3": "1/2",
                            "4": "1/2", "5": "1/2", "6": "1/2", "7": 1}}
# generator specs: concave poly with a zero weight (sup route), convex pwl
# (inf route), coverage, and an interval grid
SPECS = {
    "spec-poly.json": {"generator": "distortion",
                       "g": {"kind": "poly", "coeffs": [0, "3/2", "-1/2"]},
                       "p": ["1/4", "0", "1/8", "1/8", "1/3", "1/6"]},
    "spec-pwl.json": {"generator": "distortion",
                      "g": {"kind": "pwl", "knots": [[0, 0], ["1/2", "1/5"], [1, 1]]},
                      "p": ["1/10", "1/5", "3/10", "2/5", "0"]},
    "spec-coverage.json": {"generator": "coverage", "covers": [3, 6, 12, 9, 5, 0],
                           "weights": ["1/2", 1, "3/4", "0.3"]},
    "spec-interval.json": {"generator": "interval", "cells": 6,
                           "g": {"kind": "poly", "coeffs": [0, 2, -1]}},
}

# sweeps at the benchmark's sizes, one instance each: coverage and concave
# distortion specs (sup route), complement duals of two of them (inf
# route, so the dual route runs on every pair) and non-submodular tables
# (every pair fails)
BENCH_SPECS = {
    "cov5": {"generator": "coverage", "covers": [3, 6, 12, 9, 5],
             "weights": ["1/2", 1, "3/4", "0.3"]},
    "cov6": {"generator": "coverage", "covers": [5, 10, 20, 17, 34, 12],
             "weights": ["1/2", 1, "3/4", "0.3", "2/3", "5/4"]},
    "concave5": {"generator": "distortion",
                 "g": {"kind": "pwl", "knots": [[0, 0], ["1/3", "1/2"], ["2/3", "5/6"], [1, 1]]},
                 "p": ["1/10", "1/5", "1/4", "3/20", "3/10"]},
    "concave6": {"generator": "distortion",
                 "g": {"kind": "pwl", "knots": [[0, 0], ["1/4", "2/5"], ["1/2", "7/10"], [1, 1]]},
                 "p": ["1/12", "1/6", "1/4", "1/12", "1/4", "1/6"]},
}


def _bench_sweeps() -> dict[str, dict]:
    return {
        **BENCH_SPECS,
        "dual5": set_function_from_spec(BENCH_SPECS["concave5"]).dual().to_json_dict(),
        "dual6": set_function_from_spec(BENCH_SPECS["cov6"]).dual().to_json_dict(),
        "non5": random_monotone_nonsubmodular(5, 505).to_json_dict(),
        "non6": random_monotone_nonsubmodular(6, 606).to_json_dict(),
    }


def _write_inputs(root: Path) -> None:
    files = {
        "running.json": RUNNING,
        "additive.json": ADDITIVE,
        "super.json": random_supermodular(3, 7).to_json_dict(),
        "mixed.json": MIXED,
        "family.json": FAMILY,
        "coarse.json": COARSE_FAMILY,
        **SPECS,
    }
    for name, obj in files.items():
        (root / name).write_text(json.dumps(obj))
    # seeded sweep corpus: sup, inf, additive and failing instances
    corpus = {
        **{f"sub{n}.json": random_submodular(n, 100 + n) for n in (2, 3, 4)},
        **{f"super{n}.json": random_supermodular(n, 200 + n) for n in (2, 3, 4)},
        **{f"nonsub{n}.json": random_monotone_nonsubmodular(n, 300 + n) for n in (3, 4)},
    }
    (root / "corpus").mkdir()
    for name, v in corpus.items():
        (root / "corpus" / name).write_text(json.dumps(v.to_json_dict()))
    for name, obj in _bench_sweeps().items():
        (root / f"sweep-{name}").mkdir()
        (root / f"sweep-{name}" / "instance.json").write_text(json.dumps(obj))


#: (name, argv); the second word names a file or directory of the inputs.
COMMANDS = (
    ("core-sup", ["core", "running.json", "--B", "2"]),
    ("core-sup-chain", ["core", "running.json", "--A", "6", "--B", "4", "--chain", "2,1,0"]),
    ("core-inf", ["core", "super.json", "--B", "1"]),
    ("core-inf-chain", ["core", "super.json", "--A", "6", "--B", "2", "--chain", "0;4;6;7"]),
    ("core-mixed", ["core", "mixed.json", "--B", "2"]),
    ("core-additive", ["core", "additive.json", "--A", "5", "--B", "1"]),
    ("sweep", ["sweep", "corpus"]),
    ("choquet", ["choquet", "running.json", "--f", "3,1,2"]),
    ("choquet-ties", ["choquet", "running.json", "--f", "2,0,2", "--seed", "3"]),
    ("choquet-ties-risk", ["choquet", "super.json", "--f", "1,0,1", "--risk", "--samples", "5"]),
    ("embed", ["embed", "family.json"]),
    ("embed-coarse", ["embed", "coarse.json", "--recover", "1"]),
    ("check-spec-poly", ["check", "spec-poly.json"]),
    ("core-spec-poly", ["core", "spec-poly.json", "--A", "61", "--B", "20"]),
    ("check-spec-pwl", ["check", "spec-pwl.json"]),
    ("core-spec-pwl", ["core", "spec-pwl.json", "--B", "5"]),
    ("check-spec-coverage", ["check", "spec-coverage.json"]),
    ("core-spec-coverage", ["core", "spec-coverage.json", "--B", "10", "--chain", "5,4,3,2,1,0"]),
    ("check-spec-interval", ["check", "spec-interval.json"]),
    ("core-spec-interval", ["core", "spec-interval.json", "--A", "47", "--B", "33"]),
    *((f"sweep-{name}", ["sweep", f"sweep-{name}"]) for name in _bench_sweeps()),
)

MODES = (("exact", []), ("float", ["--float"]))

#: "<command>/<mode>" -> (exit code, sha256 of stdout).
EXPECTED = {
    'core-sup/exact': (0, 'f78cb9ae06017b5af001f49d302579b07c335297fbaa9c923a9ccffc119f7383'),
    'core-sup-chain/exact': (0, 'eb77ffa82db9a50996a057c3ba28634828c6a8881bc7cb9d98cb116c41b64f28'),
    'core-inf/exact': (0, '0c1232344dfe52b801123ae34408e111a8b025cbc6241f7a67f0f44f0e16733f'),
    'core-inf-chain/exact': (0, '8222db12f7e623df02c328c2c25710fe0438065cfc476d85d7024708770d2430'),
    'core-mixed/exact': (1, '27be8c875380a601d74c581519027fdd9880fdb13d060059077fdf32228c1a78'),
    'core-additive/exact': (0, 'f2f7a82213a38eea8a25f1eddec6955373a9532b8c5d8ffce60e42dc9b8409ce'),
    'sweep/exact': (1, '30861c86867f130043c5833ac0acfedb6d238bab67d31540ff874ee0c4cfb544'),
    'choquet/exact': (0, '4b94a7f5e138122e2bf4fb9deb1620a609ae8c0e6506df565edb50ceea05d7a8'),
    'choquet-ties/exact': (0, 'c75993a7cbdf22f4e4348473bc15686ae87d238eb0a0a99c857989f82646a490'),
    'choquet-ties-risk/exact': (1, '13fcd7a291dceb06049b9f7223ba9efcda62a597722e072a07e0d99dc2c8425e'),
    'embed/exact': (0, '83c94e7a3e1b951872a48486731181a6b6dea85abdddd95c419cae3527321aeb'),
    'embed-coarse/exact': (0, '440342eea0a7209a516cd15b0134890ecd42ceacb18dd438916a3cb123a0f59c'),
    'check-spec-poly/exact': (0, 'd1eb6a9c1664f57b7d62015c99f08577d7e41712d91f9c1b4bacbfc32aae9ddb'),
    'core-spec-poly/exact': (0, 'cba264479a34326f179c06e7f57cb80c2fabc1b33cceffeb685ae50b2812cfad'),
    'check-spec-pwl/exact': (0, 'd7b7dd3fb858faf49efb9ac963d0aa6f2e469829aa17e6d473e7afba3698f33d'),
    'core-spec-pwl/exact': (0, 'd18d6129580c99f11906c5c8c8c7280d1969d1bfe0ad838f77eaf928f98b1f63'),
    'check-spec-coverage/exact': (0, 'b2fc51266cd84ad46c9b824032cba09c1f753f1bb765b58ee0fe14e2e97ea56a'),
    'core-spec-coverage/exact': (0, '116001a2b394e7ba64df5c34da8f35955d19cde99e81126fe17fe2081326ae0d'),
    'check-spec-interval/exact': (0, '286bb1c7ada0decf91c3dbf6e8ed06b172d45e1c1c2f7c1dab99af7343433b2d'),
    'core-spec-interval/exact': (0, '3b8ca6069c9e2ac3936ff57a73b896dbf5ba5c45ca2ab626604f71b2578211e5'),
    'sweep-cov5/exact': (0, 'eb4f36f8b4d5930d5bbdcdc238c76e43422df56597b0c622a2df868413cff1d9'),
    'sweep-cov6/exact': (0, 'afe74dfca4d5ffd1be1632ac52d3dd6c23d12d0ae9fa263f978a525ce1d9a206'),
    'sweep-concave5/exact': (0, 'eb4f36f8b4d5930d5bbdcdc238c76e43422df56597b0c622a2df868413cff1d9'),
    'sweep-concave6/exact': (0, 'afe74dfca4d5ffd1be1632ac52d3dd6c23d12d0ae9fa263f978a525ce1d9a206'),
    'sweep-dual5/exact': (0, '18edc4ef15b1c16f12fc4ee7bd53ed6c351d7c221bb3b1aaba6fc160ba8d7d26'),
    'sweep-dual6/exact': (0, '95111bc05395cf614b75a65d9ec0c2a7611a54ee847d3252dd8b88653956cbf9'),
    'sweep-non5/exact': (1, '04adf18d5e0196e48d5d4597ebcf8ee8b671b4fe6af00749a49b910561d0efa5'),
    'sweep-non6/exact': (1, '8fcb68c372b1edc2a8ef1d94389da73e071aad20fac2eede84d9de35371bde26'),
    'core-sup/float': (0, '08385e5547a807a681d9928241f4e75e78c7f51ac931af1ac838af16819139dd'),
    'core-sup-chain/float': (0, '5dab9ce0cc19d56f211afac2ff1fca0568c309386d74dac34f210dd0bc688e4b'),
    'core-inf/float': (0, 'ee30cf14635771c9d2f6f1afa92eb6133de0d3144cd71252d5f4d1a13b716bb8'),
    'core-inf-chain/float': (0, '2d0583064e0414b70a9320675ab5b0f129b77f3317cf8d0e10dfc423d7323b0d'),
    'core-mixed/float': (1, 'c4a3acf2e0e5766eec94fc290685af3b59d110e5ae2f103a0f557a34b80f399b'),
    'core-additive/float': (0, 'ef81b9b63424f64bb3b88ed534025c0bf9825265f701d47f0346db83e3c0d75a'),
    'sweep/float': (1, '30861c86867f130043c5833ac0acfedb6d238bab67d31540ff874ee0c4cfb544'),
    'choquet/float': (0, 'e06ecd71dffa9a68a696c72d0186006bc8790898a98616fd449fa926d4dc1996'),
    'choquet-ties/float': (0, 'e3286a47a331b5c2d5bde1718e76a14715668a3218fe69f39dcc7886d6b7ccc8'),
    'choquet-ties-risk/float': (1, 'c85a5859cf2a4e9eb465819e013acccec9c35e1c6e0faf9e1173bd1bee532016'),
    'check-spec-poly/float': (0, '1e1ca64c84c52aadf7f14ee261e6c602aa13a37eee532fe2acfd3288d76c25af'),
    'core-spec-poly/float': (0, '9036300fc745286f9bc7720c709fd0a20976821e9a6b652111cc8b62ab35cce9'),
    'check-spec-pwl/float': (0, '5db9e2649ac64dae1ed947fb2bef4c3a6d346c0cacb78704f273ad6e5b053adb'),
    'core-spec-pwl/float': (0, '6f35ea89c632f89150a2ca815f0085d7176ff2dd76794f3a48c730c367777a55'),
    'check-spec-coverage/float': (0, '5d362b5964fdf0c2d688d064997ab8b104e8095cd275303533d0e4c92c131f1e'),
    'core-spec-coverage/float': (0, 'c4aa6766a7930d6f0ab6daf7b1c4bd0d7eb648460635265607144f7baa948066'),
    'check-spec-interval/float': (0, '4e1d968b9706a3a140fec3722afb6e3bea06a6c4995cff8f9e119b1680b91cc2'),
    'core-spec-interval/float': (0, 'cc6c24adbf3492c8f19e5bbf738d343d7fcede5bcb616355531a5e27ac43729e'),
    'sweep-cov5/float': (0, 'eb4f36f8b4d5930d5bbdcdc238c76e43422df56597b0c622a2df868413cff1d9'),
    'sweep-cov6/float': (0, 'afe74dfca4d5ffd1be1632ac52d3dd6c23d12d0ae9fa263f978a525ce1d9a206'),
    'sweep-concave5/float': (0, 'eb4f36f8b4d5930d5bbdcdc238c76e43422df56597b0c622a2df868413cff1d9'),
    'sweep-concave6/float': (0, 'afe74dfca4d5ffd1be1632ac52d3dd6c23d12d0ae9fa263f978a525ce1d9a206'),
    'sweep-dual5/float': (0, '18edc4ef15b1c16f12fc4ee7bd53ed6c351d7c221bb3b1aaba6fc160ba8d7d26'),
    'sweep-dual6/float': (0, '95111bc05395cf614b75a65d9ec0c2a7611a54ee847d3252dd8b88653956cbf9'),
    'sweep-non5/float': (1, '04adf18d5e0196e48d5d4597ebcf8ee8b671b4fe6af00749a49b910561d0efa5'),
    'sweep-non6/float': (1, '8fcb68c372b1edc2a8ef1d94389da73e071aad20fac2eede84d9de35371bde26'),
}


def run_cases(root: Path) -> dict[str, tuple[int, str]]:
    out = {}
    for mode, prefix in MODES:
        for name, argv in COMMANDS:
            if mode == "float" and argv[0] == "embed":
                continue  # embeddings are exact by construction
            command, path, *rest = argv
            buf = StringIO()
            with redirect_stdout(buf):
                code = main([*prefix, command, str(root / path), *rest])
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            out[f"{name}/{mode}"] = (code, digest)
    return out


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    _write_inputs(root)
    return run_cases(root)


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_cli_output_is_byte_stable(observed, case):
    assert observed[case] == EXPECTED[case]


def test_every_case_is_pinned(observed):
    assert set(observed) == set(EXPECTED)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        for key, value in run_cases(Path(tmp)).items():
            print(f"    {key!r}: {value!r},")
