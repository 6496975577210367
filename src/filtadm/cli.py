"""Batch command-line front end with deterministic JSON reports.

Exit codes: 0 = pass/success, 1 = the checked property fails, 2 = input
error (malformed JSON, invariant violations, caps), 3 = disagreement in
the `equivalence` cross-check (which would indicate a bug).

`main(argv)` may be called repeatedly in one process: every call shares
the one parser `build_parser` builds, and reads `FILTADM_CAP` and the
terminal width afresh when it needs them.  Each input file is read once
per call: the same bytes are hashed for the report and decoded, as
`open` decodes them, for parsing.  Each report is written to stdout in one
piece by `_encode`, which gives the bytes of `json.dumps(report, indent=2,
sort_keys=True)` by joining strings: `json` falls back to its pure-Python
encoder whenever it indents, and that encoder took about twice as long.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import sys
import time

from . import __version__
from .emerton import candidate_table, check_emerton_condition
from .filtration import (
    TransversalityError,
    build_transverse_filtration,
    check_admissible,
)
from .frobenius import build_modified_frobenius, realize_matrices
from .model import (
    SpecError,
    fraction_to_str,
    profile_from_dict,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)
from .ordering import canonical_order, check_not_precede
from .pairs import fuzz_special_pairs
from .slopes import check_slope_chain
from .subobjects import (
    CapExceededError,
    DEFAULT_CAP,
    StableLattice,
    check_cap,
    enumerate_concrete_subobjects,
)

SUBCOMMANDS = (
    "order",
    "check-iii",
    "check-emerton",
    "build-phi",
    "subobjects",
    "build-filtration",
    "verify-admissible",
    "equivalence",
    "fuzz-special",
)


def _bytes(args, path: str) -> bytes:
    """The bytes of an input file, read once per call and kept on `args`."""
    files = vars(args).setdefault("_files", {})
    data = files.get(path)
    if data is None:
        with open(path, "rb") as fh:
            data = files[path] = fh.read()
    return data


def _inputs(args, weights: bool = True) -> dict:
    """The path and sha256 of each input file, for a report."""
    out = {}
    for name in ("spec", "weights") if weights else ("spec",):
        path = getattr(args, name)
        out[name] = {"path": path, "sha256": hashlib.sha256(_bytes(args, path)).hexdigest()}
    return out


def _load_json(args, path: str):
    """The JSON value of an input file, its bytes decoded as `open(path)`
    decodes them (default encoding, universal newlines), so decoding and
    parse errors read as they would from the file."""
    return json.loads(io.TextIOWrapper(io.BytesIO(_bytes(args, path))).read())


def _at_least(text: str, low: int) -> int | None:
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value >= low else None


def _cap_flag(text: str) -> int:
    """argparse type of `--cap`: a positive integer."""
    cap = _at_least(text, 1)
    if cap is None:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return cap


def _count_flag(text: str) -> int:
    """argparse type of `--trials` and `--max-rows`: a non-negative integer."""
    count = _at_least(text, 0)
    if count is None:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return count


def _cap(args) -> int:
    """`--cap`, else the FILTADM_CAP environment variable, else the default."""
    if args.cap is not None:
        return args.cap
    env = os.environ.get("FILTADM_CAP")
    if env is None:
        return DEFAULT_CAP
    cap = _at_least(env, 1)
    if cap is None:
        raise ValueError(f"FILTADM_CAP must be a positive integer, got {env!r}")
    return cap


def _emit(report: dict, args) -> None:
    if getattr(args, "timing", False):
        report["timing_ms"] = round((time.perf_counter() - args._t0) * 1000, 3)
    _write(report)


_STR = json.encoder.encode_basestring_ascii


def _encode(value, indent: str = "") -> str:
    """The bytes `json.dumps(value, indent=2, sort_keys=True)` writes, for
    the types a report holds: dicts with `str` keys, lists and tuples,
    strings, None, bools, ints and floats.  Any other type, or a key that
    is not a `str`, raises TypeError."""
    kind = type(value)
    if kind is str:
        return _STR(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        # `_STR` raises TypeError on a key that is not a str
        members = [_STR(key) + ": " + _encode(value[key], inner) for key in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(members) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        members = [_encode(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(members) + "\n" + indent + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return json.dumps(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write(report: dict) -> None:
    sys.stdout.write(_encode(report) + "\n")


def _mat_json(m) -> list:
    return [[fraction_to_str(x) for x in row] for row in m]


def _prepare(args, need_weights: bool):
    spec = spec_from_dict(_load_json(args, args.spec))
    profile = profile_from_dict(_load_json(args, args.weights)) if need_weights else None
    validate_spec(spec, profile)
    ordered, partition, perm = canonical_order(spec)
    return spec, profile, ordered, partition, perm


def cmd_order(args) -> int:
    spec, _, ordered, partition, perm = _prepare(args, False)
    ok, pair = check_not_precede(ordered)
    report = {
        "command": "order",
        "inputs": _inputs(args, weights=False),
        "permutation": list(perm),
        "groups": [list(g) for g in partition.groups],
        "groupDims": list(partition.dims),
        "groupSlopes": [fraction_to_str(s) for s in partition.avg_slopes],
        "summands": spec_to_dict(ordered)["summands"],
        "notPrecede": ok,
        "notPrecedeWitness": list(pair) if pair else None,
    }
    _emit(report, args)
    return 0 if ok else 1


def cmd_check_iii(args) -> int:
    _, profile, ordered, _, perm = _prepare(args, True)
    verdict = check_slope_chain(ordered, profile)
    report = {
        "command": "check-iii",
        "inputs": _inputs(args),
        "permutation": list(perm),
        "verdict": verdict.as_dict(),
    }
    _emit(report, args)
    return 0 if verdict.ok else 1


def cmd_check_emerton(args) -> int:
    _, profile, ordered, _, perm = _prepare(args, True)
    verdict = check_emerton_condition(ordered, profile)
    report = {
        "command": "check-emerton",
        "inputs": _inputs(args),
        "permutation": list(perm),
        "verdict": verdict.as_dict(),
        "candidates": candidate_table(ordered, profile, limit=args.max_rows),
    }
    _emit(report, args)
    return 0 if verdict.ok else 1


def cmd_build_phi(args) -> int:
    _, _, ordered, _, perm = _prepare(args, False)
    edges = () if args.no_modify else build_modified_frobenius(ordered)
    realization = realize_matrices(ordered, edges)
    report = {
        "command": "build-phi",
        "inputs": _inputs(args, weights=False),
        "permutation": list(perm),
        "edges": [
            {"src": e.src, "dst": e.dst, "alignment": e.alignment} for e in edges
        ],
        "phi": _mat_json(realization.phi),
        "n": _mat_json(realization.nmat),
        "seeds": {k: fraction_to_str(v) for k, v in sorted(realization.seeds.items())},
    }
    _emit(report, args)
    return 0


def cmd_subobjects(args) -> int:
    _, _, ordered, _, perm = _prepare(args, False)
    cap = _cap(args)
    check_cap(ordered.dimension, cap)
    edges = build_modified_frobenius(ordered) if args.modified else ()
    realization = realize_matrices(ordered, edges)
    lattice = StableLattice(realization)
    subs = enumerate_concrete_subobjects(
        realization, cap=cap, seed=args.seed, lattice=lattice
    )
    report = {
        "command": "subobjects",
        "inputs": _inputs(args, weights=False),
        "permutation": list(perm),
        "modified": bool(args.modified),
        "count": len(subs),
        "subobjects": [_subobject_entry(lattice, s) for s in subs],
    }
    _emit(report, args)
    return 0


def _subobject_entry(lattice: StableLattice, sub) -> dict:
    realization = lattice.realization
    dims = lattice.level_dims(sub.key)
    levels = []
    for coords, mult in zip(realization.levels, dims):
        if mult:
            blk = realization.basis[coords[0]]
            levels.append({"family": blk.family.id, "twist": blk.twist, "mult": mult})
    return {
        "dim": sub.rank,
        "basis": _mat_json(sub.rows),
        "tN": fraction_to_str(lattice.t_n(sub.key)),
        "levels": levels,
    }


def cmd_build_filtration(args) -> int:
    _, profile, ordered, _, perm = _prepare(args, True)
    # transversality is checked against every good subobject
    check_cap(ordered.dimension, _cap(args))
    edges = () if args.no_modify else build_modified_frobenius(ordered)
    realization = realize_matrices(ordered, edges)
    filtration = build_transverse_filtration(ordered, profile, realization, args.seed)
    report = {
        "command": "build-filtration",
        "inputs": _inputs(args),
        "permutation": list(perm),
        "seed": args.seed,
        "attempts": filtration.attempts,
        "bases": [_mat_json(b) for b in filtration.vectors],
        "weights": [list(row) for row in profile.weights],
    }
    _emit(report, args)
    return 0


def cmd_verify_admissible(args) -> int:
    _, profile, ordered, _, perm = _prepare(args, True)
    # the filtration is checked against every good, the subspaces are
    # enumerated
    check_cap(ordered.dimension, _cap(args))
    edges = () if args.no_modify else build_modified_frobenius(ordered)
    realization = realize_matrices(ordered, edges)
    filtration = build_transverse_filtration(ordered, profile, realization, args.seed)
    result = check_admissible(
        ordered, profile, realization, filtration, cap=_cap(args), seed=args.seed
    )
    report = {
        "command": "verify-admissible",
        "inputs": _inputs(args),
        "permutation": list(perm),
        "seed": args.seed,
        "attempts": filtration.attempts,
        "modified": not args.no_modify,
        "edges": [
            {"src": e.src, "dst": e.dst, "alignment": e.alignment} for e in edges
        ],
        "verdict": result.as_dict(),
    }
    _emit(report, args)
    return 0 if result.ok else 1


def cmd_equivalence(args) -> int:
    _, profile, ordered, _, perm = _prepare(args, True)
    chain = check_slope_chain(ordered, profile)
    shuffle = check_emerton_condition(ordered, profile)
    agree = chain.ok == shuffle.ok
    report = {
        "command": "equivalence",
        "inputs": _inputs(args),
        "permutation": list(perm),
        "slopeChain": chain.as_dict(),
        "emerton": shuffle.as_dict(),
        "agree": agree,
    }
    _emit(report, args)
    return 0 if agree else 3


def cmd_fuzz_special(args) -> int:
    result = fuzz_special_pairs(args.trials, args.seed)
    report = {
        "command": "fuzz-special",
        "seed": args.seed,
        **result,
    }
    _emit(report, args)
    return 0 if result["failures"] == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="filtadm",
        description="exact checks and constructions for admissible filtrations "
        "on block-chain Frobenius modules",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights=True, seed=False, cap=False):
        p.add_argument("--spec", required=True, help="module spec JSON file")
        if weights:
            p.add_argument("--weights", required=True, help="weight profile JSON file")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if cap:
            p.add_argument(
                "--cap", type=_cap_flag, default=None,
                help=f"dimension cap (default: FILTADM_CAP, else {DEFAULT_CAP})",
            )
        p.add_argument("--timing", action="store_true", help="include timing_ms")

    p = sub.add_parser("order", help="canonical summand order and groups")
    common(p, weights=False)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("check-iii", help="slope prefix chain and total equality")
    common(p)
    p.set_defaults(func=cmd_check_iii)

    p = sub.add_parser("check-emerton", help="unitarity and shuffle valuations")
    common(p)
    p.add_argument("--max-rows", type=_count_flag, default=50)
    p.set_defaults(func=cmd_check_emerton)

    p = sub.add_parser("build-phi", help="modification edges and exact matrices")
    common(p, weights=False)
    p.add_argument("--no-modify", action="store_true")
    p.set_defaults(func=cmd_build_phi)

    p = sub.add_parser("subobjects", help="enumerate stable subspaces")
    common(p, weights=False, seed=True, cap=True)
    p.add_argument("--modified", action="store_true")
    p.set_defaults(func=cmd_subobjects)

    p = sub.add_parser("build-filtration", help="sample a transverse filtration")
    common(p, seed=True, cap=True)
    p.add_argument("--no-modify", action="store_true")
    p.set_defaults(func=cmd_build_filtration)

    p = sub.add_parser("verify-admissible", help="full admissibility verdict")
    common(p, seed=True, cap=True)
    p.add_argument("--no-modify", action="store_true")
    p.set_defaults(func=cmd_verify_admissible)

    p = sub.add_parser("equivalence", help="cross-check the two slope conditions")
    common(p)
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("fuzz-special", help="randomized special-pair verification")
    p.add_argument("--trials", type=_count_flag, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_fuzz_special)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except (
        SpecError,
        CapExceededError,
        TransversalityError,
        json.JSONDecodeError,
        OSError,
        ValueError,
    ) as exc:
        report = {
            "command": args.command,
            "error": f"{type(exc).__name__}: {exc}",
        }
        _write(report)
        return 2


if __name__ == "__main__":
    sys.exit(main())
