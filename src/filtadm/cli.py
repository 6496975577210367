"""Batch command-line front end with deterministic JSON reports.

Exit codes: 0 = pass/success, 1 = the checked property fails, 2 = input
error (malformed JSON, invariant violations, caps), 3 = disagreement in
the `equivalence` cross-check (which would indicate a bug).

Every spec subcommand takes one path, `_run_spec`: it reads each input
file once (`_read` gives the report's `{"path", "sha256"}` entry and the
JSON value from the same bytes), validates the spec and profile, orders
the spec canonically, calls the command, and adds the shared `inputs`
and `permutation` fields to the fields the command returns.  So
`check-iii`, `check-emerton` and `equivalence` run the bodies of the
verdicts (`slopes._slope_chain`, `emerton._emerton_condition`), which
neither validate nor check the order again; the public criteria do both
on every call.  `check-emerton`'s table still comes from the public
`candidate_table`, whose canonical check is the one a command repeats.  `main`
alone adds `command` and, with `--timing`, `timing_ms`, writes the
report, and turns an input error into the exit-2 report
`{"command", "error"}`.

`main(argv)` may be called repeatedly in one process: every call shares
the one parser `build_parser` builds, and reads `FILTADM_CAP` afresh when
it needs it.  `_write` writes each report in one piece; `_encode` gives
the bytes of `json.dumps(report, indent=2, sort_keys=True)` by joining
strings, since `json` falls back to its pure-Python encoder whenever it
indents, and that encoder took about twice as long.  It writes the `str`
and `int` members of a dict or list in place, with no recursive call.
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
from .emerton import _emerton_condition, candidate_table
from .filtration import (
    TransversalityError,
    build_transverse_filtration,
    check_admissible,
)
from .frobenius import build_modified_frobenius, realize_matrices
from .model import (
    fraction_to_str,
    profile_from_dict,
    ratio_to_str,
    row_to_str,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)
from .ordering import canonical_order, check_not_precede
from .pairs import fuzz_special_pairs
from .slopes import _slope_chain
from .subobjects import (
    DEFAULT_CAP,
    StableLattice,
    check_cap,
    enumerate_concrete_subobjects,
)


def _read(path: str) -> tuple[dict, object]:
    """The report entry of an input file and its JSON value, from one read.
    The bytes are decoded as `open(path)` decodes them (default encoding,
    universal newlines), so decoding and parse errors read as they would
    from the file.  JSON nested past the interpreter's recursion limit
    raises ValueError naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    entry = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
    try:
        return entry, json.loads(io.TextIOWrapper(io.BytesIO(data)).read())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


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
    # members that are a str or an int (exactly: a bool goes through the
    # recursive call) are written in place
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        members = []
        for key in sorted(value):
            v = value[key]
            member = type(v)
            # `_STR` raises TypeError on a key that is not a str
            members.append(
                _STR(key) + ": " + (
                    _STR(v) if member is str
                    else int.__repr__(v) if member is int
                    else _encode(v, inner)
                )
            )
        return "{\n" + inner + (",\n" + inner).join(members) + "\n" + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        members = [
            _STR(v) if type(v) is str
            else int.__repr__(v) if type(v) is int
            else _encode(v, inner)
            for v in value
        ]
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


def _edges_json(edges) -> list:
    return [{"src": e.src, "dst": e.dst, "alignment": e.alignment} for e in edges]


def _realize(ordered, modify: bool):
    """The modification edges (none unless `modify`) and the realization."""
    edges = build_modified_frobenius(ordered) if modify else ()
    return edges, realize_matrices(ordered, edges)


def _run_spec(args) -> tuple[dict, int]:
    """Read, validate and order the inputs, run the command, and add the
    shared `inputs` and `permutation` fields to the ones it returns."""
    inputs = {}
    inputs["spec"], value = _read(args.spec)
    spec = spec_from_dict(value)
    profile = None
    if "weights" in args:
        inputs["weights"], value = _read(args.weights)
        profile = profile_from_dict(value)
    validate_spec(spec, profile)
    ordered, partition, perm = canonical_order(spec)
    fields, code = args.func(args, ordered, profile, partition)
    return {"inputs": inputs, "permutation": list(perm), **fields}, code


def cmd_order(args, ordered, profile, partition) -> tuple[dict, int]:
    ok, pair = check_not_precede(ordered)
    return {
        "groups": [list(g) for g in partition.groups],
        "groupDims": list(partition.dims),
        "groupSlopes": [fraction_to_str(s) for s in partition.avg_slopes],
        "summands": spec_to_dict(ordered)["summands"],
        "notPrecede": ok,
        "notPrecedeWitness": list(pair) if pair else None,
    }, 0 if ok else 1


def cmd_check_iii(args, ordered, profile, partition) -> tuple[dict, int]:
    verdict = _slope_chain(ordered, profile)
    return {"verdict": verdict.as_dict()}, 0 if verdict.ok else 1


def cmd_check_emerton(args, ordered, profile, partition) -> tuple[dict, int]:
    verdict = _emerton_condition(ordered, profile)
    return {
        "verdict": verdict.as_dict(),
        "candidates": candidate_table(ordered, profile, limit=args.max_rows),
    }, 0 if verdict.ok else 1


def cmd_build_phi(args, ordered, profile, partition) -> tuple[dict, int]:
    edges, realization = _realize(ordered, not args.no_modify)
    return {
        "edges": _edges_json(edges),
        "phi": _mat_json(realization.phi),
        "n": _mat_json(realization.nmat),
        "seeds": {k: fraction_to_str(v) for k, v in sorted(realization.seeds.items())},
    }, 0


def cmd_subobjects(args, ordered, profile, partition) -> tuple[dict, int]:
    cap = _cap(args)
    check_cap(ordered.dimension, cap)
    _, realization = _realize(ordered, args.modified)
    lattice = StableLattice(realization)
    subs = enumerate_concrete_subobjects(
        realization, cap=cap, seed=args.seed, lattice=lattice
    )
    return {
        "modified": bool(args.modified),
        "count": len(subs),
        "subobjects": [_subobject_entry(lattice, s) for s in subs],
    }, 0


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
        "basis": [row_to_str(row) for row in sub.rows],
        "tN": ratio_to_str(lattice.scaled_t_n(sub.key), realization.level_slopes[1]),
        "levels": levels,
    }


def cmd_build_filtration(args, ordered, profile, partition) -> tuple[dict, int]:
    # transversality is checked against every good subobject
    check_cap(ordered.dimension, _cap(args))
    _, realization = _realize(ordered, not args.no_modify)
    filtration = build_transverse_filtration(ordered, profile, realization, args.seed)
    return {
        "seed": args.seed,
        "attempts": filtration.attempts,
        "bases": [_mat_json(b) for b in filtration.vectors],
        "weights": [list(row) for row in profile.weights],
    }, 0


def cmd_verify_admissible(args, ordered, profile, partition) -> tuple[dict, int]:
    # the filtration is checked against every good, the subspaces are
    # enumerated
    cap = _cap(args)
    check_cap(ordered.dimension, cap)
    edges, realization = _realize(ordered, not args.no_modify)
    filtration = build_transverse_filtration(ordered, profile, realization, args.seed)
    result = check_admissible(
        ordered, profile, realization, filtration, cap=cap, seed=args.seed
    )
    return {
        "seed": args.seed,
        "attempts": filtration.attempts,
        "modified": not args.no_modify,
        "edges": _edges_json(edges),
        "verdict": result.as_dict(),
    }, 0 if result.ok else 1


def cmd_equivalence(args, ordered, profile, partition) -> tuple[dict, int]:
    chain = _slope_chain(ordered, profile)
    shuffle = _emerton_condition(ordered, profile)
    agree = chain.ok == shuffle.ok
    return {
        "slopeChain": chain.as_dict(),
        "emerton": shuffle.as_dict(),
        "agree": agree,
    }, 0 if agree else 3


def cmd_fuzz_special(args) -> tuple[dict, int]:
    result = fuzz_special_pairs(args.trials, args.seed)
    return {"seed": args.seed, **result}, 0 if result["failures"] == 0 else 1


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
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        fields, code = _run_spec(args) if "spec" in args else args.func(args)
    except (TransversalityError, OSError, ValueError) as exc:
        # SpecError, CapExceededError and json.JSONDecodeError are ValueErrors
        _write({"command": args.command, "error": f"{type(exc).__name__}: {exc}"})
        return 2
    report = {"command": args.command, **fields}
    if args.timing:
        report["timing_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    _write(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
