"""Central-character unitarity and the shuffle valuation condition.

Each summand carries a descending sequence of gamma blocks: the block at
position j (0-based) has valuation v = t_N(top block twisted down j times)
divided by [K:L], strictly decreasing along the summand.  A candidate is a
shuffle of the per-summand sequences together with a contiguous cut into
groups; the pass condition demands, for every candidate and every group
prefix, that the prefix valuation mass dominates the matching weight mass,
with exact equality on the full module (the unitarity of the central
character).

Because shuffles preserve the within-summand order, the set of candidate
prefixes is exactly the set of top selections (j_0, ..., j_{s-1}): take
the top j_i blocks of summand i.  A selection enters the condition only
through its weight count w = sum j_i * h_i and its valuation mass, so the
verdict is a group knapsack, decided exactly in O(s * d * B) steps (s
summands, d the dimension, B the total block count):

* suffix[i][w] is the least valuation mass over the selections of
  summands i..s-1 with weight count w, built backwards from
  suffix[s] = {0: 0};
* the condition fails iff suffix[0][w] < P[w] for some w, where P[w] is
  the sum over embeddings of the w lowest weights.

A failure names the lexicographically first violating selection.  It is
found by fixing j_0, j_1, ... in turn, each to the smallest value that
still has a violating completion (suffix[i+1] answers that at once).  Any
lexicographically smaller selection is smaller at the first coordinate
where the two differ, and that value had no violating completion, so the
result is the first violation in lexicographic order.  The empty and the
full selection have slack exactly 0 once unitarity holds, so the strict
test never picks either.  The tables run on integers: a block's
valuation times [K:L] * den is its integer slope from
`model.scaled_slopes` (den is the common denominator of the base
slopes), and the weight sums are multiplied by the same factor, so the
only Fractions built are the reported slack and unitarity gap; nothing
is rounded.

The explicit candidates are walked only for the report table, capped at
10 total blocks (`candidate_table`); the `Fraction` enumeration of the
same candidates is a test oracle.  The table walks the shuffles and cuts
on the scaled integer slopes.  It cuts each sequence of (scaled slope, h)
pairs once: a candidate's key depends on its shuffle only through that
sequence, so a shuffle that repeats an earlier one's (summands of one
family and twist give many) could add only repeats, and is skipped.  Per
shuffle it keys every interval by the multiset of its (scaled slope, h)
pairs, each grown from the interval one block shorter by one sorted
insertion, and every prefix by its scaled slack, so a cut costs a few
lookups; a row shares its shuffle's order listing and writes its slack
from integers (`model.ratio_to_str`), with no Fraction built.  It stops
enumerating once it has its rows.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    CapExceededError,
    InternalConsistencyError,
    ModuleSpec,
    WeightProfile,
    fraction_to_str,
    ratio_to_str,
    scaled_slopes,
    validate_spec,
)
from .ordering import require_canonical

__all__ = [
    "EmertonVerdict",
    "check_emerton_condition",
    "candidate_table",
    "CANDIDATE_CAP",
]

CANDIDATE_CAP = 10


def _shuffles(sequences: list[tuple]):
    """Every interleaving of the sequences that keeps the order inside each,
    in a fixed order: the first element comes from each nonempty sequence
    in turn."""
    nonempty = [s for s in sequences if s]
    if not nonempty:
        yield ()
        return
    for idx, seq in enumerate(nonempty):
        rest = nonempty[:idx] + [seq[1:]] + nonempty[idx + 1 :]
        head = seq[0]
        for tail in _shuffles(rest):
            yield (head, *tail)


@dataclass(frozen=True)
class EmertonVerdict:
    ok: bool
    failure: str | None = None          # "unitarity" | "prefix" | None
    selection: tuple[int, ...] | None = None   # top blocks taken per summand
    slack: Fraction | None = None
    unitarity_gap: Fraction = Fraction(0)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failure": self.failure,
            "selection": list(self.selection) if self.selection else None,
            "slack": fraction_to_str(self.slack) if self.slack is not None else None,
            "unitarityGap": fraction_to_str(self.unitarity_gap),
        }


def check_emerton_condition(
    spec: ModuleSpec, profile: WeightProfile
) -> EmertonVerdict:
    """Unitarity plus prefix domination over every candidate.

    Decided by the min-mass suffix tables of the module docstring; a
    failure reports the lexicographically first violating selection
    (j_0, ..., j_{s-1}) and its slack.  The spec and profile are validated
    and the order checked in full, whether or not the spec is marked
    canonical.
    """
    validate_spec(spec, profile)
    require_canonical(spec)
    return _emerton_condition(spec, profile)


def _emerton_condition(spec: ModuleSpec, profile: WeightProfile) -> EmertonVerdict:
    """`check_emerton_condition` on a spec and profile already validated,
    the spec in canonical order."""
    sc = scaled_slopes(spec)
    scale = spec.config.deg_K_L * sc.den
    gap = Fraction(sum(sc.totals) - scale * profile.total, sc.den)
    if gap != 0:
        return EmertonVerdict(False, "unitarity", None, None, gap)
    # mass[i][j]: valuation of the top j blocks of summand i, times scale
    mass = [
        list(itertools.accumulate(reversed(sc.blocks(i)), initial=0))
        for i in range(len(sc.sizes))
    ]
    sizes = sc.sizes
    # P[w]: sum over embeddings of the w lowest weights, times scale
    P = [scale * x for x in profile.prefix_sums()]
    suffix = [{0: 0}]
    for i in reversed(range(len(mass))):
        nxt = suffix[-1]
        table: dict[int, int] = {}
        for j, mj in enumerate(mass[i]):
            shift = j * sizes[i]
            for w, m in nxt.items():
                cur = table.get(w + shift)
                if cur is None or m + mj < cur:
                    table[w + shift] = m + mj
        suffix.append(table)
    suffix.reverse()
    if all(m >= P[w] for w, m in suffix[0].items()):
        return EmertonVerdict(True, None, None, None, gap)
    selection = []
    weight = total = 0
    for i, nxt in enumerate(suffix[1:]):
        for j, mj in enumerate(mass[i]):
            w0, m0 = weight + j * sizes[i], total + mj
            if any(m0 + m < P[w0 + w] for w, m in nxt.items()):
                break
        else:
            raise InternalConsistencyError("violating selection lost during backtracking")
        selection.append(j)
        weight, total = w0, m0
    slack = Fraction(total - P[weight], scale)
    return EmertonVerdict(False, "prefix", tuple(selection), slack, gap)


def candidate_table(
    spec: ModuleSpec, profile: WeightProfile, limit: int = 50
) -> list[dict]:
    """Per-candidate minimal prefix slack, for reporting.

    One row per candidate, at most `limit` of them: every shuffle of the
    per-summand block sequences (`_shuffles` order), each with every
    contiguous cut (cut masks in `itertools.product` order), skipping a
    candidate whose groups repeat an earlier one's block multisets.  It is
    computed on the scaled integer slopes: a group is keyed by the
    multiset of its (scaled slope, h) pairs, and a slack times
    [K:L] * den is a scaled slope sum minus a scaled weight sum.  A
    shuffle whose sequence of (scaled slope, h) pairs equals an earlier
    shuffle's is not cut at all: each of its cuts has the same groups, as
    multisets, as the same cut of the earlier one, so every row it could
    add is a repeat, and the rows, their `order` listings and the
    `limit` cut-off are those of the full walk.  The order is checked in
    full, whether or not the spec is marked canonical.
    """
    require_canonical(spec)
    sc = scaled_slopes(spec)
    b = sum(sc.lengths)
    if b > CANDIDATE_CAP:
        raise CapExceededError(f"{b} blocks exceed the candidate cap {CANDIDATE_CAP}")
    scale = spec.config.deg_K_L * sc.den
    P = [scale * x for x in profile.prefix_sums()]
    # per summand, (origin, j, h, scaled slope) with j = 0 the top block
    seqs = [
        tuple((i, j, h, s) for j, s in enumerate(reversed(sc.blocks(i))))
        for i, h in enumerate(sc.sizes)
    ]
    # every cut, in cut-mask order: its groups [a, c) as numbers a * b + c - 1
    # and its inner boundaries
    cuts = []
    for mask in itertools.product((False, True), repeat=b - 1):
        bounds = (0, *(k + 1 for k, cut in enumerate(mask) if cut), b)
        groups = tuple(a * b + c - 1 for a, c in zip(bounds, bounds[1:]))
        cuts.append((groups, bounds[1:-1]))
    pieces: dict[tuple, int] = {}   # group multiset -> small id
    seen = set()
    walked = set()                  # (scaled slope, h) sequences of the shuffles cut
    rows = []
    if limit <= 0:
        return rows
    for order in _shuffles(seqs):
        # a shuffle with an earlier one's sequence keys every cut as that
        # one did, so each row it could add is a repeat
        pairs = tuple((blk[3], blk[2]) for blk in order)
        if pairs in walked:
            continue
        walked.add(pairs)
        # per group [a, c) of the order: its multiset id and dimension, the
        # multiset grown from that of [a, c - 1) by one insertion
        ids = [0] * (b * b)
        dims = [0] * (b * b)
        for a in range(b):
            grp: list[tuple[int, int]] = []
            dim = 0
            for c in range(a, b):
                pair = pairs[c]
                bisect.insort(grp, pair)
                dim += pair[1]
                ids[a * b + c] = pieces.setdefault(tuple(grp), len(pieces))
                dims[a * b + c] = dim
        listing = [[blk[0], blk[1]] for blk in order]
        # slack[k]: scaled slack of the first k blocks
        acc_w = itertools.accumulate(pair[1] for pair in pairs)
        acc_s = itertools.accumulate(pair[0] for pair in pairs)
        slack = [0, *(m - P[w] for w, m in zip(acc_w, acc_s))]
        for groups, inner in cuts:
            key = tuple(map(ids.__getitem__, groups))
            if key in seen:
                continue
            seen.add(key)
            rows.append(
                {
                    "beta": list(map(dims.__getitem__, groups)),
                    "order": listing,
                    "minSlack": ratio_to_str(min(map(slack.__getitem__, inner)), scale)
                    if inner
                    else None,
                }
            )
            if len(rows) == limit:
                return rows
    return rows
