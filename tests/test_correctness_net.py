"""The constructive route against the slope chain on equal-total streams.

order -> modify -> realize -> filter -> verify runs on seeded equal-total
instances of dimension 3 to 8, half of which fail a slope-chain prefix, so
no instance stops at the total-equality check.  Every instance runs with
two filtration seeds.  Every ok rests on chain certificates and every
failure on a stable good witness.  The sha256 of all reports pins their
bytes.

Unmodified realizations reach the candidate search, which the modified
stream never does; a second digest pins those reports.
"""

import hashlib
import json
from fractions import Fraction

from filtadm.filtration import build_transverse_filtration, check_admissible
from filtadm.frobenius import build_modified_frobenius, realize_matrices
from filtadm.slopes import check_slope_chain
from helpers import equal_total_stream

STREAM_SEED = 1
STREAM_COUNT = 40
FILTRATION_SEEDS = (0, 1)
# re-pinned when chain certificates took the place of the candidate
# search: one table row per class with its bound, no verdict moved
REPORTS_SHA256 = "a42db46694422cc3fb555d08d652753090c7dbad51187898c5e608e20da84613"
# computed before the search ordered its candidates on piece ids instead
# of `Subobject` rows
UNMODIFIED_SEED = 3
UNMODIFIED_COUNT = 100
UNMODIFIED_SHA256 = "b41c3a195b175de18b81bed454a02fb53fe18b5b5df6b687c6d62d84c8a84618"
# an unmodified stream whose search meets candidates with t_H = t_N; the
# digest was computed before the change that added this test
TIES_SEED = 28
TIES_COUNT = 40
TIES_SHA256 = "b482fbfed8b60a092a8d98ad36d95c978ae0bf59cfb21a8b4ac53718ea61a2d1"


def test_constructive_route_matches_slope_chain_up_to_dimension_8():
    stream = equal_total_stream(STREAM_SEED, STREAM_COUNT, max_dim=8, min_summands=3)
    digest = hashlib.sha256()
    high = {True: 0, False: 0}
    for spec, profile in stream:
        chain = check_slope_chain(spec, profile).ok
        real = realize_matrices(spec, build_modified_frobenius(spec))
        for seed in FILTRATION_SEEDS:
            filt = build_transverse_filtration(spec, profile, real, seed=seed)
            report = check_admissible(spec, profile, real, filt, seed=seed)
            assert report.ok == chain, (spec, profile, seed)
            if report.ok:
                assert report.proof == "certificate"
            else:
                witness = report.witness
                assert witness["kind"] == "witness" and witness["source"] == "good"
                assert Fraction(witness["tH"]) > Fraction(witness["tN"])
            digest.update(json.dumps(report.as_dict(), sort_keys=True).encode())
        if spec.dimension >= 7:
            high[chain] += 1
    # the stream reaches dimensions 7-8 with both verdicts
    assert high[True] >= 3 and high[False] >= 3
    assert digest.hexdigest() == REPORTS_SHA256


def test_unmodified_reports_through_the_search_pinned():
    stream = equal_total_stream(UNMODIFIED_SEED, UNMODIFIED_COUNT, max_dim=7)
    digest = hashlib.sha256()
    searched = {True: 0, False: 0}
    for spec, profile in stream:
        real = realize_matrices(spec)
        for seed in FILTRATION_SEEDS:
            filt = build_transverse_filtration(spec, profile, real, seed=seed)
            report = check_admissible(spec, profile, real, filt, seed=seed)
            witness = report.witness or {}
            if report.proof == "search" or witness.get("source") == "search":
                searched[report.ok] += 1
            digest.update(json.dumps(report.as_dict(), sort_keys=True).encode())
    # both search outcomes occur: ok by search and a searched witness
    assert searched[True] >= 5 and searched[False] >= 5
    assert digest.hexdigest() == UNMODIFIED_SHA256


def test_unmodified_search_ties_are_not_violations():
    # a searched candidate violates only with t_H > t_N: a tie leaves an ok
    # standing and never becomes the witness
    stream = equal_total_stream(TIES_SEED, TIES_COUNT, max_dim=6)
    digest = hashlib.sha256()
    ties = 0
    for spec, profile in stream:
        real = realize_matrices(spec)
        for seed in FILTRATION_SEEDS:
            filt = build_transverse_filtration(spec, profile, real, seed=seed)
            report = check_admissible(spec, profile, real, filt, seed=seed)
            # the searched candidates are the rows with an exact t_H
            gaps = [
                Fraction(row["tH"]) - Fraction(row["tN"])
                for row in report.table
                if "tH" in row
            ]
            ties += gaps.count(0)
            if report.ok:
                assert all(gap <= 0 for gap in gaps), (spec, profile, seed)
            else:
                witness = report.witness
                assert Fraction(witness["tH"]) > Fraction(witness["tN"])
            digest.update(json.dumps(report.as_dict(), sort_keys=True).encode())
    # the stream cannot drift away from the ties
    assert ties >= 1
    assert digest.hexdigest() == TIES_SHA256
