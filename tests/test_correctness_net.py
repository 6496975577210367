"""The constructive route against the slope chain on equal-total streams.

order -> modify -> realize -> filter -> verify runs on seeded equal-total
instances of dimension 3 to 8, half of which fail a slope-chain prefix, so
no instance stops at the total-equality check.  Every instance runs with
two filtration seeds.  The sha256 of all reports pins their bytes.
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
REPORTS_SHA256 = "d1389d65846a53dbedc05e5cb536207abba432946e9e4226e7227726c4934d27"


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
            if not report.ok:
                witness = report.witness
                assert witness["kind"] == "witness"
                assert Fraction(witness["tH"]) > Fraction(witness["tN"])
            digest.update(json.dumps(report.as_dict(), sort_keys=True).encode())
        if spec.dimension >= 7:
            high[chain] += 1
    # the stream reaches dimensions 7-8 with both verdicts
    assert high[True] >= 3 and high[False] >= 3
    assert digest.hexdigest() == REPORTS_SHA256
