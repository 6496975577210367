"""The three benchmark workloads, their items and their oracles.

Every workload is a closed loop with one client: one process, no
threads, and each item starts only after the previous one has finished.
An item is one instance (verify_stream, criteria_stream) or one command
line call (cli_reports).  `prepare` draws the items from the seed, writes
any input files and warms up; `execute` is the timed call; `verify` checks
the result against the item's oracle and returns an error string, or None
when the output is correct.

Library functions are looked up on their module at call time, so that the
wrappers `spans.Tracer` installs are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from instances import Draws, digest, draw_instance, to_model

# Scratch directory for generated inputs and trace files, relative to the
# checkout root.
WORK_DIR = ".perfbench_work"


class Workload:
    name = ""

    def __init__(self, fm, seed: int, root: Path) -> None:
        self.fm = fm
        self.seed = seed
        self.root = root
        self.draws = Draws()
        self.timed: list = []      # cycled through by the timed phase
        self.traced: list = []     # fixed list for the traced run
        self.instances: list = []  # everything drawn, for the digest

    def digest(self) -> str:
        return digest(self.instances)

    def execute(self, item):
        raise NotImplementedError

    def verify(self, item, result) -> str | None:
        raise NotImplementedError

    def label(self, item) -> str:
        raise NotImplementedError

    def unrepeated(self) -> list:
        """Items whose repeat check still needs a second call."""
        return []


class VerifyStream(Workload):
    """order -> modify -> realize -> filter -> verify, one instance per item."""

    name = "verify_stream"
    # (summand lengths, embeddings) per slot, dimensions 3 to 6 weighted
    # toward 5 and 6.  Dimensions 3-4 take the lowest 30% of a block, a
    # tight band of dimension-5 draws the middle 40%, and four dimension-6
    # draws of like cost the top 20%, so that p50 and p90 each fall inside
    # a band of like items and not on the edge between two.  Embeddings
    # are fixed per slot because a second one adds a third to the cost.
    # Dimensions 7 and 8 cost 1 to 8 s per instance, so they sit only in
    # the traced list: in the timed phase a handful of them would decide
    # the run, and p90 needs a hundred items in one run.
    TIMED_SLOTS = (
        ((1, 2), 1), ((1, 1, 1), 2), ((2, 2), 1), ((2, 2), 2), ((1, 1, 2), 1),
        ((1, 1, 2), 2),
        ((2, 3), 1), ((1, 2, 2), 1), ((2, 3), 1), ((1, 2, 2), 1), ((2, 3), 1),
        ((1, 2, 2), 1), ((2, 3), 2), ((1, 1, 3), 1),
        ((1, 2, 2), 2), ((1, 1, 3), 2),
        ((3, 3), 2), ((1, 2, 3), 1), ((2, 2, 2), 1), ((3, 3), 2),
    )
    TRACED_SLOTS = (
        ((1, 2), 1), ((1, 1, 1), 2), ((2, 2), 1), ((1, 1, 2), 2), ((2, 3), 1),
        ((1, 2, 2), 2), ((1, 1, 3), 1), ((3, 3), 1), ((2, 2, 2), 2), ((1, 2, 3), 1),
        ((2, 2, 3), 1), ((2, 3, 3), 1),
    )
    TIMED_BLOCKS = 12
    MAX_TWIST = 6

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        slots = self.TIMED_SLOTS * self.TIMED_BLOCKS + self.TRACED_SLOTS
        items = [self._item(rng, *slot) for slot in slots]
        self.timed = items[: -len(self.TRACED_SLOTS)]
        self.traced = items[-len(self.TRACED_SLOTS):]
        for item in self.timed[:2]:
            self.execute(item)

    def _item(self, rng: random.Random, shape, embeddings) -> dict:
        fm = self.fm
        inst = draw_instance(rng, shape, self.draws, embeddings, self.MAX_TWIST, 1, 2)
        inst["filtrationSeed"] = rng.randrange(2**31)
        self.instances.append(inst)
        spec, profile = to_model(fm, inst)
        ordered = fm.ordering.canonical_order(spec)[0]
        expect = fm.slopes.check_slope_chain(ordered, profile).ok
        return {"spec": spec, "profile": profile, "seed": inst["filtrationSeed"],
                "dim": sum(shape), "expect": expect}

    def execute(self, item):
        fm = self.fm
        spec, profile, seed = item["spec"], item["profile"], item["seed"]
        ordered = fm.ordering.canonical_order(spec)[0]
        edges = fm.frobenius.build_modified_frobenius(ordered)
        real = fm.frobenius.realize_matrices(ordered, edges)
        filt = fm.filtration.build_transverse_filtration(ordered, profile, real, seed=seed)
        return fm.filtration.check_admissible(ordered, profile, real, filt, seed=seed)

    def verify(self, item, report) -> str | None:
        if report.ok != item["expect"]:
            return f"verdict {report.ok} but slope chain {item['expect']}"
        if report.ok:
            return None
        w = report.witness
        if w is None or w.get("kind") != "witness":
            return f"failure without a subspace witness: {w}"
        if not Fraction(w["tH"]) > Fraction(w["tN"]):
            return f"witness with tH {w['tH']} <= tN {w['tN']}"
        return None

    def label(self, item) -> str:
        return f"{self.name}.dim{item['dim']}"


class CriteriaStream(Workload):
    """Slope chain, all block orders and the shuffle condition per instance."""

    name = "criteria_stream"
    # (summand lengths, embeddings, h, verdict) per slot.  The shuffle scan
    # walks prod(b_i + 1) selections, 576 to 13824 here, and each selection
    # sums a weight prefix over every embedding, so its cost grows with
    # embeddings * h.  A failing instance stops the scan at its first
    # violating selection, so the verdict is fixed per slot too: the two
    # failing slots sit in the cheap group.  Six and seven summands take
    # the lowest 30% of a block, eight the middle 40% at one cost, and
    # nine the top 30%, the top 20% again at one cost, so that p50 and p90
    # each fall inside a group of like items and not on the edge between
    # two.
    SLOTS = (
        ((1, 1, 2, 2, 3, 3), 2, 1, False), ((1, 1, 2, 2, 2, 3, 3), 2, 1, False),
        ((1, 1, 1, 2, 3, 3, 3), 1, 2, True),
        ((1, 1, 1, 2, 2, 2, 3, 3), 1, 2, True), ((1, 1, 1, 1, 2, 3, 3, 3), 2, 1, True),
        ((1, 1, 1, 2, 2, 2, 3, 3), 2, 1, True), ((1, 1, 1, 1, 2, 3, 3, 3), 1, 2, True),
        ((1, 1, 1, 1, 1, 2, 3, 3, 3), 1, 1, True),
        ((1, 1, 1, 2, 2, 2, 3, 3, 3), 1, 2, True), ((1, 1, 1, 2, 2, 2, 3, 3, 3), 2, 1, True),
    )
    TIMED_BLOCKS = 32
    TRACED_BLOCKS = 2
    # Wide twists spread the block slopes, so that failing draws are common
    # enough to fill the failing slots quickly.
    MAX_TWIST = 20

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        timed = self.SLOTS * self.TIMED_BLOCKS
        traced = self.SLOTS * self.TRACED_BLOCKS
        items = [self._item(rng, *slot) for slot in timed + traced]
        self.timed, self.traced = items[: len(timed)], items[len(timed):]
        for item in self.timed[:2]:
            self.execute(item)

    def _item(self, rng: random.Random, shape, embeddings, h, passes) -> dict:
        fm = self.fm
        while True:
            inst = draw_instance(rng, shape, self.draws, embeddings, self.MAX_TWIST, h, 3)
            spec, profile = to_model(fm, inst)
            ordered = fm.ordering.canonical_order(spec)[0]
            if fm.slopes.check_slope_chain(ordered, profile).ok == passes:
                break
            self.draws.off_verdict += 1
        self.instances.append(inst)
        return {"spec": ordered, "profile": profile, "summands": len(shape)}

    def execute(self, item):
        fm = self.fm
        spec, profile = item["spec"], item["profile"]
        return (
            fm.slopes.check_slope_chain(spec, profile),
            fm.slopes.check_all_block_orders(spec, profile),
            fm.emerton.check_emerton_condition(spec, profile),
        )

    def verify(self, item, result) -> str | None:
        chain, blocks, shuffle = result
        if chain.ok != shuffle.ok:
            return f"slope chain {chain.ok} but shuffle condition {shuffle.ok}"
        if blocks.ok and not chain.ok:
            return "all block orders pass but the slope chain fails"
        return None

    def label(self, item) -> str:
        return f"{self.name}.summands{item['summands']}"


class CliReports(Workload):
    """`filtadm.cli.main(argv)` in process, stdout captured."""

    name = "cli_reports"
    # (summand lengths, embeddings, full) of the seeded specs.  Every spec
    # goes through every spec subcommand except subobjects and
    # verify-admissible, which run on the specs marked full only.  Those
    # two cost 20-30 ms at dimension 3 and 60-100 ms at dimension 4, so
    # six specs of dimension 3 or 4 get them: with the three README calls
    # at ex1a they form the band around p90, and fuzz-special and the two
    # dimension-4 specs sit above it.  On dimension 5 their cost swings
    # with the lattice of each draw, and this workload is about per-call
    # cost on small inputs.
    SLOTS = (
        ((1, 2), 1, True), ((1, 1, 1), 2, True), ((2, 1), 2, True), ((1, 2), 2, True),
        ((2, 2), 1, True), ((1, 3), 2, True), ((1, 1, 2), 1, False), ((2, 1, 1), 2, False),
        ((2, 3), 1, False), ((1, 2, 2), 2, False), ((1, 1, 3), 1, False), ((3, 2), 2, False),
    )
    MAX_TWIST = 4
    FUZZ_TRIALS = "200"

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        work = self.root / WORK_DIR
        work.mkdir(exist_ok=True)

        def d(name):
            return str(self.root / "data" / name)

        calls = [
            (0, ["order", "--spec", d("ex1b_spec.json")]),
            (0, ["check-iii", "--spec", d("ex1a_spec.json"), "--weights", d("weights_m212.json")]),
            (1, ["check-iii", "--spec", d("ex1a_spec.json"), "--weights", d("weights_012.json")]),
            (0, ["check-emerton", "--spec", d("ex1a_spec.json"), "--weights", d("weights_m212.json")]),
            (0, ["build-phi", "--spec", d("ex1a_spec.json")]),
            (0, ["build-phi", "--spec", d("ex3_spec.json")]),
            (0, ["subobjects", "--spec", d("ex1a_spec.json"), "--modified"]),
            (0, ["build-filtration", "--spec", d("ex2_spec.json"), "--weights", d("weights_ex2.json"), "--seed", "7"]),
            (0, ["verify-admissible", "--spec", d("ex1a_spec.json"), "--weights", d("weights_m212.json"), "--seed", "7"]),
            (1, ["verify-admissible", "--spec", d("ex1a_spec.json"), "--weights", d("weights_m212.json"), "--seed", "7", "--no-modify"]),
            (0, ["equivalence", "--spec", d("ex2_spec.json"), "--weights", d("weights_ex2.json")]),
            (0, ["fuzz-special", "--trials", self.FUZZ_TRIALS, "--seed", "0"]),
        ]
        fm = self.fm
        for k, (shape, embeddings, full) in enumerate(self.SLOTS):
            inst = draw_instance(rng, shape, self.draws, embeddings, self.MAX_TWIST, 1, 2)
            self.instances.append(inst)
            spec_path = work / f"spec{k}.json"
            weights_path = work / f"weights{k}.json"
            spec_path.write_text(json.dumps(inst["spec"], indent=2))
            weights_path.write_text(json.dumps({"weights": inst["weights"]}))
            spec, profile = to_model(fm, inst)
            chain = int(not fm.slopes.check_slope_chain(
                fm.ordering.canonical_order(spec)[0], profile).ok)
            sp, wp, seed = str(spec_path), str(weights_path), str(rng.randrange(1000))
            calls += [
                (0, ["order", "--spec", sp]),
                (chain, ["check-iii", "--spec", sp, "--weights", wp]),
                (chain, ["check-emerton", "--spec", sp, "--weights", wp]),
                (0, ["build-phi", "--spec", sp]),
                (0, ["build-filtration", "--spec", sp, "--weights", wp, "--seed", seed]),
                (0, ["equivalence", "--spec", sp, "--weights", wp]),
            ]
            if full:
                calls += [
                    (0, ["subobjects", "--spec", sp, "--modified", "--seed", seed]),
                    (chain, ["verify-admissible", "--spec", sp, "--weights", wp, "--seed", seed]),
                ]
        # Expected refusals, exit 2: a spec whose p is not prime, and an
        # enumeration over the dimension cap.
        bad = dict(self.instances[0]["spec"], p=4)
        bad_path = work / "bad_spec.json"
        bad_path.write_text(json.dumps(bad))
        calls += [
            (2, ["order", "--spec", str(bad_path)]),
            (2, ["subobjects", "--spec", str(work / "spec11.json"), "--cap", "3"]),
        ]
        self.timed = self.traced = [
            {"argv": argv, "expect": code} for code, argv in calls
        ]
        self.reference: dict[tuple, str] = {}
        self.seen: dict[tuple, int] = {}
        for item in self.timed[:2]:
            self.verify(item, self.execute(item))

    def execute(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.fm.cli.main(item["argv"])
        return code, buf.getvalue()

    def verify(self, item, result) -> str | None:
        code, out = result
        key = tuple(item["argv"])
        self.seen[key] = self.seen.get(key, 0) + 1
        if code != item["expect"]:
            return f"{key[0]} exited {code}, expected {item['expect']}"
        try:
            json.loads(out)
        except json.JSONDecodeError as exc:
            return f"{key[0]} printed no JSON report: {exc}"
        ref = self.reference.setdefault(key, out)
        if ref != out:
            return f"{key[0]} printed different bytes on a repeat call"
        return None

    def unrepeated(self) -> list:
        return [i for i in self.timed if self.seen.get(tuple(i["argv"]), 0) < 2]

    def label(self, item) -> str:
        return f"cli.{item['argv'][0]}"


WORKLOADS = {w.name: w for w in (VerifyStream, CriteriaStream, CliReports)}
