"""The three benchmark workloads, driven through tdmc's public API.

A workload prepares its inputs in ``setup`` (timed as set-up), answers one
operation per ``run`` call (timed), and afterwards, untimed, reduces each
output to a JSON ``digest`` and ``check``s it in full.  Engine functions are
looked up on the ``tdmc`` module at call time, so the tracer's rebinding is
seen.  The seed drives only the order of the sweeps' contexts and the
d4-queries stream; the engine receives the generated inputs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

# Per-cocycle (pair count, fiber-functor count) on the Z2xZ2 double, keyed by
# the coordinates of the cocycle along cohomology_cstar(Z2xZ2, 3).generators.
# The untwisted count is derived by hand: 270 = sum over H <= (Z/2)^4 of
# |H^2(H, C*)| = 1 + 15 + 35*2 + 15*8 + 64.
KLEIN_PINNED: Dict[Tuple[int, ...], Tuple[int, int]] = {
    (0, 0, 0): (270, 64),
    (0, 0, 1): (22, 4),
    (0, 1, 0): (22, 4),
    (1, 0, 0): (22, 4),
    (1, 1, 1): (22, 4),
    (0, 1, 1): (30, 0),
    (1, 0, 1): (30, 0),
    (1, 1, 0): (30, 0),
}
KLEIN_CENSUS = 67

D4_QUERIES_PER_TWIST = 60


def _expect(problems: List[str], what: str, got: Any, want: Any) -> None:
    if got != want:
        problems.append(f"{what}: expected {want}, got {got}")


class S3Paper:
    """Base S3, twists k = 0..5; one operation classifies one context."""

    def setup(self, tdmc, seed: int) -> List[Tuple[int, Any]]:
        self.tdmc = tdmc
        base = tdmc.group_from_spec("S3")
        twists = list(range(6))
        random.Random(seed).shuffle(twists)
        return [(k, tdmc.double_context(base, k)) for k in twists]

    def run(self, item):
        tdmc = self.tdmc
        k, ctx = item
        report = tdmc.classify_pairs(ctx)
        ff = tdmc.fiber_functors(ctx, report)
        labels = tdmc.census_labels(ctx)
        duals = None
        if k == 0:
            duals = [
                [tdmc.bimodule_rank(ctx, pe.pair, pe.pair).total for pe in e.pairs]
                for e in report.entries
            ]
        return report, ff, labels, duals

    def digest(self, item, out) -> dict:
        k, _ = item
        report, ff, labels, duals = out
        label = (lambda i: labels[i]) if labels is not None else str
        classes = {}
        for pos, e in enumerate(report.entries):
            classes[label(e.index)] = {
                "order": e.subgroup.order,
                "h2": list(e.h2_factors),
                "pairs": [
                    [list(pe.coords), len(pe.breakdown.rows), pe.breakdown.total]
                    for pe in e.pairs
                ],
                "duals": duals[pos] if duals is not None else None,
            }
        ff_ids = {id(pe) for pe in ff}
        ff_classes = sorted(
            [label(e.index), list(pe.coords)]
            for e in report.entries
            for pe in e.pairs
            if id(pe) in ff_ids
        )
        return {
            "k": k,
            "labelled": labels is not None and len(labels) == report.census_size,
            "census": report.census_size,
            "pairs": report.total_pairs,
            "classes": classes,
            "fiber_functors": ff_classes,
        }

    def check(self, item, out, digest: dict) -> List[str]:
        ref = self.tdmc.verification.load_reference()
        k = digest["k"]
        row = str(min(k, 6 - k))  # k and 6-k give the same tables
        problems: List[str] = []
        _expect(problems, f"k={k} census labelled", digest["labelled"], True)
        _expect(problems, f"k={k} census size", digest["census"], len(ref["classes"]))
        _expect(
            problems,
            f"k={k} admissible classes",
            sorted(digest["classes"]),
            sorted(ref["admissible"][row]),
        )
        _expect(problems, f"k={k} pair count", digest["pairs"], ref["pair_counts"][row])
        if k == 0:
            for label, got in digest["classes"].items():
                info = ref["classes"].get(label, {})
                _expect(
                    problems,
                    f"{label} order/h2",
                    [got["order"], got["h2"]],
                    [info.get("order"), info.get("h2")],
                )
                _expect(
                    problems,
                    f"{label} orbits/rank",
                    sorted({(p[1], p[2]) for p in got["pairs"]}),
                    [(info.get("double_cosets"), info.get("rank"))],
                )
                _expect(problems, f"{label} dual ranks", got["duals"], info.get("dual_ranks"))
            _expect(
                problems,
                "untwisted fiber functors",
                digest["fiber_functors"],
                sorted([label, []] for label in ref["fiber_functors"]["0"]),
            )
        else:
            _expect(
                problems,
                f"k={k} fiber functors",
                len(digest["fiber_functors"]),
                ref["fiber_functors"]["twisted"],
            )
        return problems


class KleinTwists:
    """Base Z2xZ2 with all eight classes of H^3(Z2xZ2, C*) passed as omega=."""

    def setup(self, tdmc, seed: int) -> List[Tuple[Tuple[int, ...], Any]]:
        self.tdmc = tdmc
        base = tdmc.group_from_spec("Z2xZ2")
        gens = tdmc.cohomology_cstar(base, 3).generators
        classes = list(itertools.product(range(2), repeat=len(gens)))
        random.Random(seed).shuffle(classes)
        items = []
        for bits in classes:
            omega = tdmc.Cochain.zero(base, 3, gens[0].modulus)
            for bit, gen in zip(bits, gens):
                if bit:
                    omega = omega + gen
            items.append((bits, tdmc.double_context(base, omega=omega)))
        return items

    def run(self, item):
        tdmc = self.tdmc
        _, ctx = item
        report = tdmc.classify_pairs(ctx)
        return report, tdmc.fiber_functors(ctx, report)

    def digest(self, item, out) -> dict:
        bits, _ = item
        report, ff = out
        ff_ids = {id(pe) for pe in ff}
        return {
            "omega": list(bits),
            "census": report.census_size,
            "pairs": [
                [e.index, list(pe.coords), pe.breakdown.total, id(pe) in ff_ids]
                for e in report.entries
                for pe in e.pairs
            ],
        }

    def check(self, item, out, digest: dict) -> List[str]:
        tdmc = self.tdmc
        bits, ctx = item
        report, ff = out
        problems: List[str] = []
        _expect(problems, f"omega={bits} census", report.census_size, KLEIN_CENSUS)
        _expect(
            problems,
            f"omega={bits} pairs/fiber functors",
            (report.total_pairs, len(ff)),
            KLEIN_PINNED[bits],
        )
        diag = tdmc.diagonal_pair(ctx)
        for e in report.entries:
            for pe in e.pairs:
                _expect(
                    problems,
                    f"omega={bits} class {e.index} psi {pe.coords} rank vs diagonal",
                    pe.breakdown.total,
                    tdmc.bimodule_rank(ctx, diag, pe.pair).total,
                )
        _expect(
            problems,
            f"omega={bits} fiber functors are the rank-one pairs",
            sorted(id(pe) for pe in ff),
            sorted(id(pe) for e in report.entries for pe in e.pairs if pe.breakdown.total == 1),
        )
        return problems


class D4Queries:
    """Seeded stream of single-pair rank queries on the D4 double, k = 0 and 1.

    Per twist, the census classes fall into two strata: those on which every
    psi raises FormulaNotClosed (the known defect, as recorded in
    d4_classes.json) and the rest.  Each stratum gets a fixed share of the
    queries, and within it classes are drawn by systematic sampling from the
    census sorted by admissibility and order.  Every seed thus asks about the
    same mix of subgroup orders, gets the same number of failures and about
    the same number of NotTrivializing replies; only the classes and psi
    coordinates change.
    """

    def setup(self, tdmc, seed: int) -> List[Tuple[int, int, Tuple[int, ...]]]:
        self.tdmc = tdmc
        with open(os.path.join(HERE, "d4_classes.json"), encoding="utf-8") as fh:
            table = json.load(fh)
        base = tdmc.group_from_spec(table["group"])
        self.contexts = {k: tdmc.double_context(base, k) for k in table["twists"]}
        self.census = tdmc.subgroups_up_to_conjugacy(self.contexts[0].ambient)
        if len(self.census) != table["census_size"] or any(
            self.census[c["index"]].rep.order != c["order"] for c in table["classes"]
        ):
            raise RuntimeError("D4 census differs from d4_classes.json")
        self.admissible = {
            (k, c["index"]): c["admissible"][pos]
            for c in table["classes"]
            for pos, k in enumerate(table["twists"])
        }
        rng = random.Random(seed)
        n_classes = len(table["classes"])
        stream = []
        for pos, k in enumerate(table["twists"]):
            unclosed = [c for c in table["classes"] if c["unclosed"][pos]]
            n_unclosed = round(D4_QUERIES_PER_TWIST * len(unclosed) / n_classes)
            closed = [c for c in table["classes"] if not c["unclosed"][pos]]
            for stratum, count in (
                (unclosed, n_unclosed),
                (closed, D4_QUERIES_PER_TWIST - n_unclosed),
            ):
                if not count:
                    continue
                stratum = sorted(
                    stratum, key=lambda c: (c["admissible"][pos], c["order"], c["index"])
                )
                step = len(stratum) / count
                offset = rng.random() * step
                for j in range(count):
                    c = stratum[int(offset + j * step)]
                    coords = tuple(rng.randrange(f) for f in c["h2"])
                    stream.append((k, c["index"], coords))
        rng.shuffle(stream)
        return stream

    def run(self, item):
        tdmc = self.tdmc
        k, index, coords = item
        ctx = self.contexts[k]
        try:
            pair, _ = tdmc.pair_from_coords(ctx, self.census[index].rep, coords)
        except tdmc.NotTrivializing:
            return None
        rank = tdmc.module_rank_double(ctx, pair).total
        dual = tdmc.bimodule_rank(ctx, pair, pair).total
        return pair, rank, dual

    def digest(self, item, out) -> Optional[list]:
        return None if out is None else [out[1], out[2]]

    def check(self, item, out, digest) -> List[str]:
        k, index, coords = item
        problems: List[str] = []
        where = f"k={k} class {index} psi {coords}"
        _expect(problems, f"{where} answered", out is not None, self.admissible[(k, index)])
        if out is not None:
            pair, rank, dual = out
            ctx = self.contexts[k]
            _expect(
                problems,
                f"{where} rank vs diagonal",
                rank,
                self.tdmc.bimodule_rank(ctx, self.tdmc.diagonal_pair(ctx), pair).total,
            )
            if dual < 1:
                problems.append(f"{where} dual rank {dual} < 1")
        return problems


WORKLOADS = {
    "s3-paper": S3Paper,
    "klein-twists": KleinTwists,
    "d4-queries": D4Queries,
}
