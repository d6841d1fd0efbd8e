"""Regenerate ``d4_classes.json``, the input table of the d4-queries workload.

For every subgroup class of the D4 square with |H| <= 16 (in census order)
it records the order, the invariant factors of H^2(H, C*) (the box the query
stream draws psi coordinates from), whether omega trivializes on it at
k = 0 and k = 1, and whether ``module_rank_double`` raises FormulaNotClosed
there for every psi in the box (the known defect; the script stops if it
raises for only some).  The admissibility flags pin which queries must get
the NotTrivializing reply; the ``unclosed`` flags fix how many queries of a
pass hit the defect.  Takes a few minutes:

    python3 perfbench/make_d4_classes.py
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_ORDER = 16
TWISTS = (0, 1)


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import tdmc

    base = tdmc.group_from_spec("D4")
    contexts = [tdmc.double_context(base, k) for k in TWISTS]
    census = tdmc.subgroups_up_to_conjugacy(contexts[0].ambient)

    def unclosed(ctx, H, h2) -> bool:
        raised = []
        for coords in itertools.product(*(range(f) for f in h2)):
            pair, _ = tdmc.pair_from_coords(ctx, H, coords)
            try:
                tdmc.module_rank_double(ctx, pair)
                raised.append(False)
            except tdmc.FormulaNotClosed:
                raised.append(True)
        if any(raised) != all(raised):
            raise RuntimeError(f"FormulaNotClosed for only some psi on {H}")
        return all(raised)

    classes = []
    for index, cls in enumerate(census):
        H = cls.rep
        if H.order > MAX_ORDER:
            continue
        h2 = tdmc.cohomology_cstar(H.as_group, 2).invariant_factors
        admissible = [
            tdmc.solve_trivialization(ctx.omega, H, ctx.modulus) is not None
            for ctx in contexts
        ]
        classes.append(
            {
                "index": index,
                "order": H.order,
                "h2": h2,
                "admissible": admissible,
                "unclosed": [ok and unclosed(ctx, H, h2) for ok, ctx in zip(admissible, contexts)],
            }
        )
    table = {
        "group": "D4",
        "twists": list(TWISTS),
        "census_size": len(census),
        "max_order": MAX_ORDER,
        "classes": classes,
    }
    with open(os.path.join(HERE, "d4_classes.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for key in ("group", "twists", "census_size", "max_order"):
            fh.write(f"  {json.dumps(key)}: {json.dumps(table[key])},\n")
        fh.write('  "classes": [\n')
        fh.write(",\n".join(f"    {json.dumps(c)}" for c in classes))
        fh.write("\n  ]\n}\n")


if __name__ == "__main__":
    main()
