"""Command-line surface.

Subcommands: classify, rank, fiber-functors, cohomology, verify-paper.
Groups come from builtin names or JSON files (``--group @path.json``); the
twist is an integer coordinate against the degree-3 C* generator.  Output is
a fixed-width table or JSON, byte-identical across identical invocations.
Exit codes: 0 success, 1 engine/mismatch errors, 2 usage or group-spec
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .cohomology import cohomology_cstar
from .errors import BadGroupSpec, NotTrivializing, TdmcError, UsageError
from .groups import (
    FiniteGroup,
    SubgroupClass,
    builtin_names,
    group_from_spec,
    subgroups_up_to_conjugacy,
)
from .modcat import (
    DoubleContext,
    _pair_at_coords,
    classify_class,
    classify_pairs,
    double_context,
    fiber_functors,
    module_rank_double,
)
from .verification import census_labels, verify_reference_tables

__all__ = ["main"]


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def load_group(spec: str) -> FiniteGroup:
    """Builtin name or ``@path.json``; every failure becomes BadGroupSpec."""
    try:
        if spec.startswith("@"):
            path = spec[1:]
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except OSError as exc:
                raise BadGroupSpec(f"cannot read group file {path!r}: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise BadGroupSpec(
                    f"group file {path!r} is not valid JSON: {exc}"
                ) from exc
            return group_from_spec(payload)
        return group_from_spec(spec)
    except BadGroupSpec:
        raise
    except TdmcError as exc:
        raise BadGroupSpec(str(exc)) from exc


def _double_context_from_args(args) -> Tuple[DoubleContext, int]:
    ctx = double_context(load_group(args.group), args.omega)
    return ctx, ctx.omega_k


def _labels(ctx: DoubleContext, census: Sequence[SubgroupClass]) -> Dict[int, str]:
    named = census_labels(ctx, census)
    if named is not None:
        return named
    return {i: f"C{i + 1}" for i in range(len(census))}


def _parse_coords(text: str) -> Tuple[int, ...]:
    s = text.strip()
    if not s:
        return ()
    try:
        return tuple(int(p.strip()) for p in s.split(","))
    except ValueError:
        raise UsageError(f"--psi expects comma-separated integers, got {text!r}")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _h2_str(factors) -> str:
    return "x".join(f"Z/{f}" for f in factors) if factors else "-"


def _psi_str(coords) -> str:
    return ",".join(map(str, coords)) if coords else "-"


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload: dict) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True))


def _pair_dict(coords, breakdown) -> dict:
    return {
        "psi": list(coords),
        "orbit_count": len(breakdown.rows),
        "rank": breakdown.total,
        "breakdown": [
            {
                "rep": int(row.representative),
                "stab_order": row.stabilizer.order,
                "m": int(row.count),
            }
            for row in breakdown.rows
        ],
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    ctx, k = _double_context_from_args(args)
    report = classify_pairs(ctx)
    labels = _labels(ctx, report.census)
    ff = fiber_functors(ctx, report)
    if args.format == "json":
        payload = {
            "group": args.group,
            "omega_k": k,
            "modulus": ctx.modulus,
            "admissible": [
                {
                    "class": labels[e.index],
                    "order": e.subgroup.order,
                    "h2_cstar": list(e.h2_factors),
                    "pairs": [_pair_dict(pe.coords, pe.breakdown) for pe in e.pairs],
                }
                for e in report.entries
            ],
            "totals": {"pairs": report.total_pairs, "fiber_functors": len(ff)},
        }
        _emit_json(payload)
        return 0
    # the H2 column fits its longest entry plus two spaces, at least 9 wide
    w = max([9] + [len(_h2_str(e.h2_factors)) + 2 for e in report.entries])
    lines = [f"group: {args.group}   omega: k={k}   modulus: {ctx.modulus}"]
    lines.append(f"{'class':<6}{'|H|':>4}  {'H2':<{w}}{'psi':<7}{'orbits':>6}{'rank':>6}")
    for e in report.entries:
        for pe in e.pairs:
            lines.append(
                f"{labels[e.index]:<6}{e.subgroup.order:>4}  "
                f"{_h2_str(e.h2_factors):<{w}}{_psi_str(pe.coords):<7}"
                f"{len(pe.breakdown.rows):>6}{pe.breakdown.total:>6}"
            )
    lines.append(f"pairs: {report.total_pairs}   fiber functors: {len(ff)}")
    _emit("\n".join(lines))
    return 0


def cmd_rank(args) -> int:
    ctx, k = _double_context_from_args(args)
    census = subgroups_up_to_conjugacy(ctx.ambient)
    labels = _labels(ctx, census)
    by_label = {v.upper(): i for i, v in labels.items()}
    ci = by_label.get(args.subgroup.upper())
    if ci is None:
        valid = ", ".join(labels[i] for i in sorted(labels))
        raise UsageError(f"unknown subgroup class {args.subgroup!r}; valid: {valid}")
    label = labels[ci]
    H = census[ci].rep
    if args.psi is not None:
        coords = _parse_coords(args.psi)
        try:
            pair, reduced, factors = _pair_at_coords(ctx, H, coords)
        except ValueError as exc:
            raise UsageError(f"class {label}: {exc}") from exc
        shown = [(reduced, module_rank_double(ctx, pair))]
    else:
        entry = classify_class(ctx, census[ci], ci)
        if entry is None:
            raise NotTrivializing(
                f"omega does not trivialize on class {label} at k={k}; "
                "no pairs are supported there"
            )
        factors = entry.h2_factors
        shown = [(pe.coords, pe.breakdown) for pe in entry.pairs]
    if args.format == "json":
        payload = {
            "group": args.group,
            "omega_k": k,
            "class": label,
            "order": H.order,
            "h2_cstar": list(factors),
            "pairs": [_pair_dict(c, b) for c, b in shown],
        }
        _emit_json(payload)
        return 0
    lines = [
        f"group: {args.group}   omega: k={k}   class: {label}   "
        f"|H|={H.order}   H2: {_h2_str(factors)}"
    ]
    for coords, breakdown in shown:
        lines.append(
            f"psi {_psi_str(coords)}   orbits {len(breakdown.rows)}   "
            f"rank {breakdown.total}"
        )
        for row in breakdown.rows:
            lines.append(
                f"  rep {int(row.representative):<4} "
                f"stabilizer {row.stabilizer.order:<4} simples {int(row.count)}"
            )
    _emit("\n".join(lines))
    return 0


def cmd_fiber_functors(args) -> int:
    ctx, k = _double_context_from_args(args)
    report = classify_pairs(ctx)
    labels = _labels(ctx, report.census)
    ff_ids = {id(pe) for pe in fiber_functors(ctx, report)}
    found = [
        (labels[e.index], pe.coords)
        for e in report.entries
        for pe in e.pairs
        if id(pe) in ff_ids
    ]
    if args.format == "json":
        payload = {
            "group": args.group,
            "omega_k": k,
            "count": len(found),
            "pairs": [{"class": lab, "psi": list(c)} for lab, c in found],
        }
        _emit_json(payload)
        return 0
    lines = [f"group: {args.group}   omega: k={k}"]
    lines.append(f"fiber functors: {len(found)}")
    for lab, coords in found:
        lines.append(f"{lab:<6} psi {_psi_str(coords)}")
    _emit("\n".join(lines))
    return 0


def cmd_cohomology(args) -> int:
    base = load_group(args.group)
    h = cohomology_cstar(base, args.degree)
    factors = list(h.invariant_factors)
    if args.format == "json":
        _emit_json(
            {"group": args.group, "degree": args.degree, "invariant_factors": factors}
        )
        return 0
    _emit(
        f"group: {args.group}   H^{args.degree} over C*: "
        + (_h2_str(factors) if factors else "trivial")
    )
    return 0


def cmd_verify(args) -> int:
    base = load_group(args.group) if args.group else None
    sections = verify_reference_tables(base)
    all_ok = all(sec.passed for sec in sections)
    if args.format == "json":
        payload = {
            "passed": all_ok,
            "sections": [
                {
                    "name": sec.name,
                    "passed": sec.passed,
                    "items": [
                        {"label": i.label, "passed": i.passed, "detail": i.detail}
                        for i in sec.items
                    ],
                }
                for sec in sections
            ],
        }
        _emit_json(payload)
        return 0 if all_ok else 1
    lines = []
    total = failed = 0
    for sec in sections:
        lines.append(f"[{'PASS' if sec.passed else 'FAIL'}] {sec.name}")
        for item in sec.items:
            total += 1
            if item.passed:
                lines.append(f"    ok {item.label}: {item.detail}")
            else:
                failed += 1
                lines.append(f"    MISMATCH {item.label}: {item.detail}")
    lines.append(
        f"{total - failed}/{total} checks passed"
        if failed
        else f"all {total} checks passed"
    )
    _emit("\n".join(lines))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, omega: bool = True) -> None:
    p.add_argument(
        "--group",
        default="S3",
        metavar="SPEC",
        help="builtin name (%s) or @path to a JSON group file"
        % ", ".join(builtin_names()),
    )
    if omega:
        p.add_argument(
            "--omega",
            type=int,
            default=0,
            metavar="K",
            help="twist: K times the degree-3 C* generator (reduced mod its order)",
        )
    p.add_argument("--format", choices=("json", "table"), default="table")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdmc",
        description="Module categories over twisted doubles of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify", help="all pairs (subgroup class, 2-cochain) with ranks"
    )
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("rank", help="rank breakdown for one subgroup class")
    _add_common(p)
    p.add_argument(
        "--subgroup", required=True, metavar="CLASS", help="class label, e.g. H7 or C3"
    )
    p.add_argument(
        "--psi",
        metavar="COORDS",
        help="comma-separated torsor coordinates; default: all classified pairs",
    )
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("fiber-functors", help="pairs whose module category has rank 1")
    _add_common(p)
    p.set_defaults(func=cmd_fiber_functors)

    p = sub.add_parser("cohomology", help="C* group cohomology of the base group")
    _add_common(p, omega=False)
    p.add_argument("--degree", type=int, choices=(2, 3), required=True)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser(
        "verify-paper", help="check the engine against the bundled reference tables"
    )
    p.add_argument(
        "--group",
        default=None,
        metavar="SPEC",
        help="a group isomorphic to the reference base (default: the builtin)",
    )
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its diagnostic
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (UsageError, BadGroupSpec) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TdmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
