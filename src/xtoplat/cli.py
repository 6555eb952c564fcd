"""Command-line surface.

Subcommands:

* ``classify`` builds a space from a forest spec, a chain, a poset JSON
  file or a lattice+X space JSON file, and prints the full separation
  report plus the per-point classification table.
* ``spec`` builds a finite commutative semiring (B(n, i), the
  three-element local semidomain, or a JSON table file), prints its
  spectrum report and the separation report of the chosen part of
  Spec(R) (``--subspace all|max|min|drop-zero``).  The report, the point
  rows and the open sets are read off the inclusion order of the chosen
  primes, whose up-sets are the closed sets; no lattice or space is
  built.
* ``verify`` runs the exhaustive theorem suites (xct, quarter, discrete,
  forest, bni, all) within explicit bounds.
* ``export`` emits DOT (Hasse diagram / specialization order) or the
  space JSON for any of the above sources.  For a semiring source the
  JSON lattice is the radical-ideal lattice, which carries the topology
  ``spec`` reports (the intersections of primes, plus R), not the
  lattice of all ideals: four elements (6), (3), (2), R for the integers
  mod 12, where the full ideal lattice has six.

Exit codes: 0 success, 1 verification failure, 2 parse error,
3 not-X-top (with witness), 4 semiring axiom failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .errors import AxiomError, NotXTopError, XtoplatError
from .formats import (
    dumps,
    parse_forest_spec,
    poset_from_json,
    report_to_json,
    semiring_from_json,
    space_from_json,
    space_to_dot,
    space_to_json,
)
from .poset import FinitePoset, _by_size, chain, forest
from .semiring import FiniteSemiring, bni, ideals, s3, spec_poset, spec_space, spectrum
from .separation import (
    PointClassification,
    SeparationReport,
    _report_and_points_in_index_order,
    report_and_points,
)
from .topology import XTopSpace, from_poset
from .verify import run_suites

_BOOL_FIELDS = [
    "t0",
    "t_quarter",
    "t_half",
    "t_threequarter",
    "t1",
    "t1half_kc",
    "t2",
    "r0",
    "r1",
    "tf",
    "es",
    "discrete",
    "irreducible",
    "connected",
    "sober",
    "spectral",
    "quasi_hausdorff",
    "totally_separated",
    "totally_disconnected",
    "ind_zero_dim",
    "stone",
    "amin",
    "bmax",
    "pamin",
    "pbmax",
    "complete_max_property",
]

# the boolean fields of SpectrumReport, in field order
_SPECTRUM_FLAGS = [
    "is_local",
    "is_reduced",
    "is_vnr",
    "is_pi_regular",
    "is_add_idempotent",
    "is_mul_idempotent",
    "is_idempotent",
    "is_subtractive_semiring",
    "is_semidomain",
    "is_fmax",
    "is_fmin",
    "is_bmax",
    "is_amin",
    "is_pamin",
    "is_pbmax",
]

_POINT_COLUMNS = [
    ("closed", "is_closed"),
    ("kerneled", "is_kerneled"),
    ("isolated", "is_isolated"),
    ("reg.open", "is_regular_open"),
    ("excluded", "is_excluded"),
    ("min", "is_min"),
    ("max", "is_max"),
    ("SI", "in_SI"),
    ("CSI", "in_CSI"),
    ("abs.min", "is_abs_min"),
    ("barely.max", "is_barely_max"),
]


def _yes(value: bool) -> str:
    return "yes" if value else "no"


def _render_separation(
    report: SeparationReport, points: tuple[PointClassification, ...], out
) -> None:
    print(f"points ({len(points)}): " + " ".join(p.label for p in points), file=out)
    print(f"K.dim: {report.kdim}", file=out)
    for name in _BOOL_FIELDS:
        print(f"{name}: {_yes(getattr(report, name))}", file=out)
    print(
        "components: " + " | ".join(",".join(part) for part in report.components),
        file=out,
    )
    print(
        "quasicomponents: "
        + " | ".join(",".join(part) for part in report.quasicomponents),
        file=out,
    )
    if points:
        width = max(len(p.label) for p in points)
        header = " ".join(name for name, _ in _POINT_COLUMNS)
        print(f"{'point'.ljust(width)} {header}", file=out)
        for p in points:
            row = " ".join(
                _yes(getattr(p, attr)).ljust(len(name))
                for name, attr in _POINT_COLUMNS
            )
            print(f"{p.label.ljust(width)} {row}", file=out)


def _load_json_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _source_from_args(args) -> FinitePoset | XTopSpace:
    """The poset a forest, chain or poset source names, or the space file."""
    if args.forest is not None:
        return forest(parse_forest_spec(args.forest))
    if args.chain is not None:
        return chain(args.chain)
    if args.poset is not None:
        return poset_from_json(_load_json_file(args.poset))
    return space_from_json(_load_json_file(args.space))


def _semiring_from_args(args) -> FiniteSemiring:
    if args.bni is not None:
        n, i = args.bni
        return bni(n, i)
    if args.s3:
        return s3()
    return semiring_from_json(_load_json_file(args.table))


def _one_source(args, names: list[str]) -> bool:
    # by identity: --chain 0 is a given source, though 0 == False
    values = [getattr(args, name) for name in names]
    return sum(value is not None and value is not False for value in values) == 1


def _cmd_classify(args, out) -> int:
    # a poset source is classified off its order, without its up-set lattice
    report, points = report_and_points(_source_from_args(args))
    if args.json:
        print(dumps(report_to_json(report, points)), file=out)
    else:
        _render_separation(report, points, out)
    return 0


def _cmd_spec(args, out) -> int:
    R = _semiring_from_args(args)
    report = spectrum(R)
    all_ideals = ideals(R)

    def label_set(members) -> list[str]:
        return [R.labels[a] for a in sorted(members)]

    # the chosen primes under inclusion: the closed sets are its up-sets
    # (semiring module docstring), so no lattice or space is built
    P = spec_poset(R, args.subspace)
    full = (1 << P.n) - 1
    opens = [
        [P.labels[k] for k in sorted(U)]
        for U in _by_size(full & ~U for U in P.upset_masks())
    ]
    separation = _report_and_points_in_index_order(P)
    if args.json:
        payload = {
            "labels": list(R.labels),
            "ideals": [label_set(I) for I in all_ideals],
            "spec": [label_set(I) for I in report.spec],
            "max": [label_set(I) for I in report.max],
            "min_primes": [label_set(I) for I in report.min_primes],
            "jacobson": label_set(report.jacobson),
            "nilradical": label_set(report.nilradical),
            "prime_radical": label_set(report.prime_radical),
            "opens": opens,
            "kdim": report.kdim,
            "flags": {name: getattr(report, name) for name in _SPECTRUM_FLAGS},
            "subspace": args.subspace,
            "separation": report_to_json(*separation),
        }
        print(dumps(payload), file=out)
        return 0
    print(f"semiring on {R.n} elements: " + " ".join(R.labels), file=out)
    print(f"ideals ({len(all_ideals)}): " + " ".join("{" + ",".join(label_set(I)) + "}" for I in all_ideals), file=out)
    print("Spec: " + " ".join("{" + ",".join(label_set(I)) + "}" for I in report.spec), file=out)
    print("Max: " + " ".join("{" + ",".join(label_set(I)) + "}" for I in report.max), file=out)
    print("Min: " + " ".join("{" + ",".join(label_set(I)) + "}" for I in report.min_primes), file=out)
    print("jacobson: {" + ",".join(label_set(report.jacobson)) + "}", file=out)
    print("nilradical: {" + ",".join(label_set(report.nilradical)) + "}", file=out)
    print(f"K.dim(R): {report.kdim}", file=out)
    for name in _SPECTRUM_FLAGS:
        print(f"{name}: {_yes(getattr(report, name))}", file=out)
    print(f"topology opens ({args.subspace}): " + " ".join("{" + ",".join(U) + "}" for U in opens), file=out)
    print(f"-- separation report for Spec(R) subspace '{args.subspace}' --", file=out)
    _render_separation(*separation, out)
    return 0


def _cmd_verify(args, out) -> int:
    results = run_suites(args.suite, args.max_size, args.max_n)
    if args.json:
        payload = [
            {
                "suite": r.suite,
                "instances": r.instances,
                "checks": r.checks,
                "seconds": round(r.seconds, 3),
                "failures": [
                    {"instance": f.instance, "check": f.check, "witness": f.witness}
                    for f in r.failures
                ],
            }
            for r in results
        ]
        print(dumps(payload), file=out)
    else:
        for r in results:
            print(r.summary(), file=out)
            for failure in r.failures:
                print(f"  {failure}", file=out)
    return 0 if all(r.ok for r in results) else 1


def _cmd_export(args, out) -> int:
    if args.bni is not None or args.s3 or args.table is not None:
        source = spec_space(_semiring_from_args(args), args.subspace)
    else:
        source = _source_from_args(args)
    if args.format == "dot":
        print(space_to_dot(source, annotate_closed=args.closed_sets), end="", file=out)
    else:
        space = from_poset(source) if isinstance(source, FinitePoset) else source
        print(dumps(space_to_json(space)), file=out)
    return 0


def _add_space_sources(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--forest", help="forest spec, e.g. T2+T3 or V2+C3")
    parser.add_argument("--chain", type=int, help="chain with K elements", metavar="K")
    parser.add_argument("--poset", help="poset JSON file", metavar="FILE")
    parser.add_argument("--space", help="lattice+X space JSON file", metavar="FILE")


def _add_semiring_sources(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bni", nargs=2, type=int, metavar=("N", "I"), help="the B(n, i) semiring"
    )
    parser.add_argument(
        "--s3", action="store_true", help="the three-element local semidomain {0, a, 1}"
    )
    parser.add_argument("--table", help="semiring JSON file", metavar="FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xtoplat",
        description="Zariski-like topologies on finite lattices: classification and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="separation report for a space")
    _add_space_sources(p_classify)
    p_classify.add_argument("--json", action="store_true", help="machine output")

    p_spec = sub.add_parser("spec", help="spectrum + separation report for a semiring")
    _add_semiring_sources(p_spec)
    p_spec.add_argument(
        "--subspace",
        choices=["all", "max", "min", "drop-zero"],
        default="all",
        help="which part of Spec(R) carries the reported topology",
    )
    p_spec.add_argument("--json", action="store_true", help="machine output")

    p_verify = sub.add_parser("verify", help="run exhaustive theorem suites")
    p_verify.add_argument(
        "suite", choices=["xct", "quarter", "discrete", "forest", "bni", "all"]
    )
    p_verify.add_argument("--max-size", type=int, default=None, dest="max_size")
    p_verify.add_argument("--max-n", type=int, default=None, dest="max_n")
    p_verify.add_argument("--json", action="store_true", help="machine output")

    p_export = sub.add_parser("export", help="DOT / JSON export of a space")
    _add_space_sources(p_export)
    _add_semiring_sources(p_export)
    p_export.add_argument(
        "--subspace",
        choices=["all", "max", "min", "drop-zero"],
        default="all",
    )
    p_export.add_argument("--format", choices=["dot", "json"], default="dot")
    p_export.add_argument(
        "--closed-sets",
        action="store_true",
        dest="closed_sets",
        help="annotate the DOT output with the closed sets",
    )
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first :func:`main` call and reused after."""
    return build_parser()


_SOURCE_FIELDS = {
    "classify": ["forest", "chain", "poset", "space"],
    "spec": ["bni", "s3", "table"],
    "export": ["forest", "chain", "poset", "space", "bni", "s3", "table"],
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    if args.command in _SOURCE_FIELDS and not _one_source(args, _SOURCE_FIELDS[args.command]):
        print(
            f"error: {args.command} needs exactly one source "
            f"({', '.join('--' + n for n in _SOURCE_FIELDS[args.command])})",
            file=sys.stderr,
        )
        return 2
    try:
        if args.command == "classify":
            return _cmd_classify(args, out)
        if args.command == "spec":
            return _cmd_spec(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        return _cmd_export(args, out)
    except NotXTopError as err:
        print(f"error: not an X-top carrier: {err}", file=sys.stderr)
        return 3
    except AxiomError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except (XtoplatError, ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
