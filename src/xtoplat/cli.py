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
3 not-X-top (with witness), 4 semiring axiom failure, 141 output pipe
closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import repeat

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
from .poset import FinitePoset, _selected, _size_sorted, chain, forest
from .semiring import (
    FiniteSemiring,
    SpectrumReport,
    bni,
    ideal_label,
    ideals,
    s3,
    spec_poset,
    spec_space,
    spectrum,
)
from .separation import (
    POINT_COLUMNS,
    REPORT_FLAGS,
    PointClassification,
    SeparationReport,
    _report_and_points_in_index_order,
    report_and_points,
)
from .topology import XTopSpace, from_poset
from .verify import run_suites

# the boolean fields of SpectrumReport, in field order
_SPECTRUM_FLAGS = [name for name in SpectrumReport._fields if name.startswith("is_")]

# the point table's header, and each column's cell for a false and a true
# flag, padded to its header
_POINT_HEADER = " ".join(header for _, header, _ in POINT_COLUMNS)
_POINT_CELLS = [("no".ljust(len(h)), "yes".ljust(len(h))) for h in _POINT_HEADER.split()]


def _yes(value: bool) -> str:
    return "yes" if value else "no"


def _write_lines(out, lines: list[str]) -> None:
    """The lines, each ended by a newline, in one write."""
    out.write("\n".join(lines) + "\n")


def _separation_lines(
    report: SeparationReport, points: tuple[PointClassification, ...]
) -> list[str]:
    lines = [
        f"points ({len(points)}): " + " ".join(p.label for p in points),
        f"K.dim: {report.kdim}",
    ]
    lines += [f"{name}: {_yes(getattr(report, name))}" for name, _ in REPORT_FLAGS]
    lines.append("components: " + " | ".join(map(",".join, report.components)))
    lines.append("quasicomponents: " + " | ".join(map(",".join, report.quasicomponents)))
    if points:
        width = max(len(p.label) for p in points)
        lines.append(f"{'point'.ljust(width)} {_POINT_HEADER}")
        lines += [
            f"{p.label.ljust(width)} {' '.join(map(tuple.__getitem__, _POINT_CELLS, p[1:]))}"
            for p in points
        ]
    return lines


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
        _write_lines(out, _separation_lines(report, points))
    return 0


def _cmd_spec(args, out) -> int:
    R = _semiring_from_args(args)
    report = spectrum(R)
    all_ideals = ideals(R)

    # the chosen primes under inclusion: the closed sets are its up-sets
    # (semiring module docstring), so no lattice or space is built
    P = spec_poset(R, args.subspace)
    full = (1 << P.n) - 1
    opens = [
        list(_selected(P.labels, U))
        for U in _size_sorted(full & ~C for C in P.upset_masks())
    ]
    separation = _report_and_points_in_index_order(P)
    if args.json:
        payload = {
            "labels": list(R.labels),
            "ideals": [list(_selected(R.labels, I)) for I in all_ideals],
            "spec": [list(_selected(R.labels, I)) for I in report.spec],
            "max": [list(_selected(R.labels, I)) for I in report.max],
            "min_primes": [list(_selected(R.labels, I)) for I in report.min_primes],
            "jacobson": list(_selected(R.labels, report.jacobson)),
            "nilradical": list(_selected(R.labels, report.nilradical)),
            "prime_radical": list(_selected(R.labels, report.prime_radical)),
            "opens": opens,
            "kdim": report.kdim,
            "flags": {name: getattr(report, name) for name in _SPECTRUM_FLAGS},
            "subspace": args.subspace,
            "separation": report_to_json(*separation),
        }
        print(dumps(payload), file=out)
        return 0

    lines = [
        f"semiring on {R.n} elements: " + " ".join(R.labels),
        f"ideals ({len(all_ideals)}): " + " ".join(map(ideal_label, repeat(R), all_ideals)),
        "Spec: " + " ".join(map(ideal_label, repeat(R), report.spec)),
        "Max: " + " ".join(map(ideal_label, repeat(R), report.max)),
        "Min: " + " ".join(map(ideal_label, repeat(R), report.min_primes)),
        "jacobson: " + ideal_label(R, report.jacobson),
        "nilradical: " + ideal_label(R, report.nilradical),
        f"K.dim(R): {report.kdim}",
    ]
    lines += [f"{name}: {_yes(getattr(report, name))}" for name in _SPECTRUM_FLAGS]
    lines.append(
        f"topology opens ({args.subspace}): "
        + " ".join("{" + ",".join(U) + "}" for U in opens)
    )
    lines.append(f"-- separation report for Spec(R) subspace '{args.subspace}' --")
    _write_lines(out, lines + _separation_lines(*separation))
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
        lines = []
        for r in results:
            lines.append(r.summary())
            lines += (f"  {failure}" for failure in r.failures)
        _write_lines(out, lines)
    return 0 if all(r.ok for r in results) else 1


def _cmd_export(args, out) -> int:
    if args.bni is not None or args.s3 or args.table is not None:
        source = spec_space(_semiring_from_args(args), args.subspace)
    else:
        source = _source_from_args(args)
    if args.format == "dot":
        out.write(space_to_dot(source, annotate_closed=args.closed_sets))
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


def _parser_and_commands() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser]
]:
    """The parser, and the parser of each subcommand by its name."""
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
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parser_and_commands()[0]


# built on the first main call and reused after
_parsers = cache(_parser_and_commands)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, in one pass when argv names a
    subcommand first and that subcommand's parser reads all the rest.

    The full parser hands everything after the subcommand's name to that
    subcommand's parser, so both paths give the same namespace, and a
    subcommand's own refusals and help come from its parser on both.  A
    line the subcommand leaves partly unread, or that names none first,
    takes the full parser, which makes the refusals that are its own.
    """
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, unread = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not unread:
            return args
    return parser.parse_args(argv)


_SOURCE_FIELDS = {
    "classify": ["forest", "chain", "poset", "space"],
    "spec": ["bni", "s3", "table"],
    "export": ["forest", "chain", "poset", "space", "bni", "s3", "table"],
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.command in _SOURCE_FIELDS and not _one_source(args, _SOURCE_FIELDS[args.command]):
        print(
            f"error: {args.command} needs exactly one source "
            f"({', '.join('--' + n for n in _SOURCE_FIELDS[args.command])})",
            file=sys.stderr,
        )
        return 2
    try:
        if args.command == "classify":
            code = _cmd_classify(args, out)
        elif args.command == "spec":
            code = _cmd_spec(args, out)
        elif args.command == "verify":
            code = _cmd_verify(args, out)
        else:
            code = _cmd_export(args, out)
        # a reader that closed the pipe shows here, not in the flush at exit
        out.flush()
        return code
    except NotXTopError as err:
        print(f"error: not an X-top carrier: {err}", file=sys.stderr)
        return 3
    except AxiomError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader closed the pipe, as `head` does.  The unwritten bytes
        # go to the null device, so the flush at exit has nothing to
        # report; 141 is what a shell reports for a process SIGPIPE ends
        if out is sys.stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (XtoplatError, ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
