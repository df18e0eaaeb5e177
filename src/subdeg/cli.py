"""Command line front end.

Subcommands: analyze (one group file), construct (the built-in families),
verify-corpus (sweep a directory and/or the built-in corpus), mu, and
factorizations. Exit codes: 0 all checks pass, 1 an asserted property is
violated, 2 usage or IO error, or out of memory: a MemoryError anywhere in a
command prints `error: out of memory` to stderr, since it says nothing about
the group's properties.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import corpus
from .groups import CapExceeded
from .numtheory import maximum_cliques


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subdeg",
        description="Subdegrees, coprime suborbit structure, mu, and factorizations of permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one group file")
    p.add_argument("file")
    p.add_argument("--point", type=int, default=1, metavar="K", help="1-based base point (default 1)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the report as JSON")
    fmt.add_argument("--csv", action="store_true", help="emit the report as CSV")

    p = sub.add_parser("construct", help="build a group from a named family")
    p.add_argument("family", choices=sorted(corpus.FAMILY_BUILDERS))
    p.add_argument("params", nargs="+", type=int, help="family parameters, e.g. 7 3")
    p.add_argument("--out", metavar="FILE", help="write the group file here")
    p.add_argument("--analyze", action="store_true", dest="do_analyze", help="also print the analysis report")

    p = sub.add_parser("verify-corpus", help="sweep group files and built-in constructions")
    p.add_argument("--dir", metavar="DIR", help="directory of group .json files")
    p.add_argument("--builtin", action="store_true", help="include the built-in corpus (default when no --dir)")
    p.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="worker processes, at most one per usable core (default 1)",
    )
    p.add_argument("--json", metavar="OUT", dest="json_out", help="write the JSON aggregate to this file ('-' for stdout)")

    for command, text in [
        ("mu", "mu of a group file via subgroup enumeration"),
        ("factorizations", "coprime factorizations of a group file"),
    ]:
        p = sub.add_parser(command, help=text)
        p.add_argument("file")
        p.add_argument(
            # no default here: parsing must not import the lattice module
            "--subgroup-cap", type=positive_int, metavar="N",
            help="largest group order for subgroup enumeration (default 2000)",
        )

    return parser


def _bool_word(v) -> str:
    return "true" if v else "false"


def _seq(values, empty: str) -> str:
    return " ".join(str(x) for x in values) if values else empty


def _print_report(r: corpus.CoprimeReport) -> None:
    print(f"name: {r.name}")
    print(f"degree: {r.degree}")
    print(f"order: {r.order}")
    print(f"transitive: {_bool_word(r.transitive)}")
    print(f"primitive: {_bool_word(r.primitive)}")
    if r.transitive:
        print(f"rank: {r.rank}")
        print(f"subdegrees: {_seq(r.subdegrees, 'none')}")
        print(f"distinct non-trivial subdegrees: {_seq(r.distinct_nontrivial_subdegrees, 'none')}")
        print(f"max coprime clique: {_seq(r.max_coprime_clique, 'empty')} (size {r.clique_size})")
        print(f"maximum clique count: {len(maximum_cliques(r.distinct_nontrivial_subdegrees))}")
        print(f"weiss: {r.weiss_ok}")
        print(f"neumann: {'pass' if r.neumann_ok else 'fail'}")
        if r.theorem_ok is None:
            print("theorem (clique size <= 2): not-applicable (imprimitive)")
        else:
            print(f"theorem (clique size <= 2): {'pass' if r.theorem_ok else 'FAIL'}")
    for s in r.skipped_checks:
        print(f"skipped: {s}")


def _load_or_fail(path: str):
    try:
        return corpus.load_group(path)
    except corpus.GroupFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return None


def _cmd_analyze(args) -> int:
    G = _load_or_fail(args.file)
    if G is None:
        return 2
    if not 1 <= args.point <= G.degree:
        print(f"error: --point must be in 1..{G.degree}", file=sys.stderr)
        return 2
    report = corpus.analyze(G, args.point - 1)
    if args.json:
        print(json.dumps(corpus.report_to_dict(report), indent=2, ensure_ascii=False))
    elif args.csv:
        sys.stdout.write(corpus.report_to_csv([report]))
    else:
        _print_report(report)
    return 1 if report.violates else 0


def _cmd_construct(args) -> int:
    builder = corpus.FAMILY_BUILDERS[args.family]
    try:
        G = builder(*args.params)
    except TypeError:
        print(f"error: wrong number of parameters for {args.family}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        try:
            corpus.write_group(args.out, G)
        except OSError as e:
            print(f"error: {args.out}: {e.strerror or e}", file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    if args.do_analyze:
        report = corpus.analyze(G)
        _print_report(report)
        return 1 if report.violates else 0
    if not args.out:
        print(corpus.group_to_json(G, G.label or args.family))
    return 0


def _cmd_verify_corpus(args) -> int:
    try:
        result = corpus.verify_corpus(directory=args.dir, include_builtin=args.builtin, jobs=args.jobs)
    except NotADirectoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json_out == "-":
        # keep stdout valid JSON when piping
        sys.stdout.write(result.to_json())
        return result.exit_code
    for entry in result.entries:
        name = entry["name"]
        if entry["degree"] is None:
            reason = "; ".join(entry["skipped_checks"] or ["unreadable"])
            print(f"skip  {name}: {reason}")
            continue
        status = "FAIL" if name in result.violations else "ok  "
        clique = entry["clique_size"]
        print(
            f"{status}  {name}: degree={entry['degree']} order={entry['order']} "
            f"primitive={_bool_word(entry['primitive'])} clique_size={clique}"
        )
    print(f"{result.total} entries, {len(result.violations)} violations")
    if result.violations:
        print("violations: " + " ".join(result.violations))
    if args.json_out:
        try:
            Path(args.json_out).write_text(result.to_json(), encoding="utf-8")
        except OSError as e:
            print(f"error: {args.json_out}: {e.strerror or e}", file=sys.stderr)
            return 2
    return result.exit_code


def _cmd_lattice(args) -> int:
    from . import lattice  # only mu and factorizations pay for it

    G = _load_or_fail(args.file)
    if G is None:
        return 2
    try:
        lat = lattice.all_subgroups_small(G, cap=args.subgroup_cap or lattice.SUBGROUP_CAP)
    except CapExceeded as e:
        print(f"skipped: {e}")
        return 0
    print(f"group: {G.label or args.file}")
    if args.command == "mu":
        print(f"order: {lat.group_order}")
        print(f"subgroups: {len(lat)}")
        print(f"maximal subgroup indices: {_seq(sorted({s.index for s in lat.maximal()}), 'none')}")
        print(f"mu = {lattice.mu(G, lat)}")
        return 0
    facs = lattice.coprime_factorizations(G, lat)
    print(f"coprime factorizations: {len(facs)}")
    for f in facs:
        tag = "  [maximal pair]" if f.both_maximal else ""
        print(
            f"  |A|={f.a.order} index={f.index_a}  x  |B|={f.b.order} index={f.index_b}{tag}"
        )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "construct": _cmd_construct,
        "verify-corpus": _cmd_verify_corpus,
        "mu": _cmd_lattice,
        "factorizations": _cmd_lattice,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: an IO error. On devnull, fd 1 takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
