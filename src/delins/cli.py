"""Command line front end.

Subcommands: bounds (code size bound tables), verify (exhaustive checks),
graph (channel graph statistics), search (exact maximum code), codec
(construct/deconstruct edges).  Exit codes: 0 success, 1 failed check,
2 usage, 3 enumeration cap exceeded, 4 search timeout.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from delins import bounds as bnd
from delins import channels as ch
from delins import codec as cdc
from delins import oracle as orc
from delins.channels import DEFAULT_CAP
from delins.errors import CapExceededError, VerificationError
from delins.qstrings import check_alphabet, format_qary, parse_qary

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_TIMEOUT = 4


def _integer(text: str) -> int:
    """An optional ASCII '-' then ASCII digits.  Plain int() also takes a
    '+', underscores, spaces and the digits of other scripts."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"expected a decimal integer, got {text!r}")
    return int(text)


def fraction_decimal(value: Fraction) -> str:
    """Six significant digits, exact rational in, decimal text out."""
    with localcontext() as ctx:
        ctx.prec = 6
        return str(Decimal(value.numerator) / Decimal(value.denominator)).lower()


def _fraction_text(value: Fraction) -> str:
    return f"{bnd.fraction_str(value)} ({fraction_decimal(value)})"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _bound_rows(qs: list[int], ns: list[int], ss: list[int]) -> list[bnd.BoundReport]:
    rows = []
    for q in sorted(set(qs)):
        for n in sorted(set(ns)):
            for s in sorted(set(ss)):
                check_alphabet(q)
                if not 0 <= s <= n:
                    raise ValueError(f"need 0 <= s <= n, got s={s}, n={n}")
                for b in range(s + 1):
                    rows.append(bnd.bound_report(q, n, s, b))
    return rows


def cmd_bounds(args: argparse.Namespace) -> int:
    rows = _bound_rows(args.q, args.n, args.s)
    if args.format == "csv":
        text = "\n".join(bnd.report_csv_lines(rows)) + "\n"
    elif args.format == "json":
        text = json.dumps(bnd.report_json_obj(rows), indent=2) + "\n"
    else:
        lines = []
        header = f"{'q':>2} {'n':>4} {'a':>2} {'b':>2} {'s':>2}  {'generalized':<28} {'best':>4}"
        lines.append(header)
        for r in rows:
            mark = "*" if r.b == r.best_b else " "
            lines.append(
                f"{r.q:>2} {r.n:>4} {r.a:>2} {r.b:>2} {r.s:>2}  "
                f"{_fraction_text(r.generalized):<28} {r.best_b:>4}{mark}"
            )
            if r.b == r.s:
                lines.append(
                    f"   levenshtein={_fraction_text(r.levenshtein)} "
                    f"insertion={_fraction_text(r.insertion_bound)} "
                    f"improvement={_fraction_text(r.improvement)}"
                )
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 2:
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    checks = orc.verify_all_lemmas(args.q, args.max_n, args.cap)
    width = max(len(c.name) for c in checks)
    failed = False
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  {status}  (instances={c.instances})")
        if not c.passed:
            failed = True
            print(f"  counterexample: {c.counterexample}")
    return EXIT_FAIL if failed else EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    q, l, a, b = args.q, args.l, args.a, args.b
    histogram = ch.degree_histogram(q, l, a, b, args.cap)
    graph = None
    if args.export:
        # the built adjacency is the second route to the same degrees
        graph = ch.build_channel_graph(q, l, a, b, args.cap)
        if graph.degree_histogram() != histogram:
            raise VerificationError(
                f"q={q} l={l} a={a} b={b}: the built graph's degree histogram differs "
                "from the one counted over orbit representatives"
            )
    left = sum(histogram.values())
    edges = sum(degree * count for degree, count in histogram.items())
    constructable, upper = orc.edge_sandwich(q, l, a, b)
    inside = constructable <= edges <= upper
    print(f"q={q} l={l} a={a} b={b}")
    print(f"left={left} right={q ** (l + b)}")
    print(f"edges={edges}")
    print(f"constructable={constructable}")
    print(f"upper={upper}")
    print(f"sandwich={'ok' if inside else 'VIOLATED'}")
    dmin, davg, dmax = min(histogram), Fraction(edges, left), max(histogram)
    print(f"degree_min={dmin} degree_avg={_fraction_text(davg)} degree_max={dmax}")
    ratio = Fraction(constructable, edges) if edges else Fraction(0)
    print(f"constructable_ratio={_fraction_text(ratio)}")
    if graph is not None:
        with open(args.export, "w", encoding="utf-8") as fp:
            graph.write_edge_list(fp)
        print(f"edge list written to {args.export}")
    return EXIT_OK if inside else EXIT_FAIL


def cmd_search(args: argparse.Namespace) -> int:
    graph = orc.build_conflict_graph(args.q, args.n, args.s, args.cap)
    cert = orc.max_code_exact(graph, time_limit=args.time_limit)
    kind = "maximum" if cert.exact else "lower bound (search timed out)"
    print(f"q={args.q} n={args.n} s={args.s}")
    print(f"code_size={cert.size} ({kind}, verified={str(cert.verified).lower()})")
    if args.q == 2 and args.s == 1:
        print(f"vt_best={orc.best_vt_size(args.n)}")
    row = bnd.bound_report(args.q, args.n, args.s, bnd.optimal_b(args.q, args.s))
    print(f"levenshtein_bound={_fraction_text(row.levenshtein)}")
    print(f"generalized_bound_at_b={row.b}: {_fraction_text(row.generalized)}")
    print(f"insertion_bound={_fraction_text(row.insertion_bound)}")
    if args.certificate:
        with open(args.certificate, "w", encoding="utf-8") as fp:
            cert.write(fp)
        print(f"certificate written to {args.certificate}")
    return EXIT_OK if cert.exact else EXIT_TIMEOUT


def _read_parameter_file(path: str, q: int) -> tuple[cdc.Qstr, tuple[cdc.InsertTriple, ...]]:
    with open(path, encoding="utf-8") as fp:
        lines = [line.strip() for line in fp if line.strip()]
    first = lines[0].split() if lines else []
    if not 1 <= len(first) <= 2 or first[0] != "z0":
        raise ValueError("parameter file must start with a 'z0 <string>' line")
    z0 = parse_qary(first[1], q) if len(first) > 1 else ()
    triples = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] not in (cdc.LEFT, cdc.RIGHT):
            raise ValueError(f"bad triple line: {line!r} (want 'left|right offset interval')")
        triples.append(cdc.InsertTriple(parts[0], _integer(parts[1]), parse_qary(parts[2], q)))
    return z0, tuple(triples)


def cmd_codec(args: argparse.Namespace) -> int:
    q = args.q
    if args.deconstruct:
        x = parse_qary(args.deconstruct[0], q)
        y = parse_qary(args.deconstruct[1], q)

        def trace(triple: cdc.InsertTriple, rx: cdc.Qstr, ry: cdc.Qstr) -> None:
            if args.trace:
                print(
                    f"{triple.side} {triple.offset} {format_qary(triple.interval, q)}"
                    f" | {format_qary(rx, q)} {format_qary(ry, q)}"
                )

        try:
            z0, triples = cdc.deconstruct(x, y, q, on_step=trace)
        except cdc.NotDeconstructableError as exc:
            print(f"NotDeconstructable: {exc}")
            return EXIT_OK
        parts = [f"z0={format_qary(z0, q)}"]
        parts.extend(
            f"{t.side} {t.offset} {format_qary(t.interval, q)}" for t in triples
        )
        print("; ".join(parts))
        return EXIT_OK
    if args.construct:
        z0, triples = _read_parameter_file(args.construct, q)
        x, y = cdc.construct(z0, triples, q)
        print(f"x={format_qary(x, q)} y={format_qary(y, q)}")
        return EXIT_OK
    # the parser admits exactly one mode, so this is --roundtrip
    if args.l is None or args.a is None or args.b is None:
        raise ValueError("--roundtrip needs --l, --a and --b")
    total = cdc.parameter_count(q, args.l, args.a, args.b)
    if total == 0:
        raise ValueError(
            f"no edge parameter exists at q={q} l={args.l} a={args.a} b={args.b}, "
            "so a round trip would check nothing"
        )
    count, failure = cdc.roundtrip_counterexample(q, args.l, args.a, args.b, args.cap)
    if failure is not None:
        x, y = failure
        print(
            f"round-trip FAILED for x={format_qary(x, q)} y={format_qary(y, q)}"
            f" (parameter {count} of {total})"
        )
        return EXIT_FAIL
    print(f"all {count} parameters round-trip")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delins",
        description="Deletion/insertion channel combinatorics: bounds, graphs, codec, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="emit code size bound tables")
    p_bounds.add_argument("--q", type=_integer, nargs="+", required=True)
    p_bounds.add_argument("--n", type=_integer, nargs="+", required=True)
    p_bounds.add_argument("--s", type=_integer, nargs="+", required=True)
    p_bounds.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_bounds.add_argument("--output", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the exhaustive verification sweep")
    p_verify.add_argument("--q", type=_integer, default=2)
    p_verify.add_argument("--max-n", type=_integer, default=7)
    p_verify.add_argument("--cap", type=_integer, default=DEFAULT_CAP)
    p_verify.set_defaults(func=cmd_verify)

    p_graph = sub.add_parser("graph", help="channel graph statistics")
    p_graph.add_argument("--q", type=_integer, required=True)
    p_graph.add_argument("--l", type=_integer, required=True)
    p_graph.add_argument("--a", type=_integer, required=True)
    p_graph.add_argument("--b", type=_integer, required=True)
    p_graph.add_argument("--cap", type=_integer, default=DEFAULT_CAP)
    p_graph.add_argument("--export", default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_search = sub.add_parser("search", help="exact maximum code search")
    p_search.add_argument("--q", type=_integer, required=True)
    p_search.add_argument("--n", type=_integer, required=True)
    p_search.add_argument("--s", type=_integer, required=True)
    p_search.add_argument("--cap", type=_integer, default=orc.SEARCH_CAP)
    p_search.add_argument("--time-limit", type=float, default=None)
    p_search.add_argument("--certificate", default=None)
    p_search.set_defaults(func=cmd_search)

    p_codec = sub.add_parser("codec", help="construct/deconstruct edges")
    p_codec.add_argument("--q", type=_integer, default=2)
    mode = p_codec.add_mutually_exclusive_group(required=True)
    mode.add_argument("--deconstruct", nargs=2, metavar=("X", "Y"))
    mode.add_argument("--construct", metavar="FILE")
    mode.add_argument("--roundtrip", action="store_true")
    p_codec.add_argument("--l", type=_integer, default=None)
    p_codec.add_argument("--a", type=_integer, default=None)
    p_codec.add_argument("--b", type=_integer, default=None)
    p_codec.add_argument("--trace", action="store_true")
    p_codec.add_argument("--cap", type=_integer, default=DEFAULT_CAP)
    p_codec.set_defaults(func=cmd_codec)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:  # OSError: a path that cannot be opened
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
