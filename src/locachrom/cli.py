"""Command-line interface.

Subcommands: gen, corona, chil, verify, bounds, fixture. Exit codes are a
stable contract: 0 resolved/valid, 1 invalid, 2 indeterminate, 64 usage,
74 I/O. stdout carries the primary artifact, stderr the diagnostics.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constructions, graphs, locating

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_IO = 74


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise graphs.InputError(f"{path} is not UTF-8 text: {exc}") from exc


class _IOFailure(Exception):
    pass


def _load_graph(path: str) -> graphs.Graph:
    return graphs.parse_graph(_read_text(path))


def _load_coloring(path: str) -> locating.Coloring:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Not JSON, an integer past the digit limit, or nesting too deep.
        raise graphs.InputError(f"bad coloring file {path}: {exc}") from exc
    return locating.Coloring.from_json_dict(data)


def build_parser() -> _Parser:
    parser = _Parser(prog="locachrom", description=__doc__)
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--budget", type=int, default=locating.DEFAULT_BUDGET,
        help="search budget in tree nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a standard graph family")
    p.add_argument("family")
    p.add_argument("params", type=int, nargs="*")

    p = sub.add_parser("corona", help="corona product of two graph files")
    p.add_argument("gfile")
    p.add_argument("hfile")

    p = sub.add_parser("chil", help="exact locating-chromatic number")
    p.add_argument("gfile")

    p = sub.add_parser("verify", help="check a coloring against a graph")
    p.add_argument("gfile")
    p.add_argument("coloringfile")

    p = sub.add_parser("bounds", help="corona-product bounds for G and H")
    p.add_argument("gfile")
    p.add_argument("hfile")

    p = sub.add_parser("fixture", help="emit a certified reference bundle")
    p.add_argument("name", choices=("theorem2", "star", "empty-corona"))
    p.add_argument("params", type=int, nargs="*")

    return parser


def _cmd_gen(args) -> int:
    try:
        g = graphs.generate(args.family, *args.params)
    except graphs.InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = graphs.serialize_graph(g)
    if args.format == "json":
        print(_dump({"graph": text}))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_corona(args) -> int:
    g = _load_graph(args.gfile)
    h = _load_graph(args.hfile)
    product, cmap = graphs.corona(g, h)
    text = graphs.serialize_graph(product)
    if args.format == "json":
        print(_dump({"graph": text, "map": cmap.to_json_dict()}))
    else:
        # The map goes on a comment line, so the output is a graph file.
        sys.stdout.write(text)
        print(f"# map {_dump(cmap.to_json_dict())}")
    return EXIT_OK


def _cmd_chil(args) -> int:
    g = _load_graph(args.gfile)
    result = locating.chi_L(g, args.budget)
    if args.format == "json":
        print(_dump(result.to_json_dict()))
    elif result.value is not None:
        print(f"chi_L = {result.value}")
        print(f"certificate: {_dump(result.certificate.to_json_dict())}")
    else:
        lo, hi = result.interval
        print(f"indeterminate: chi_L in [{lo}, {hi}] (budget exhausted)")
    return EXIT_OK if result.value is not None else EXIT_INDETERMINATE


def _cmd_verify(args) -> int:
    g = _load_graph(args.gfile)
    coloring = _load_coloring(args.coloringfile)
    report = locating.verify(g, coloring)
    if args.format == "json":
        print(_dump(report.to_json_dict()))
    elif report.locating:
        print("locating coloring: yes")
    else:
        kind = "improper" if not report.proper else "code collision"
        print(f"locating coloring: no ({kind}); witness: {_dump(report.witness)}")
    return EXIT_OK if report.locating else EXIT_INVALID


def _cmd_bounds(args) -> int:
    g = _load_graph(args.gfile)
    h = _load_graph(args.hfile)
    report = constructions.best_corona_bounds(g, h, args.budget)
    if args.format == "json":
        print(_dump(report.to_json_dict()))
    else:
        print(f"lower = {report.lower} ({report.lower_tag})")
        print(f"upper = {report.upper} ({report.upper_tag})")
        print(f"tags: {_dump(report.tags)}")
    return EXIT_INDETERMINATE if report.indeterminate else EXIT_OK


def _fixture_bundle(name: str, params: list) -> dict:
    if name == "theorem2":
        if params:
            raise UsageError("fixture theorem2 takes no parameters")
        fx = constructions.fixture_theorem2()
        return {
            "graph": graphs.serialize_graph(fx.graph),
            "map": fx.corona_map.to_json_dict(),
            "construction": fx.result.to_json_dict(),
            "labels": list(fx.labels),
            "codes": {label: list(code) for label, code in fx.expected_codes.items()},
        }
    if name == "star":
        if len(params) != 1:
            raise UsageError("fixture star requires one parameter n")
        result = constructions.star_corona_coloring(params[0])
    elif name == "empty-corona":
        if len(params) != 2:
            raise UsageError("fixture empty-corona requires parameters n k")
        n, k = params
        g = graphs.generate("path", n)
        result = constructions.empty_corona_coloring(g, k)
    else:  # pragma: no cover - argparse restricts the choices
        raise UsageError(f"unknown fixture {name}")
    return {"construction": result.to_json_dict()}


def _cmd_fixture(args) -> int:
    print(_dump(_fixture_bundle(args.name, args.params)))
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "corona": _cmd_corona,
    "chil": _cmd_chil,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "fixture": _cmd_fixture,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.budget <= 0:
            raise UsageError("--budget must be positive")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _IOFailure as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (graphs.ParseError, graphs.InputError,
            locating.DisconnectedGraphError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run():  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
