"""Command-line interface.

Subcommands: gen, corona, chil, verify, bounds, fixture. Exit codes are a
stable contract: 0 resolved/valid, 1 invalid, 2 indeterminate, 64 usage,
74 I/O. stdout carries the primary artifact, stderr the diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import sys

from . import constructions, graphs, locating

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_IO = 74


class UsageError(Exception):
    pass


class _Help(Exception):
    """Carries the text that -h asks for, for :func:`main` to write."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


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


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once and shared by every :func:`main` call."""
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
    p.set_defaults(run=_cmd_gen, human=operator.itemgetter("graph"))

    p = sub.add_parser("corona", help="corona product of two graph files")
    p.add_argument("gfile")
    p.add_argument("hfile")
    p.set_defaults(run=_cmd_corona, human=_human_corona)

    p = sub.add_parser("chil", help="exact locating-chromatic number")
    p.add_argument("gfile")
    p.set_defaults(run=_cmd_chil, human=_human_chil)

    p = sub.add_parser("verify", help="check a coloring against a graph")
    p.add_argument("gfile")
    p.add_argument("coloringfile")
    p.set_defaults(run=_cmd_verify, human=_human_verify)

    p = sub.add_parser("bounds", help="corona-product bounds for G and H")
    p.add_argument("gfile")
    p.add_argument("hfile")
    p.set_defaults(run=_cmd_bounds, human=_human_bounds)

    p = sub.add_parser("fixture", help="emit a certified reference bundle")
    p.set_defaults(human=_json_line)
    fixtures = p.add_subparsers(dest="name", required=True)
    fixtures.add_parser("theorem2").set_defaults(run=_cmd_theorem2)
    p = fixtures.add_parser("star")
    p.add_argument("n", type=int)
    p.set_defaults(run=_cmd_star)
    p = fixtures.add_parser("empty-corona")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(run=_cmd_empty_corona)

    return parser


def _cmd_gen(args) -> tuple:
    g = graphs.generate(args.family, *args.params)
    return EXIT_OK, {"graph": graphs.serialize_graph(g)}


def _cmd_corona(args) -> tuple:
    product, cmap = graphs.corona(_load_graph(args.gfile), _load_graph(args.hfile))
    graph = graphs.serialize_graph(product)
    return EXIT_OK, {"graph": graph, "map": cmap.to_json_dict()}


def _cmd_chil(args) -> tuple:
    result = locating.chi_L(_load_graph(args.gfile), args.budget)
    code = EXIT_INDETERMINATE if result.value is None else EXIT_OK
    return code, result.to_json_dict()


def _cmd_verify(args) -> tuple:
    report = locating.verify(_load_graph(args.gfile), _load_coloring(args.coloringfile))
    return EXIT_OK if report.locating else EXIT_INVALID, report.to_json_dict()


def _cmd_bounds(args) -> tuple:
    g, h = _load_graph(args.gfile), _load_graph(args.hfile)
    report = constructions.best_corona_bounds(g, h, args.budget)
    code = EXIT_INDETERMINATE if report.indeterminate else EXIT_OK
    return code, report.to_json_dict()


def _cmd_theorem2(args) -> tuple:
    return EXIT_OK, constructions.fixture_theorem2().to_json_dict()


def _cmd_star(args) -> tuple:
    result = constructions.star_corona_coloring(args.n)
    return EXIT_OK, {"construction": result.to_json_dict()}


def _cmd_empty_corona(args) -> tuple:
    g = graphs.generate("path", args.n)
    result = constructions.empty_corona_coloring(g, args.k)
    return EXIT_OK, {"construction": result.to_json_dict()}


def _human_corona(payload) -> str:
    # The map goes on a comment line, so the output is a graph file.
    return f"{payload['graph']}# map {_json_line(payload['map'])}"


def _human_chil(payload) -> str:
    if payload["value"] is None:
        lo, hi = payload["interval"]
        return f"indeterminate: chi_L in [{lo}, {hi}] (budget exhausted)\n"
    certificate = _json_line(payload["certificate"])
    return f"chi_L = {payload['value']}\ncertificate: {certificate}"


def _human_verify(payload) -> str:
    verdict = payload["verdict"]
    if verdict["locating"]:
        return "locating coloring: yes\n"
    kind = "code collision" if verdict["proper"] else "improper"
    return f"locating coloring: no ({kind}); witness: {_json_line(payload['witness'])}"


def _human_bounds(payload) -> str:
    return (f"lower = {payload['lower']} ({payload['lower_tag']})\n"
            f"upper = {payload['upper']} ({payload['upper_tag']})\n"
            f"tags: {_json_line(payload['tags'])}")


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one command; write its payload, or under ``--format human`` only
    the text rendered from it. Every error becomes its exit code here."""
    try:
        args = build_parser().parse_args(argv)
        if args.budget <= 0:
            raise UsageError("--budget must be positive")
        code, payload = args.run(args)
        text = (args.human if args.format == "human" else _json_line)(payload)
    except _Help as exc:
        code, text = EXIT_OK, str(exc)
    except UsageError as exc:
        return _fail(EXIT_USAGE, f"usage error: {exc}")
    except _IOFailure as exc:
        return _fail(EXIT_IO, f"io error: {exc}")
    except (graphs.ParseError, graphs.InputError,
            locating.DisconnectedGraphError) as exc:
        if args.command in ("gen", "fixture"):
            # These read no file, so the bad value is on the command line.
            return _fail(EXIT_USAGE, f"usage error: {exc}")
        return _fail(EXIT_INVALID, f"invalid input: {exc}")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail(EXIT_IO, "io error: stdout was closed")
    return code


if __name__ == "__main__":
    sys.exit(main())
