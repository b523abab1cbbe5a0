"""Command-line interface.

``decompose`` without ``--algo`` picks the engine per ideal (per file in
directory mode) with ``bench.preferred_engine``: recursive when the closure's
generators are thin (``trie.is_thin``, fewer than two per distinct degree of
the last variable) or its prod(s_j) is at most ``bench.RECURSIVE_BOX_RATIO``
times p^2, incremental otherwise, and incremental whenever ``--trace`` is
given.  ``--stats`` names the engine that ran.

Exit codes: 0 success, 1 verification failure, 2 usage or format error,
3 the oracle's box exceeds ``--budget`` cells: ``verify`` and ``decompose
--algo oracle`` size it as the product over the variables of the number of
distinct degrees (see ``oracle``), however large the exponents.
``decompose`` on a directory handles one file at a time; a failing file is
reported by path and its output file removed, every other output is still
written, and the exit code is the largest of the failing files' codes.

The argument parser is built once per process, on the first ``cli_main``
call, and reused: parsing leaves it unchanged, and help and error text are
written to the streams current at that call.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from .bench import RECURSIVE_BOX_RATIO, measure, preferred_engine, run_sweep, write_csv
from .core import INF
from .files import FormatError, emit_components, emit_ideal, parse_components, parse_ideal
from .oracle import BudgetError, DEFAULT_BUDGET, components_generate
from .randgen import gen_random

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


_ERRORS = (FormatError, BudgetError, ValueError, OSError)


def _exit_code(exc):
    return EXIT_BUDGET if isinstance(exc, BudgetError) else EXIT_USAGE


def _read(path, parse):
    """``parse`` of the text of ``path``; an error in the text names the file."""
    try:
        return parse(Path(path).read_text())
    except (FormatError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _jsonable(x):
    if isinstance(x, float):
        if x == INF:
            return "inf"
        if x == -INF:
            return "-inf"
    if isinstance(x, list):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _decompose_one(g, args, path=None):
    trace = [] if args.trace else None
    algo = args.algo or ("incremental" if args.trace else preferred_engine(g))
    comps, rec = measure(g, algo, trace=trace, budget=args.budget)
    for record in trace or ():
        if path is not None:
            record = {"file": str(path), **record}
        print(json.dumps(_jsonable(record)), file=sys.stderr)
    if args.stats:
        # fields the engine does not report (the oracle's ops, peak_t outside
        # incremental, file outside directory mode) are left out
        fields = [("file", path), ("algo", rec.algorithm), ("n", rec.n), ("p", rec.p),
                  ("l", rec.l), ("ops", rec.ops), ("wall", f"{rec.wall_s:.6f}s"),
                  ("peak_t", rec.peak_t)]
        print("stats: " + " ".join(f"{k}={v}" for k, v in fields if v is not None),
              file=sys.stderr)
    return emit_components(comps)


def _cmd_decompose(args):
    src = Path(args.input)
    if src.is_dir():
        if args.output is None:
            print("error: directory input needs an output directory", file=sys.stderr)
            return EXIT_USAGE
        dst = Path(args.output)
        dst.mkdir(parents=True, exist_ok=True)
        status = EXIT_OK
        for path in sorted(src.glob("*.ideal")):
            out = dst / (path.stem + ".components")
            try:
                out.write_text(_decompose_one(parse_ideal(path.read_text()), args, path))
            except _ERRORS as exc:
                # a stale output from an earlier run must not pass for this one's
                out.unlink(missing_ok=True)
                print(f"error: {path}: {exc}", file=sys.stderr)
                status = max(status, _exit_code(exc))
        return status
    text = _decompose_one(_read(src, parse_ideal), args)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return EXIT_OK


def _cmd_verify(args):
    comps = _read(args.components, parse_components)
    g = _read(args.ideal, parse_ideal)
    if comps.n != g.n:
        print(f"verification failed: the components live in {comps.n} variables, "
              f"the ideal in {g.n}", file=sys.stderr)
        return EXIT_VERIFY
    try:
        comps.validate()
    except ValueError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if not components_generate(comps, g, budget=args.budget):
        print("verification failed: components do not intersect to the ideal",
              file=sys.stderr)
        return EXIT_VERIFY
    print("ok: components are an irredundant decomposition of the ideal")
    return EXIT_OK


def _cmd_gen(args):
    g = gen_random(args.vars, args.gens, args.maxdeg, args.seed, generic=args.generic)
    Path(args.output).write_text(emit_ideal(g))
    print(f"wrote {g.p} generators in {g.n} variables to {args.output}")
    return EXIT_OK


def _cmd_bench(args):
    records = run_sweep(args.suite)
    write_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="monideal",
        description="Irreducible decomposition of monomial ideals.")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="decompose an ideal file (or directory of them)")
    d.add_argument("--algo", choices=["recursive", "incremental", "oracle"],
                   help="force an engine; by default each ideal gets the one it "
                        "favours (recursive when its closure averages fewer than two "
                        "generators per degree of the last variable or prod(s_j) <= "
                        f"{RECURSIVE_BOX_RATIO} p^2, incremental otherwise or with "
                        "--trace)")
    d.add_argument("--trace", action="store_true",
                   help="emit one JSON record per incremental step on stderr")
    d.add_argument("--stats", action="store_true",
                   help="print operation counts and timing on stderr")
    d.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="oracle cell budget")
    d.add_argument("input")
    d.add_argument("output", nargs="?")
    d.set_defaults(func=_cmd_decompose)

    v = sub.add_parser("verify", help="check a component file against an ideal file")
    v.add_argument("components")
    v.add_argument("ideal")
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("gen", help="write a seeded random ideal file")
    r.add_argument("--vars", type=int, required=True)
    r.add_argument("--gens", type=int, required=True)
    r.add_argument("--maxdeg", type=int, required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--generic", action="store_true")
    r.add_argument("output")
    r.set_defaults(func=_cmd_gen)

    b = sub.add_parser("bench", help="run an operation-count sweep to CSV")
    b.add_argument("--suite", choices=["generic-sweep", "nongeneric-sweep"],
                   required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_bench)
    return parser


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command == "decompose" and args.trace and args.algo not in (None, "incremental"):
        print("error: --trace is only meaningful with --algo incremental",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
