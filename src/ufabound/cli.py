"""Command-line surface.

Subcommands:
  count         the closed-form ordered-table count
  table1        the four bound formulas as CSV
  enumerate     ordered prefix tables, by filtering or by the layer bijection
  build-matrix  the acceptance matrix (all rows or ordered rows only)
  rank          exact or mod-p rank of a matrix file
  verify        the named self-check suite for one size
  schmidt       rank-versus-bound report for a user automaton, or random mode

Exit status: 2 on usage errors, 1 when a verification fails, 0 otherwise.
Identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import combinatorics, crossing, exact_linalg, tables, verification, witness
from .automata import load_automaton
from .errors import (COUNT_MAX_N, RANDOM_ALPHABET_MAX, RANDOM_MOVES_MAX, TABLE1_MAX_N,
                     CapacityError)


def _check_count_printable(n: int, what: str) -> None:
    if n > COUNT_MAX_N:
        raise CapacityError(f"{what} is limited to n <= {COUNT_MAX_N}: "
                            f"count({COUNT_MAX_N + 1}) has more than 4300 digits")


def _cmd_count(args) -> int:
    _check_count_printable(args.n, "count")
    print(combinatorics.count_ordered_prefix_tables(args.n))
    return 0


def _cmd_table1(args) -> int:
    if args.max < 1:
        raise ValueError(f"--max must be at least 1, got {args.max}")
    if args.max > TABLE1_MAX_N:
        raise CapacityError(f"table1 is limited to --max {TABLE1_MAX_N}: "
                            f"row {TABLE1_MAX_N + 1} has more than 4300 digits")
    # every row is formatted before any is printed, so a failure (such as
    # the int-to-string digit limit) leaves stdout empty
    lines = ["n,dfa2ufa_lower,dfa2ufa_upper,nfa2ufa_lower,nfa2dfa"]
    for n in range(1, args.max + 1):
        lines.append(",".join(str(x) for x in (n, *combinatorics.table1_row(n))))
    print("\n".join(lines))
    return 0


def _cmd_enumerate(args) -> int:
    if args.method == "filter":
        out = tables.enumerate_ordered_prefix_tables_by_filter(args.n)
    else:
        out = combinatorics.enumerate_ordered_prefix_tables(args.n)
    with open(args.out, "w", encoding="utf-8") as fh:
        for f in out:
            fh.write(tables.prefix_table_to_text(f) + "\n")
    print(f"{len(out)} tables written to {args.out}")
    return 0


def _cmd_build_matrix(args) -> int:
    build = witness.build_M if args.kind == "M" else witness.build_K
    m = build(args.n)
    witness.save_matrix(m, args.out)
    print(f"{m.rows}x{m.cols} matrix written to {args.out}")
    return 0


def _cmd_rank(args) -> int:
    m = witness.load_matrix(args.input)
    if args.mod is not None:
        print(exact_linalg.rank_mod_p(m, args.mod))
    else:
        print(exact_linalg.rank_exact(m))
    return 0


def _cmd_verify(args) -> int:
    results = verification.run_checks(args.n, level=args.level, seed=args.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name} ({r.detail})")
        failed += not r.ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _read_strings(path: str, alphabet: list[str]) -> list[tuple[int, ...]]:
    """One string per line, symbol names separated by whitespace; a single
    ``-`` denotes the empty string, blank lines are skipped.  An alphabet
    with a symbol these lines cannot spell (``-``, an empty name, a name
    with whitespace) is refused, since its strings would be misread."""
    bad = next((name for name in alphabet if name == "-" or name.split() != [name]), None)
    if bad is not None:
        raise ValueError(f"symbol {bad!r} cannot be spelled in {path}: its lines are "
                         "whitespace-separated names, and '-' is the empty string")
    sym_id = {name: i for i, name in enumerate(alphabet)}
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line == "-":
                out.append(())
                continue
            try:
                out.append(tuple(sym_id[tok] for tok in line.split()))
            except KeyError as e:
                raise ValueError(f"unknown symbol {e.args[0]!r} in {path}") from None
    return out


def _cmd_schmidt(args) -> int:
    if args.random is not None:
        if args.random < 1:
            raise ValueError("--random needs a positive instance count")
        if args.states < 1 or args.alphabet < 1:
            raise ValueError("--states and --alphabet must be positive")
        _check_count_printable(args.states, "schmidt's state count")
        if args.alphabet > RANDOM_ALPHABET_MAX:
            raise CapacityError(f"schmidt --random is limited to --alphabet <= "
                                f"{RANDOM_ALPHABET_MAX}: an instance's strings read "
                                "no more letters")
        if args.states ** 2 * (args.alphabet + 2) > RANDOM_MOVES_MAX:
            raise CapacityError(f"schmidt --random is limited to states^2 * (alphabet + 2) "
                                f"<= {RANDOM_MOVES_MAX}: a random automaton keeps about "
                                "that many moves, at up to 185 bytes each")

        # imported here, so that only the commands that fork workers load it
        from . import workers

        share = functools.partial(crossing.random_records, args.states, args.alphabet)
        seeds = range(args.seed, args.seed + args.random)
        with contextlib.closing(workers.ordered_map(share, seeds)) as records:
            for record in records:
                print(json.dumps(record, sort_keys=True))
        if not record["ok"]:
            return 1
        print(f"bound {record['bound']} holds on {args.random} random instances")
        return 0
    with open(args.automaton, "r", encoding="utf-8") as fh:
        automaton, alphabet = load_automaton(json.load(fh))
    _check_count_printable(automaton.state_count, "schmidt's state count")
    xs = _read_strings(args.prefixes, alphabet)
    ys = _read_strings(args.suffixes, alphabet)
    report = crossing.verify_optimality(automaton, xs, ys)
    print(f"rank {report.rank} <= bound {report.bound}"
          if report.rank <= report.bound else
          f"rank {report.rank} EXCEEDS bound {report.bound}")
    print(json.dumps(report.to_json(), sort_keys=True))
    return 0 if report.ok else 1


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every subcommand when it is
    None: usage errors and help inside a subcommand print the same bytes."""
    parser = argparse.ArgumentParser(
        prog="ufabound",
        description="State-complexity experiments: two-way NFAs versus UFAs.")
    sub = parser.add_subparsers(dest="command", required=True)

    if command in (None, "count"):
        p = sub.add_parser("count", help="ordered prefix table count")
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(func=_cmd_count)

    if command in (None, "table1"):
        p = sub.add_parser("table1", help="bound formulas as CSV")
        p.add_argument("--max", type=int, required=True)
        p.set_defaults(func=_cmd_table1)

    if command in (None, "enumerate"):
        p = sub.add_parser("enumerate", help="write ordered prefix tables to a file")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--method", choices=("filter", "bijection"), default="bijection")
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_enumerate)

    if command in (None, "build-matrix"):
        p = sub.add_parser("build-matrix", help="write an acceptance matrix with labels")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--kind", choices=("M", "K"), required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_build_matrix)

    if command in (None, "rank"):
        p = sub.add_parser("rank", help="rank of a matrix file")
        p.add_argument("--in", dest="input", required=True)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--mod", type=int, default=None, help="prime modulus")
        group.add_argument("--exact", action="store_true", help="rational rank (default)")
        p.set_defaults(func=_cmd_rank)

    if command in (None, "verify"):
        p = sub.add_parser("verify", help="run the self-check suite")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--level", choices=("quick", "full"), default="quick")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=_cmd_verify)

    if command in (None, "schmidt"):
        p = sub.add_parser("schmidt", help="rank-versus-bound report")
        p.add_argument("--automaton", help="two-way automaton JSON file")
        p.add_argument("--prefixes", help="prefix strings, one per line")
        p.add_argument("--suffixes", help="suffix strings, one per line")
        p.add_argument("--random", type=int, default=None,
                       help="run this many seeded random instances instead")
        p.add_argument("--states", type=int, default=2)
        p.add_argument("--alphabet", type=int, default=2)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=_cmd_schmidt)

    return parser


@functools.cache
def _parser(command: str | None = None) -> argparse.ArgumentParser:
    # built on the first call per command, not at import: most of its cost
    # is argparse's gettext and terminal-size lookups; parsing leaves it as it was
    return build_parser(command)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command's own parser, and every command's for anything else
    parser = _parser(argv[0] if argv and argv[0] in (
        "count", "table1", "enumerate", "build-matrix", "rank", "verify", "schmidt") else None)
    args, extra = parser.parse_known_args(argv)
    if extra:
        # parsed again by the full parser, so that the error's usage line
        # names every command, as a full parse's would
        _parser(None).parse_args(argv)
    if args.command == "schmidt":
        files = (("--automaton", args.automaton), ("--prefixes", args.prefixes),
                 ("--suffixes", args.suffixes))
        if args.random is None:
            missing = [flag for flag, val in files if val is None]
            if missing:
                _parser(None).error(f"schmidt requires {' '.join(missing)} (or --random)")
        else:
            given = [flag for flag, val in files if val is not None]
            if given:
                _parser(None).error(f"--random cannot be combined with {' '.join(given)}")
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
