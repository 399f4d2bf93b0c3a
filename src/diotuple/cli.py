"""Command-line surface: one subcommand per module, reproducible output.

Conventions: results stream to stdout as JSON Lines (or CSV/table where a
tabular view makes sense), diagnostics go to stderr, and every integer on
the wire is a decimal string so no height ever hits a word-size limit.
Exit codes: 0 success, 1 bad input, 2 result truncation, 3 a mathematical
invariant check failed (the loudest failure this tool can produce).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from .errors import InputError, InvariantViolation
from .exact import format_rational, parse_integer, parse_natural, parse_rational

# Each subcommand imports the layers it runs, so a process pays only for
# those (ff-scan never loads search, core, bounds or sieve).

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit 2 on bad flags; 2 means truncation here.

    Each parser also maps its option strings to the actions add_argument
    returned for them (help included), so config keys can be checked.
    """

    def __init__(self, *args, **kwargs):
        self.flag_actions: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flag_actions.update(dict.fromkeys(action.option_strings, action))
        return action

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _natural(text: str, floor: int) -> int:
    """parse_natural, refusing values below floor."""
    value = parse_natural(text)
    if value < floor:
        raise InputError(f"expected an integer >= {floor}, got {text!r}")
    return value


def _naturals(text: str, floor: int) -> list[int]:
    """Comma-separated naturals, each at least floor; empty parts are skipped."""
    return [_natural(part, floor) for part in text.split(",") if part.strip()]


def _arg(parse, *args):
    """argparse type calling parse(text, *args).

    An InputError becomes argparse's error, which names the flag.
    """
    def convert(text: str):
        try:
            return parse(text, *args)
        except InputError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _refuse(args, flags: tuple[str, ...], where: str):
    """Exit 1 if any of flags was given where the mode being run ignores it."""
    given = [f for f in flags
             if getattr(args, f.lstrip("-").replace("-", "_")) is not None]
    if given:
        raise InputError(f"{', '.join(given)} cannot be used {where}")


def _jsonify(obj):
    """Wire form: ints as decimal strings, rationals as p/q, floats as-is."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else str(k): _jsonify(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(record: dict):
    sys.stdout.write(json.dumps(_jsonify(record)) + "\n")


def _cell(value) -> str:
    if isinstance(value, dict):
        return " ".join(f"{k}={_cell(v)}" for k, v in value.items())
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_rows(fmt: str, kind: str, header: list[str], rows: list[list]):
    """Write rows as one JSONL record of this kind each, as CSV, or as a table."""
    if fmt == "jsonl":
        for row in rows:
            _emit({"type": kind, **dict(zip(header, row))})
        return
    cells = [[_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
    else:  # aligned table
        widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
                  for i, h in enumerate(header)]
        line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
        sys.stdout.write(line.rstrip() + "\n")
        for r in cells:
            sys.stdout.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


# ---------------------------------------------------------------- subcommands

def _cmd_constants(args) -> int:
    from . import bounds
    k = args.k
    tc = bounds.table_constants(k)
    alpha, beta = bounds.evertse_constants(k)
    _emit_rows(args.format, "constants", ["k", "r", "s", "t", "u", "alpha", "beta"],
               [[k, tc.r, tc.s, tc.t, tc.u, alpha, beta]])
    return 0


def _cmd_bound(args) -> int:
    from . import bounds
    reports = bounds.bound_reports(args.n, args.k, args.L)
    _emit_rows(args.format, "bound", ["name", "parameters", "value", "exact", "anchor"],
               [[r.name, r.parameters, r.value, r.exact, r.anchor] for r in reports])
    return 0


def _cmd_search_tuples(args) -> int:
    from .core import TupleConfig
    from .search import SearchBudget, search_tuples
    config = TupleConfig(args.k, args.n)
    budget = SearchBudget(height=args.N, min_size=args.min_size,
                          max_results=args.max_results)
    outcome = search_tuples(config, budget)
    for t in outcome.results:
        _emit({"type": "tuple", "k": args.k, "n": args.n, "elements": t.elements})
    _emit({"type": "summary", "count": len(outcome.results),
           "truncated": outcome.truncated})
    return 2 if outcome.truncated else 0


def _cmd_search_bipartite(args) -> int:
    from .core import TupleConfig
    from .search import SearchBudget, search_bipartite
    config = TupleConfig(args.k, args.n)
    budget = SearchBudget(height=args.N, min_size=args.minA,
                          min_partner=args.minB, max_results=args.max_results)
    outcome = search_bipartite(config, budget)
    for p in outcome.results:
        _emit({"type": "pair", "k": args.k, "n": args.n, "A": p.A, "B": p.B})
    _emit({"type": "summary", "count": len(outcome.results),
           "truncated": outcome.truncated})
    return 2 if outcome.truncated else 0


def _cmd_verify(args) -> int:
    from .core import TupleConfig, verify_bipartite, verify_tuple
    config = TupleConfig(args.k, args.n)
    if args.tuple is not None:
        _refuse(args, ("--A", "--B"), "with --tuple")
        elems = sorted(args.tuple)
        report = verify_tuple(elems, config)
        record = {"type": "verify", "target": "tuple", "k": args.k,
                  "n": args.n, "elements": elems}
    else:
        if args.A is None or args.B is None:
            raise InputError("need --tuple, or both --A and --B")
        A, B = sorted(args.A), sorted(args.B)
        report = verify_bipartite(A, B, config)
        record = {"type": "verify", "target": "pair", "k": args.k,
                  "n": args.n, "A": A, "B": B}
    record.update(ok=report.ok,
                  failures=[list(f) for f in report.failures],
                  notes=list(report.notes))
    _emit(record)
    return 0


def _cmd_sieve(args) -> int:
    if args.audit is not None:
        _refuse(args, ("--set", "--set-file", "--n", "--k", "--L"),
                "with --audit")
        return _sieve_audit(args)
    _refuse(args, ("--N", "--seed"), "without --audit")
    if args.set is not None:
        _refuse(args, ("--set-file",), "with --set")
    if args.n is None or args.k is None or args.L is None:
        raise InputError("sieve needs --n, --k and --L (or --audit)")
    if args.set is not None:
        elems = args.set
    elif args.set_file is not None:
        with open(args.set_file) as fh:
            elems = [_natural(line, 1) for line in map(str.strip, fh) if line]
    else:
        raise InputError("sieve needs --set or --set-file")
    from . import sieve
    result = sieve.sieve_pipeline(elems, args.n, args.k, args.L)
    _emit({"type": "sieve", **asdict(result)})
    return 0


def _sieve_audit(args) -> int:
    """Randomized soundness driver: the estimate must never undercount."""
    import random

    from . import sieve
    seed = 0 if args.seed is None else args.seed
    rng = random.Random(seed)
    N = args.N or 10 ** 4
    pool = sieve.primes_up_to(1000)
    usable = violations = 0
    for trial in range(args.audit):
        size = rng.randint(1, 60)
        A = rng.sample(range(1, N + 1), size)
        P = rng.sample(pool, rng.randint(1, 25))
        ev = sieve.gallagher_bound(A, N, P)
        if ev.bound is None:
            continue
        usable += 1
        if size > ev.bound + 1e-9:
            violations += 1
            _emit({"type": "audit-violation", "trial": trial, "size": size,
                   "bound": ev.bound, "primes": sorted(P)})
            logger.error("sieve bound undercounted on trial %d", trial)
    _emit({"type": "audit-summary", "trials": args.audit, "usable": usable,
           "violations": violations, "seed": seed})
    return 3 if violations else 0


def _cmd_ff_scan(args) -> int:
    if args.lam_max is not None:
        _refuse(args, ("--lam",), "with --lam-max")
    if args.mode == "clique":
        _refuse(args, ("--maxA",), "with --mode clique")
    from . import ff
    results = []
    for lam in range(1, args.lam_max + 1) if args.lam_max else [args.lam or 1]:
        config = ff.FieldConfig(args.p, args.k, lam)
        if args.mode == "bipartite":
            results.append(ff.ff_scan_bipartite(config, args.maxA or 3))
        else:
            results.append(ff.ff_scan_clique(config))

    bad = 0
    for r in results:
        record = asdict(r)
        if args.mode == "bipartite":
            record["violation_count"] = len(r.violations)
            bad += len(r.violations)
        else:
            bad += bool(r.violation)
        _emit({"type": f"ff-{args.mode}", **record})
    _emit({"type": "summary", "scans": len(results), "violations": bad})
    return 3 if bad else 0


def _cmd_char_sum(args) -> int:
    from . import ff
    if args.max_p is not None:
        _refuse(args, ("--p", "--A", "--B", "--g"), "with --max-p")
        if args.max_p > ff.CHAR_SUM_CAP:
            raise InputError(f"--max-p capped at {ff.CHAR_SUM_CAP}")
        from . import sieve
        rows = []
        for p in sieve.primes_up_to(args.max_p):
            if p < 3 or (p - 1) % args.k != 0:
                continue
            m = args.interval or math.isqrt(p)
            m = max(1, min(m, p - 1))
            config = ff.FieldConfig(p, args.k)
            r = ff.char_sum(range(1, m + 1), range(1, m + 1), config)
            rows.append([p, args.k, m, r.zero_hits, r.magnitude, r.exponent])
        _emit_rows(args.format, "char-sweep",
                   ["p", "k", "side", "zero_hits", "magnitude", "exponent"], rows)
        return 0
    _refuse(args, ("--interval",), "without --max-p")
    if args.p is None or args.A is None or args.B is None:
        raise InputError("char-sum needs --p, --A and --B (or --max-p for a sweep)")
    config = ff.FieldConfig(args.p, args.k, g=args.g or 0)
    r = ff.char_sum(args.A, args.B, config)
    _emit({"type": "char-sum", **asdict(r), "g": config.g})
    return 0


def _cmd_thue_scan(args) -> int:
    from . import bounds
    report = bounds.thue_scan(args.a, args.b, args.k, args.c, args.X)
    _emit({"type": "thue-scan", **asdict(report)})
    return 3 if report.lemma_violation else 0


# --------------------------------------------------------------------- wiring

def _build_parser() -> tuple[_Parser, dict]:
    parser = _Parser(prog="diotuple",
                     description="search, verify and bound shifted-product tuples")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    registry: dict[str, _Parser] = {}
    positive, natural = _arg(_natural, 1), _arg(parse_natural)
    signed, rational = _arg(parse_integer), _arg(parse_rational)
    elements, residues = _arg(_naturals, 1), _arg(_naturals, 0)

    def sub(name: str, func, **kwargs):
        sp = subs.add_parser(name, **kwargs)
        sp.set_defaults(func=func)
        sp.add_argument("--config", help="key=value file with flag defaults")
        registry[name] = sp
        return sp

    sp = sub("constants", _cmd_constants, help="per-degree constant tables")
    sp.add_argument("--k", type=positive, required=True)
    sp.add_argument("--format", choices=["csv", "table", "jsonl"], default="csv")

    sp = sub("bound", _cmd_bound, help="evaluate every applicable size bound")
    sp.add_argument("--n", type=signed, required=True)
    sp.add_argument("--k", type=positive, required=True)
    sp.add_argument("--L", type=rational)
    sp.add_argument("--format", choices=["jsonl", "csv", "table"], default="jsonl")

    sp = sub("search-tuples", _cmd_search_tuples, help="maximal tuples up to a height")
    sp.add_argument("--k", type=positive, required=True)
    sp.add_argument("--n", type=signed, required=True)
    sp.add_argument("--N", type=positive, required=True)
    sp.add_argument("--min-size", type=positive, default=2)
    sp.add_argument("--max-results", type=positive, default=10 ** 5)

    sp = sub("search-bipartite", _cmd_search_bipartite,
             help="maximal two-sided pairs up to a height")
    sp.add_argument("--k", type=positive, required=True)
    sp.add_argument("--n", type=signed, required=True)
    sp.add_argument("--N", type=positive, required=True)
    sp.add_argument("--minA", type=positive, default=2)
    sp.add_argument("--minB", type=positive, default=2)
    sp.add_argument("--max-results", type=positive, default=10 ** 5)

    sp = sub("verify", _cmd_verify, help="check a tuple or pair definitionally")
    sp.add_argument("--k", type=positive, required=True)
    sp.add_argument("--n", type=signed, required=True)
    sp.add_argument("--tuple", type=elements)
    sp.add_argument("--A", type=elements)
    sp.add_argument("--B", type=elements)

    sp = sub("sieve", _cmd_sieve, help="larger-sieve size estimate for a set")
    sp.add_argument("--n", type=signed)
    sp.add_argument("--k", type=positive)
    sp.add_argument("--L", type=rational)
    sp.add_argument("--set", type=elements)
    sp.add_argument("--set-file")
    sp.add_argument("--audit", type=positive,
                    help="run this many randomized soundness trials instead")
    sp.add_argument("--seed", type=natural,
                    help="seed of the audit trials (default 0)")
    sp.add_argument("--N", type=positive,
                    help="universe bound for audit trials (default 10000)")

    sp = sub("ff-scan", _cmd_ff_scan, help="prime-field product-set scans")
    sp.add_argument("--p", type=positive, required=True)
    sp.add_argument("--k", type=positive, required=True)
    sp.add_argument("--lam", type=positive)
    sp.add_argument("--lam-max", type=positive,
                    help="sweep the shift over 1..M instead of --lam")
    sp.add_argument("--mode", choices=["bipartite", "clique"], required=True)
    sp.add_argument("--maxA", type=positive,
                    help="largest side of a bipartite scan (default 3)")

    sp = sub("char-sum", _cmd_char_sum, help="multiplicative character sums")
    sp.add_argument("--p", type=positive)
    sp.add_argument("--k", type=positive, required=True)
    sp.add_argument("--A", type=residues)
    sp.add_argument("--B", type=residues)
    sp.add_argument("--g", type=positive)
    sp.add_argument("--max-p", type=positive,
                    help="sweep primes up to this bound with interval sets")
    sp.add_argument("--interval", type=positive,
                    help="interval length for the sweep (default: isqrt(p))")
    sp.add_argument("--format", choices=["csv", "table", "jsonl"], default="csv",
                    help="output format of the --max-p sweep; one explicit "
                         "sum is always a JSONL record")

    sp = sub("thue-scan", _cmd_thue_scan,
             help="primitive solutions of a two-term power inequality")
    sp.add_argument("--a", type=positive, required=True)
    sp.add_argument("--b", type=positive, required=True)
    sp.add_argument("--k", type=positive, required=True)
    sp.add_argument("--c", type=natural, required=True)
    sp.add_argument("--X", type=positive, required=True)

    return parser, registry


def _inject_config(argv: list[str], registry: dict) -> list[str]:
    """Splice key=value file contents in as defaults; real flags win."""
    if not argv or argv[0] not in registry or "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise InputError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[1:idx] + argv[idx + 2:]
    option_map = registry[argv[0]].flag_actions
    extra: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"config line is not key=value: {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "config":
                raise InputError("config files cannot nest")
            action = option_map.get("--" + key)
            if action is None or action.nargs == 0:
                raise InputError(
                    f"unknown config key {key!r} for {argv[0]}")
            extra.extend(["--" + key, value])
    return [argv[0]] + extra + rest


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    raw = list(sys.argv[1:] if argv is None else argv)
    parser, registry = _build_parser()
    try:
        args = parser.parse_args(_inject_config(raw, registry))
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
