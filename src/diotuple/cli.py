"""Command-line surface: one subcommand per module, reproducible output.

Conventions: results stream to stdout as JSON Lines (or CSV/table where a
tabular view makes sense), diagnostics go to stderr, and every integer on
the wire is a decimal string so no height ever hits a word-size limit.
Exit codes: 0 success, 1 bad input, 2 result truncation, 3 a mathematical
invariant check failed (the loudest failure this tool can produce).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

from .errors import InputError, InvariantViolation, report_failure
from .exact import (format_rational, parse_integer, parse_natural,
                    parse_rational, primes_up_to)

# Each subcommand imports the layers it runs, so a process pays only for
# those (ff-scan never loads search, core, bounds or sieve), and only the
# invoked subcommand declares its flags.


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


def _no_config(text: str):
    """The type of the declared --config: _inject_config has taken the one
    --config FILE or --config=FILE, so any value reaching argparse came
    from an abbreviation or a second --config."""
    raise InputError("give --config once, spelled out in full")


def _refuse(args, flags: tuple[str, ...], where: str):
    """Exit 1 if any of flags was given where the mode being run ignores it."""
    given = [f for f in flags
             if getattr(args, f.lstrip("-").replace("-", "_")) is not None]
    if given:
        raise InputError(f"{', '.join(given)} cannot be used {where}")


def _is_fraction(obj) -> bool:
    """isinstance(obj, Fraction) without importing fractions: no Fraction
    exists before its module is loaded."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(obj, fractions.Fraction)


def _read_lines(path: str, flag: str) -> list[str]:
    """The non-blank lines of the file a flag names, stripped.

    A file that does not decode is bad input, and the error names both.
    """
    with open(path) as fh:
        try:
            return [line for line in map(str.strip, fh) if line]
        except UnicodeDecodeError as exc:
            raise InputError(f"{flag} {path}: {exc}") from None


def _fields(result) -> dict:
    """A result record's fields by name, in declaration order: a named
    tuple's, or a dataclass's."""
    if hasattr(result, "_asdict"):
        return result._asdict()
    from dataclasses import fields  # loaded with every result dataclass
    return {f.name: getattr(result, f.name) for f in fields(result)}


def _jsonify(obj):
    """Wire form: ints as decimal strings, rationals as p/q, floats as-is,
    result dataclasses (nested ones too) as objects of their fields."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else str(k): _jsonify(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if _is_fraction(obj):
        return format_rational(obj)
    if hasattr(obj, "__dataclass_fields__"):
        return _jsonify(_fields(obj))
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
    if isinstance(value, float):
        return repr(value)
    if _is_fraction(value):
        return format_rational(value)
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


def _search_summary(outcome) -> int:
    """Close a search's records; exit 2 if max_results cut them short."""
    _emit({"type": "summary", "count": len(outcome.results),
           "truncated": outcome.truncated})
    return 2 if outcome.truncated else 0


def _cmd_search_tuples(args) -> int:
    from .core import TupleConfig
    from .search import SearchBudget, search_tuples
    config = TupleConfig(args.k, args.n)
    budget = SearchBudget(height=args.N, min_size=args.min_size,
                          max_results=args.max_results)
    outcome = search_tuples(config, budget)
    for t in outcome.results:
        _emit({"type": "tuple", "k": args.k, "n": args.n, "elements": t.elements})
    return _search_summary(outcome)


def _cmd_search_bipartite(args) -> int:
    from .core import TupleConfig
    from .search import SearchBudget, search_bipartite
    config = TupleConfig(args.k, args.n)
    budget = SearchBudget(height=args.N, min_size=args.minA,
                          min_partner=args.minB, max_results=args.max_results)
    outcome = search_bipartite(config, budget)
    for p in outcome.results:
        _emit({"type": "pair", "k": args.k, "n": args.n, "A": p.A, "B": p.B})
    return _search_summary(outcome)


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
    _emit({**record, **_fields(report)})
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
        elems = [_natural(line, 1)
                 for line in _read_lines(args.set_file, "--set-file")]
    else:
        raise InputError("sieve needs --set or --set-file")
    from . import sieve
    result = sieve.sieve_pipeline(elems, args.n, args.k, args.L)
    _emit({"type": "sieve", **_fields(result)})
    return 0


def _sieve_audit(args) -> int:
    """Randomized soundness driver: the estimate must never undercount."""
    import random

    from . import sieve
    if args.audit > sieve.AUDIT_TRIALS_CAP:
        raise InputError(f"--audit capped at {sieve.AUDIT_TRIALS_CAP} trials")
    seed = 0 if args.seed is None else args.seed
    rng = random.Random(seed)
    N = args.N or 10 ** 4
    pool = primes_up_to(1000)
    usable = violations = 0
    for trial in range(args.audit):
        size = min(rng.randint(1, 60), N)
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
            report_failure(__name__, "sieve bound undercounted on trial %d",
                           trial)
    _emit({"type": "audit-summary", "trials": args.audit, "usable": usable,
           "violations": violations, "seed": seed})
    return 3 if violations else 0


def _cmd_ff_scan(args) -> int:
    if args.lam_max is not None:
        _refuse(args, ("--lam",), "with --lam-max")
    if args.mode == "clique":
        _refuse(args, ("--maxA",), "with --mode clique")
    from . import ff
    lams = range(1, args.lam_max + 1) if args.lam_max else [args.lam or 1]
    # a bad p, k or last shift, or a sweep past its cap, is refused before
    # the first scan
    ff.FieldConfig(args.p, args.k, lams[-1])
    if args.mode == "bipartite":
        ff._refuse_bipartite_work(args.p, args.maxA or 3, len(lams))
    results = []
    for lam in lams:
        config = ff.FieldConfig(args.p, args.k, lam)
        results.append(ff.ff_scan_bipartite(config, args.maxA or 3)
                       if args.mode == "bipartite" else ff.ff_scan_clique(config))

    bad = 0
    for r in results:
        record = _fields(r)
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
        sides = [(p, max(1, min(args.interval or math.isqrt(p), p - 1)))
                 for p in primes_up_to(args.max_p)
                 if p >= 3 and (p - 1) % args.k == 0]
        ff._refuse_char_sums(args.k, [(m, 2 * m) for _, m in sides],
                             "; lower --max-p or --interval")
        rows = []
        for p, m in sides:
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
    _emit({"type": "char-sum", **_fields(r), "g": config.g})
    return 0


def _cmd_thue_scan(args) -> int:
    from . import bounds
    report = bounds.thue_scan(args.a, args.b, args.k, args.c, args.X)
    _emit({"type": "thue-scan", **_fields(report)})
    return 3 if report.lemma_violation else 0


# --------------------------------------------------------------------- wiring

_POSITIVE, _NATURAL = _arg(_natural, 1), _arg(parse_natural)
_SIGNED, _RATIONAL = _arg(parse_integer), _arg(parse_rational)
_ELEMENTS, _RESIDUES = _arg(_naturals, 1), _arg(_naturals, 0)


def _constants_flags(sp):
    sp.add_argument("--k", type=_POSITIVE, required=True)
    sp.add_argument("--format", choices=["csv", "table", "jsonl"], default="csv")


def _bound_flags(sp):
    sp.add_argument("--n", type=_SIGNED, required=True)
    sp.add_argument("--k", type=_POSITIVE, required=True)
    sp.add_argument("--L", type=_RATIONAL)
    sp.add_argument("--format", choices=["jsonl", "csv", "table"], default="jsonl")


def _search_flags(*size_floors: str):
    """The flags of a search subcommand, with these size floors (default 2)."""
    def declare(sp):
        sp.add_argument("--k", type=_POSITIVE, required=True)
        sp.add_argument("--n", type=_SIGNED, required=True)
        sp.add_argument("--N", type=_POSITIVE, required=True)
        for flag in size_floors:
            sp.add_argument(flag, type=_POSITIVE, default=2)
        sp.add_argument("--max-results", type=_POSITIVE, default=10 ** 5)
    return declare


def _verify_flags(sp):
    sp.add_argument("--k", type=_POSITIVE, required=True)
    sp.add_argument("--n", type=_SIGNED, required=True)
    sp.add_argument("--tuple", type=_ELEMENTS)
    sp.add_argument("--A", type=_ELEMENTS)
    sp.add_argument("--B", type=_ELEMENTS)


def _sieve_flags(sp):
    sp.add_argument("--n", type=_SIGNED)
    sp.add_argument("--k", type=_POSITIVE)
    sp.add_argument("--L", type=_RATIONAL)
    sp.add_argument("--set", type=_ELEMENTS)
    sp.add_argument("--set-file")
    sp.add_argument("--audit", type=_POSITIVE,
                    help="run this many randomized soundness trials instead")
    sp.add_argument("--seed", type=_NATURAL,
                    help="seed of the audit trials (default 0)")
    sp.add_argument("--N", type=_POSITIVE,
                    help="universe bound for audit trials (default 10000)")


def _ff_scan_flags(sp):
    sp.add_argument("--p", type=_POSITIVE, required=True)
    sp.add_argument("--k", type=_POSITIVE, required=True)
    sp.add_argument("--lam", type=_POSITIVE)
    sp.add_argument("--lam-max", type=_POSITIVE,
                    help="sweep the shift over 1..M instead of --lam")
    sp.add_argument("--mode", choices=["bipartite", "clique"], required=True)
    sp.add_argument("--maxA", type=_POSITIVE,
                    help="largest side of a bipartite scan (default 3)")


def _char_sum_flags(sp):
    sp.add_argument("--p", type=_POSITIVE)
    sp.add_argument("--k", type=_POSITIVE, required=True)
    sp.add_argument("--A", type=_RESIDUES)
    sp.add_argument("--B", type=_RESIDUES)
    sp.add_argument("--g", type=_POSITIVE)
    sp.add_argument("--max-p", type=_POSITIVE,
                    help="sweep primes up to this bound with interval sets")
    sp.add_argument("--interval", type=_POSITIVE,
                    help="interval length for the sweep (default: isqrt(p))")
    sp.add_argument("--format", choices=["csv", "table", "jsonl"], default="csv",
                    help="output format of the --max-p sweep; one explicit "
                         "sum is always a JSONL record")


def _thue_scan_flags(sp):
    sp.add_argument("--a", type=_POSITIVE, required=True)
    sp.add_argument("--b", type=_POSITIVE, required=True)
    sp.add_argument("--k", type=_POSITIVE, required=True)
    sp.add_argument("--c", type=_NATURAL, required=True)
    sp.add_argument("--X", type=_POSITIVE, required=True)


# name: (handler, help line, flag declarations), in the order --help lists them
_SUBCOMMANDS = {
    "constants": (_cmd_constants, "per-degree constant tables",
                  _constants_flags),
    "bound": (_cmd_bound, "evaluate every applicable size bound", _bound_flags),
    "search-tuples": (_cmd_search_tuples, "maximal tuples up to a height",
                      _search_flags("--min-size")),
    "search-bipartite": (_cmd_search_bipartite,
                         "maximal two-sided pairs up to a height",
                         _search_flags("--minA", "--minB")),
    "verify": (_cmd_verify, "check a tuple or pair definitionally",
               _verify_flags),
    "sieve": (_cmd_sieve, "larger-sieve size estimate for a set", _sieve_flags),
    "ff-scan": (_cmd_ff_scan, "prime-field product-set scans", _ff_scan_flags),
    "char-sum": (_cmd_char_sum, "multiplicative character sums",
                 _char_sum_flags),
    "thue-scan": (_cmd_thue_scan,
                  "primitive solutions of a two-term power inequality",
                  _thue_scan_flags),
}


def _build_parser(invoked: str | None) -> tuple[_Parser, dict]:
    """The CLI parser and its subparsers by name.

    Every subcommand is registered with its name and help line, so the
    top-level help and the invalid-choice error list them all; only the
    invoked one gets its flags.
    """
    parser = _Parser(prog="diotuple",
                     description="search, verify and bound shifted-product tuples")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    registry: dict[str, _Parser] = {}
    for name, (func, summary, flags) in _SUBCOMMANDS.items():
        sp = registry[name] = subs.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        if name == invoked:
            sp.add_argument("--config", type=_arg(_no_config),
                            help="key=value file with flag defaults")
            flags(sp)
    return parser, registry


def _inject_config(argv: list[str], registry: dict) -> list[str]:
    """Splice the key=value contents of the file named by the first
    --config FILE or --config=FILE in as defaults; real flags win.

    Every --config=FILE is read as --config FILE first.  A --config with
    no path after it, and any second one, is left to argparse, which
    refuses it.  A key must name a flag that takes a value, not config.
    """
    if not argv or argv[0] not in registry:
        return argv
    argv = [part for arg in argv for part in
            (arg.split("=", 1) if arg.startswith("--config=") else (arg,))]
    if "--config" not in argv[:-1]:
        return argv
    idx = argv.index("--config")
    rest = argv[1:idx] + argv[idx + 2:]
    option_map = registry[argv[0]].flag_actions
    extra: list[str] = []
    for line in _read_lines(argv[idx + 1], "--config"):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line is not key=value: {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        action = option_map.get("--" + key)
        if action is None or action.nargs == 0 or key == "config":
            raise InputError(f"unknown config key {key!r} for {argv[0]}")
        extra.extend(["--" + key, value])
    return [argv[0]] + extra + rest


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    # the top-level parser has no flag that takes a value, so the first
    # argument naming a subcommand is the one argparse runs
    invoked = next((arg for arg in raw if arg in _SUBCOMMANDS), None)
    parser, registry = _build_parser(invoked)
    try:
        args = parser.parse_args(_inject_config(raw, registry))
        return args.func(args)
    except (InputError, OSError) as exc:  # bad input, or a file not read
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 3


def entry():
    """Process entry of the `diotuple` script and `python -m diotuple`.

    Exits with main's return code.  Freezing the heap first keeps the
    interpreter's shutdown collections off every object that dies with the
    process; atexit handlers and the stream flushes still run.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
