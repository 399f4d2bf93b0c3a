"""Exception types shared across the package, the one work budget, and the
one report of a failed invariant.

The split matters for the CLI exit codes: bad input is the caller's fault,
a failed mathematical invariant is ours.
"""

import sys

# a computation whose estimated time or memory passes these is refused
# before it starts
SECONDS_CAP = 60
BYTES_CAP = 2 * 2 ** 30


class InputError(ValueError):
    """A precondition on supplied values was violated."""


class HypothesisError(InputError):
    """A lemma-style hypothesis does not hold for the supplied values.

    Kept distinct from plain InputError so callers can tell "you handed me
    garbage" apart from "these numbers do not satisfy the lemma's premises".
    """


class InvariantViolation(RuntimeError):
    """A mathematically guaranteed inequality failed.

    This never indicates bad input; it indicates an implementation bug and
    is surfaced loudly rather than swallowed.
    """


def refuse_above_cap(what: str, ns: int, size: int, advice: str = ""):
    """Raise InputError when an estimate of ns nanoseconds and size bytes
    passes SECONDS_CAP or BYTES_CAP; what names the work, advice ends the
    message."""
    if ns > SECONDS_CAP * 10 ** 9 or size > BYTES_CAP:
        raise InputError(
            f"{what} needs about {ns // 10 ** 9} s and {size >> 20} MiB, above "
            f"the cap of {SECONDS_CAP} s and {BYTES_CAP >> 20} MiB{advice}")


def report_failure(name: str, msg: str, *args) -> None:
    """Report a failed invariant as an ERROR of logger `name`.

    A caller who configured logging gets the record: when `logging` is
    loaded and the logger has a handler, it is logged as `msg % args` from
    the reporting function, and a logger disabled for ERROR drops it.  Otherwise the line
    `ERROR <name>: <message>` goes to the current sys.stderr, without
    importing `logging`.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logger = logging.getLogger(name)
        if logger.hasHandlers() or not logger.isEnabledFor(logging.ERROR):
            logger.error(msg, *args, stacklevel=2)
            return
    print(f"ERROR {name}: {msg % args if args else msg}", file=sys.stderr)
