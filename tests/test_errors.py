"""errors: where a failed-invariant report goes, and the one work budget."""

import logging
import sys

import pytest

from diotuple.errors import report_failure

NAME = "diotuple.test_errors"


def test_report_failure_logs_when_a_handler_is_set(caplog, capsys):
    with caplog.at_level(logging.ERROR, logger=NAME):
        report_failure(NAME, "bound failed at p=%d: %s", 13, (1, 2))
    # the record names the reporting function, not report_failure
    assert [(rec.name, rec.levelname, rec.getMessage(), rec.funcName)
            for rec in caplog.records] == [
        (NAME, "ERROR", "bound failed at p=13: (1, 2)",
         "test_report_failure_logs_when_a_handler_is_set")]
    assert capsys.readouterr().err == ""


def test_report_failure_writes_the_cli_line_without_a_handler(
        monkeypatch, caplog, capsys):
    # caplog's handler sits on the root logger; a logger that does not
    # propagate has no handler, and neither has an unloaded logging
    monkeypatch.setattr(logging.getLogger(NAME), "propagate", False)
    report_failure(NAME, "bound failed at p=%d: %s", 13, (1, 2))
    monkeypatch.delitem(sys.modules, "logging")
    report_failure(NAME, "no arguments: 100%")
    assert capsys.readouterr().err == (
        f"ERROR {NAME}: bound failed at p=13: (1, 2)\n"
        f"ERROR {NAME}: no arguments: 100%\n")
    assert caplog.records == []


def test_report_failure_is_silent_when_disabled(monkeypatch, caplog, capsys):
    # with a handler and without one
    caplog.set_level(logging.CRITICAL, logger=NAME)
    report_failure(NAME, "bound failed at p=%d", 13)
    monkeypatch.setattr(logging.getLogger(NAME), "propagate", False)
    report_failure(NAME, "bound failed at p=%d", 13)
    assert caplog.records == []
    assert capsys.readouterr().err == ""


def test_refuse_above_cap_admits_exactly_the_budget():
    # the work budget of every estimated computation: admitted at either
    # cap, refused one nanosecond or one byte above it
    from diotuple import errors
    assert (errors.SECONDS_CAP, errors.BYTES_CAP) == (60, 2 ** 31)
    ns, size = errors.SECONDS_CAP * 10 ** 9, errors.BYTES_CAP
    errors.refuse_above_cap("work", ns, size, "; lower N")
    for over in ((ns + 1, size), (ns, size + 1)):
        with pytest.raises(errors.InputError) as err:
            errors.refuse_above_cap("this work", *over, "; lower N")
        assert str(err.value) == (
            f"this work needs about 60 s and {over[1] >> 20} MiB, above the "
            "cap of 60 s and 2048 MiB; lower N")
