"""errors.report_failure: where a failed-invariant report goes."""

import logging
import sys

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
