"""The library reads no row of a nearness table.

A table is the table of one map (`meets_table`); `Prox.rows` derives its
2**n rows for callers outside the library, and every verdict, report and
output of the library is read off the map.  With the property patched to
raise, the default suite at seed 0 (as it is and with the `nu` and
`betag` defects injected) and the `validate`, `equinormal`, `nu` and
`betag` requests on every fixture, plain, `--sets` and `--json`, must
give what they give unpatched, byte for byte.
"""

from pathlib import Path

import pytest

from eqprox.cli import main
from eqprox.proximity import Prox

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))

SUITE_RUNS = [["suite", "--json"], ["suite", "--json", "--inject", "nu"],
              ["suite", "--json", "--inject", "betag"]]


def fixture_requests(path):
    for what in ("validate", "equinormal"):
        yield [what, str(path)]
    for what in ("nu", "betag"):
        for flags in ([], ["--sets", "A", "B"], ["--json"]):
            yield [what, str(path), *flags]


def outcome(capsys, argv):
    """(exit code or exception, stdout, stderr) of one CLI request."""
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        code = repr(exc)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def unread_rows(self):
    raise AssertionError("a row of a table was read")


def assert_same_without_rows(capsys, monkeypatch, requests):
    plain = [outcome(capsys, argv) for argv in requests]
    with monkeypatch.context() as patched:
        patched.setattr(Prox, "rows", property(unread_rows))
        unreadable = [outcome(capsys, argv) for argv in requests]
    for argv, want, got in zip(requests, plain, unreadable):
        assert got == want, argv


@pytest.mark.parametrize("argv", SUITE_RUNS, ids=" ".join)
def test_suite_reads_no_row(capsys, monkeypatch, argv):
    assert_same_without_rows(capsys, monkeypatch, [argv])


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_fixture_requests_read_no_row(capsys, monkeypatch, path):
    assert_same_without_rows(capsys, monkeypatch,
                             list(fixture_requests(path)))
