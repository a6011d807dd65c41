"""Every cell of a README results table is the golden cell it names, rounded as printed.

A results table is a table under README.md's `## Results` heading.  The HTML comment
right above it names the golden cell of each column after the first:

    <!-- golden tests/golden/<config>, one row per <key>
    <file> [<column>=<value> ...] <column>
    -->

The first column holds each row's value of <key>.  Line i of the comment names column
i + 1: the one row of <config>/<file> whose <key> is the table row's and whose other
columns hold the given values, and its <column>.  A cell printed with d decimals (or as
d-decimal e-notation) must be the golden value formatted so, a text cell the golden text,
and `—` a golden cell that is empty or in no row.  A failure names the golden file, line
and column of each stale cell and the text the README should show, so a change that
regenerates the goldens updates the tables from this test's output.
"""
import csv
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = re.compile(r"<!-- golden (\S+), one row per (\S+)\n(.*?)\n-->\n((?:\|[^\n]*\n)+)", re.S)
NUMBER = re.compile(r"-?\d+(?:\.(\d+))?(e[-+]\d+)?")


def as_printed(golden: str, shown: str) -> str:
    """The golden cell as the README prints it: `—` if empty, else in shown's format."""
    if golden == "":
        return "—"
    m = NUMBER.fullmatch(shown)
    if m is None:
        return golden
    return format(float(golden), ".%d%s" % (len(m.group(1) or ""), "e" if m.group(2) else "f"))


def cells(row: str) -> list:
    return [c.strip().strip("`") for c in row.strip().strip("|").split("|")]


def test_results_tables_match_goldens():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        results = f.read().split("\n## Results\n", 1)[1].split("\n## ", 1)[0]
    tables = TABLE.findall(results)
    assert len(tables) >= 2 and len(tables) == len(re.findall(r"(?:^\|.*\n)+", results, re.M)), \
        "every table under ## Results needs its golden comment"
    stale = []
    for config, key, spec, body in tables:
        columns = [line.split() for line in spec.splitlines()]
        header, _, *rows = body.splitlines()
        for row in [header] + rows:
            assert len(cells(row)) == len(columns) + 1, (config, row)
        for row in rows:
            keyval, *shown = cells(row)
            found = False
            for (name, *filters, column), text in zip(columns, shown):
                path = os.path.join(config, name)
                want = dict([(key, keyval)] + [f.split("=", 1) for f in filters])
                with open(os.path.join(ROOT, path), newline="") as f:
                    match = [(i, r) for i, r in enumerate(csv.DictReader(f), start=2)
                             if all(r[c] == v for c, v in want.items())]
                assert len(match) <= 1, (path, want)
                line, golden = match[0] if match else ("-", {})
                found = found or bool(match)
                cell = golden.get(column, "")
                if text != as_printed(cell, text):
                    where = " ".join("%s=%s" % kv for kv in want.items())
                    stale.append("%s line %s (%s), column %s: golden %r, README shows %r, should "
                                 "show %r" % (path, line, where, column, cell, text,
                                              as_printed(cell, text)))
            assert found, "%s: no golden row has %s = %s" % (config, key, keyval)
    assert not stale, "README results are stale:\n" + "\n".join(stale)
