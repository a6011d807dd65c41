"""Every column or key table of docs/formats.md lists, in order, what a run writes.

A table belongs to the section of the heading above it (the heading's text up to any
` (`), and the first cell of each row names, in backticks, one column or several; a key
`a.b` is key b of the object under key a.  The CSV header, or fit.json's keys, of each
file under tests/golden/ must be its section's table: the section of its file name, or in
a real-mode sweep the `Real mode` table followed by the certificates.csv or checks.csv
one, and in a synthetic sweep the `Synthetic mode` table.  The manifest.json and
dataset.json of one small in-process run must be theirs.  A failure names the section,
the artifact read and the columns to add or remove, so a change that regenerates the
goldens updates formats.md from this test's output.  Every `docs/formats.md#<anchor>`
link in README.md must name a heading of formats.md.
"""
import json
import os
import re

from lapcert.cli import main

from test_golden import CASES, GOLDEN, ROOT

DOC = os.path.join(ROOT, "docs", "formats.md")


def sections() -> dict:
    """Section -> the names its table lists, in order, for each section with a table."""
    with open(DOC, encoding="utf-8") as f:
        lines = f.read().splitlines()
    tables, section = {}, None
    for i, line in enumerate(lines):
        if line.startswith("#"):
            section = re.sub(r" \(.*", "", line.lstrip("#").strip())
        elif line.startswith("|") and lines[i + 1].startswith("|-"):   # a table's header
            assert section not in tables, "two tables under %r" % section
            rows = []
            for row in lines[i + 2:]:
                if not row.startswith("|"):
                    break
                rows += re.findall(r"`([^`]+)`", row.split("|")[1])
            tables[section] = rows
    return tables


def written_keys(doc: dict, listed: list) -> list:
    """doc's keys in written order, as `a.b` inside an object a of which a key is listed."""
    keys = []
    for key, value in doc.items():
        inner = [name[len(key) + 1:] for name in listed if name.startswith(key + ".")]
        if isinstance(value, dict) and inner:
            keys += ["%s.%s" % (key, sub) for sub in written_keys(value, inner)]
        else:
            keys.append(key)
    return keys


def golden_sections(case: str, artifact: str) -> list:
    """The sections whose tables, one after another, list a golden artifact's columns."""
    if CASES[case][0] != "sweep":
        return [artifact]
    with open(os.path.join(ROOT, "configs", case + ".json")) as f:
        synthetic = json.load(f)["sweep"]["synthetic"]
    if artifact == "sweep.csv":
        return ["Synthetic mode"] if synthetic else ["Real mode", "certificates.csv"]
    return ["Real mode", artifact]


def stale(tables: dict, names: list, source: str, written: list) -> str:
    """'' if the sections' tables list `written`, else what formats.md should change."""
    listed = [column for name in names for column in tables.get(name, [])]
    if listed == written:
        return ""
    where = "docs/formats.md section %s, read from %s: " % (" then ".join(map(repr, names)),
                                                             source)
    add = [c for c in written if c not in listed]
    remove = [c for c in listed if c not in written]
    if add or remove:
        return where + "add %s, remove %s" % (add, remove)
    return where + "list in the order %s" % written


def test_tables_list_what_runs_write(tmp_path, eig_cache, volterra_eig_small):
    tables, used, wrong = sections(), set(), []
    for case in sorted(os.listdir(GOLDEN)):
        for artifact in sorted(os.listdir(os.path.join(GOLDEN, case))):
            path = os.path.join(GOLDEN, case, artifact)
            names = golden_sections(case, artifact)
            with open(path, encoding="utf-8") as f:
                if artifact.endswith(".json"):
                    written = written_keys(json.load(f), tables.get(artifact, []))
                else:
                    written = f.readline().rstrip("\r\n").split(",")
            wrong.append(stale(tables, names, os.path.relpath(path, ROOT), written))
            used.update(names)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gaussian", "n": 200, "p": 2, "eigensolver": {
        "K": 30, "N": 2048, "cache_dir": eig_cache}}))   # volterra_eig_small, warm
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for artifact in ("manifest.json", "dataset.json"):
        with open(out / artifact, encoding="utf-8") as f:
            written = written_keys(json.load(f), tables.get(artifact, []))
        wrong.append(stale(tables, [artifact], "a `lapcert simulate` run's " + artifact,
                           written))
        used.add(artifact)
    wrong = [w for w in wrong if w]
    assert not wrong, "docs/formats.md tables are stale:\n" + "\n".join(wrong)
    assert set(tables) == used, "tables that no artifact checks: %s" % sorted(set(tables) - used)


def test_readme_links_name_headings():
    with open(DOC, encoding="utf-8") as f:
        headings = re.findall(r"^#+ (.*)$", f.read(), re.M)
    anchors = {re.sub(r"[^\w\- ]", "", h.lower()).replace(" ", "-") for h in headings}
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        links = re.findall(r"docs/formats\.md#([^)\s]+)", f.read())
    missing = sorted(set(links) - anchors)
    assert links and not missing, "README.md links to docs/formats.md#%s, which no heading " \
        "of formats.md makes" % missing
