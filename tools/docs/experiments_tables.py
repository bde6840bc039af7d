#!/usr/bin/env python3
"""Render EXPERIMENTS.json into the tables of EXPERIMENTS.md.

Each record that `dgc_experiments` writes (bench/experiments.cc) becomes
markdown tables between the markers

    <!-- experiments:<id> -->
    <!-- /experiments:<id> -->

in EXPERIMENTS.md; everything outside the markers is left alone. A timed
cell {min, median, max} reads "median (min–max)"; a cell a row lacks reads
"—". Every record needs its markers and every marker pair its record.

Usage: experiments_tables.py [--root DIR] [--check]
  --check  exit 1, printing a diff, if EXPERIMENTS.md is not what this
           script would write (a hand edit, or a stale EXPERIMENTS.json).
"""

import argparse
import difflib
import json
import pathlib
import re
import sys

MARKER_RE = re.compile(r"<!-- experiments:([\w.]+) -->\n(.*?)"
                       r"<!-- /experiments:\1 -->", re.S)


def number(v, digits):
    if isinstance(v, int):
        return str(v)
    if abs(v) >= 10 ** digits:
        return f"{v:.0f}"
    return f"{v:.{digits}g}"


def cell(v):
    if v is None:
        return "—"
    if isinstance(v, dict):
        return (f"{number(v['median'], 3)} "
                f"({number(v['min'], 3)}–{number(v['max'], 3)})")
    if isinstance(v, str):
        return v.replace("|", "\\|")
    return number(v, 4)


def render_table(rows):
    columns = []
    for row in rows:
        columns += [c for c in row if c not in columns]
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "---|" * len(columns)]
    for row in rows:
        lines.append("| " + " | ".join(cell(row.get(c)) for c in columns)
                     + " |")
    return "\n".join(lines) + "\n"


def render_record(record):
    tables = record["tables"]
    parts = []
    for table in tables:
        caption = f"*{table['name']}*\n\n" if len(tables) > 1 else ""
        parts.append(caption + render_table(table["rows"]))
    return "\n".join(parts)


def render(doc, records):
    by_id = {r["id"]: r for r in records}
    seen = set()
    errors = []

    def replace(match):
        record = by_id.get(match.group(1))
        if record is None:
            errors.append(f"marker {match.group(1)} has no record")
            return match.group(0)
        seen.add(record["id"])
        return (f"<!-- experiments:{record['id']} -->\n"
                f"{render_record(record)}"
                f"<!-- /experiments:{record['id']} -->")

    out = MARKER_RE.sub(replace, doc)
    errors += [f"record {i} has no marker" for i in by_id if i not in seen]
    return out, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[2])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()

    md_path = args.root / "EXPERIMENTS.md"
    doc = md_path.read_text(encoding="utf-8")
    records = json.loads((args.root / "EXPERIMENTS.json").read_text(
        encoding="utf-8"))["experiments"]
    rendered, errors = render(doc, records)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    if not args.check:
        md_path.write_text(rendered, encoding="utf-8")
        return 0
    if rendered != doc:
        sys.stderr.writelines(difflib.unified_diff(
            doc.splitlines(True), rendered.splitlines(True),
            "EXPERIMENTS.md", "rendered from EXPERIMENTS.json"))
        print("EXPERIMENTS.md is stale: run tools/docs/experiments_tables.py",
              file=sys.stderr)
        return 1
    print(f"{len(records)} experiment records: EXPERIMENTS.md is current")
    return 0


if __name__ == "__main__":
    sys.exit(main())
