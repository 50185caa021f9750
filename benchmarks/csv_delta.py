#!/usr/bin/env python3
"""Print how the CSV files of two output directories differ, column by column.

For every CSV file under ``DIR_A`` whose twin under ``DIR_B`` (the same
relative path) differs, the script prints the file's name and one line per
changed column: the number of rows in which the column changed, the
largest absolute change ``|b - a|`` and the largest relative change
``|b - a| / max(|a|, |b|)`` over those rows, and, for a column of integers,
its total on each side.  A file found on one side
only, or whose header or row count differs, is named as such.  Identical
files print nothing.  With ``output_digest.py --keep`` it lists what a
change did to the digested outputs:

    python benchmarks/output_digest.py --src ../parent/src --keep ../parent-out
    python benchmarks/output_digest.py --keep ../change-out
    python benchmarks/csv_delta.py ../parent-out ../change-out
"""

import argparse
import csv
from pathlib import Path


def _read(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as stream:
        header, *rows = csv.reader(stream)
    return header, rows


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _column_delta(name: str, old: list[str], new: list[str]) -> str:
    """The line of one column, given its values on both sides."""
    changed = [(a, b) for a, b in zip(old, new) if a != b]
    line = f"  {name}: {len(changed)} rows"
    pairs = [(_number(a), _number(b)) for a, b in changed]
    if all(a is not None and b is not None for a, b in pairs):
        line += (f", max abs {max(abs(b - a) for a, b in pairs):.3g}"
                 f", max rel {max(abs(b - a) / max(abs(a), abs(b)) for a, b in pairs):.3g}")
    if all(text.lstrip("-").isdigit() for text in old + new):
        line += f", total {sum(map(int, old))} -> {sum(map(int, new))}"
    return line


def delta(dir_a: Path, dir_b: Path) -> list[str]:
    """The printout for the CSV files of ``dir_a`` against ``dir_b``."""
    names = sorted({p.relative_to(d).as_posix() for d in (dir_a, dir_b)
                    for p in d.rglob("*.csv")})
    lines = []
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in {dir_a if a.is_file() else dir_b}")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        (head_a, rows_a), (head_b, rows_b) = _read(a), _read(b)
        if head_a != head_b or len(rows_a) != len(rows_b):
            lines.append(f"{name}: header or row count differs "
                         f"({len(rows_a)} -> {len(rows_b)} rows)")
            continue
        lines.append(f"{name}: {sum(r != s for r, s in zip(rows_a, rows_b))} "
                     f"of {len(rows_a)} rows differ")
        for k, column in enumerate(head_a):
            old, new = [r[k] for r in rows_a], [r[k] for r in rows_b]
            if old != new:
                lines.append(_column_delta(column, old, new))
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path, metavar="DIR_A")
    parser.add_argument("dir_b", type=Path, metavar="DIR_B")
    args = parser.parse_args()
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    for line in delta(args.dir_a, args.dir_b):
        print(line)
