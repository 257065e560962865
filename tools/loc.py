"""Count the lines of code of each module of the package, the measure behind "least code".

    python3 tools/loc.py

A line counts unless it is blank or its first non-blank character is
``#``, as ``grep -cvE '^\\s*(#|$)'`` counts; docstrings count. The tool
prints ``{module file name: count, ..., "total": sum}`` for every ``.py``
file of ``src/vtseval`` as sorted JSON.
"""
from __future__ import annotations

import json
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "vtseval"


def code_lines(path: Path) -> int:
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if line.strip() and not line.lstrip().startswith("#"))


def main() -> None:
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    counts["total"] = sum(counts.values())
    print(json.dumps(counts, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
