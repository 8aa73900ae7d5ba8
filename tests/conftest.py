"""Shared test helpers."""

import pathlib


def reemit_csv(path) -> str:
    """Parse one of the package's CSVs and re-serialize it cell by cell.

    Numeric cells were written with repr(), so float() -> repr() must
    reproduce them byte for byte; integer and boolean cells pass through
    int() and literal matching.  Used to demonstrate round-trip fidelity.
    """
    text = pathlib.Path(path).read_text()
    out_lines = []
    for idx, line in enumerate(text.splitlines()):
        if idx == 0:
            out_lines.append(line)
            continue
        cells = []
        for cell in line.split(","):
            if cell in ("true", "false"):
                cells.append(cell)
            else:
                try:
                    cells.append(str(int(cell)))
                except ValueError:
                    cells.append(repr(float(cell)))
        out_lines.append(",".join(cells))
    return "\n".join(out_lines) + "\n"
