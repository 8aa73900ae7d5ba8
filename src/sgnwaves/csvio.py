"""The one CSV formatter and writer behind every table the package writes."""

import numpy as np


def format_column(col) -> list:
    """The words of one column: floats by repr, so parsing them back
    round-trips exactly; integers as digits; booleans as true/false."""
    col = np.asarray(col)
    if col.dtype == bool:
        return np.where(col, "true", "false").tolist()
    return list(map(repr, col.tolist()))


def write_csv(path, header: str, columns) -> None:
    """Write columns of words from format_column under a header line, with "\\n" line ends.

    Columns of unequal length raise ValueError, and nothing is written.
    """
    lines = [header, *map(",".join, zip(*columns, strict=True))]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
