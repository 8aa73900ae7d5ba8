"""The one CSV writer behind every table the package writes."""

import numpy as np


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns under a header line, with "\\n" line ends.

    Floats are written by repr, so parsing them back round-trips exactly;
    integers are written as digits and booleans as true/false.
    """
    cells = []
    for col in map(np.asarray, columns):
        words = np.where(col, "true", "false") if col.dtype == bool else col
        cells.append(map(str, words.tolist()))    # str(float) is repr(float)
    lines = [header, *map(",".join, zip(*cells))]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
