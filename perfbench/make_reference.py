"""Write ref/scan50.npz: the 50x50 paper-window scan that the scan checks compare with.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on the commit the reference should come from; the file in
the repository was written from the code before any scan optimisation.
"""

import pathlib
import tempfile

import numpy as np

import sgnwaves as sw

import checks
from workloads import G, REFERENCE, WINDOW


def main() -> None:
    result = sw.scan_region(*WINDOW, 50, g=G)
    with tempfile.TemporaryDirectory(dir=REFERENCE.parent) as tmp:
        path = pathlib.Path(tmp) / "scan50.csv"
        sw.write_scan_csv(result, path)
        parsed = checks.parse_scan_csv(path.read_text())
    np.savez_compressed(REFERENCE, s=parsed["s"], tau=parsed["tau"], lam=parsed["lam"],
                        n_positive=parsed["n_positive"])
    print(f"wrote {REFERENCE}: {parsed['lam'].shape[0]} points")


if __name__ == "__main__":
    main()
