"""The points table against the Padua nodes of a module that does not import padua."""

import io, itertools, subprocess, sys
import numpy as np
import _common  # noqa: F401 (puts the oracles on the path)
from inputs import padua_nodes  # (k, j, x1, x2, eta) in set order, from the definition

HEADER = "k,j,x1,x2,class"
CLASSES = ("vertex", "edge", "interior")
BLOCK = 1 << 16  # table lines parsed at a time; the n = 4096 table has 8.4e6

def compare(n, lines):
    """Print the points table of degree n, given as its CSV lines (header first) and parsed
    BLOCK lines at a time, against the definition; True if it has one row per node, k, j
    and class equal, and x1 and x2 within 1e-15."""
    k, j, x1, x2, eta = padua_nodes(n)
    # vertex, edge or interior node (0, 1, 2) as 2, 1 or 0 of k in {0, n}, eta in {0, n+1} hold
    ref = (k, j, x1, x2, 2 - np.isin(k, [0, n]).astype(int) - np.isin(eta, [0, n + 1]))
    lines = iter(lines)
    header = next(lines, "").rstrip("\n") == HEADER
    rows, same, gap = 0, [True] * 3, 0.0
    while block := list(itertools.islice(lines, BLOCK)):
        text = "".join(block)
        for code, name in enumerate(CLASSES):  # a class cell is the only one with letters
            text = text.replace(f",{name}", f",{code}")
        try:
            got = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
        except ValueError:  # a cell that is neither a number nor a class
            got = np.full((len(block), 5), np.nan)
        part = slice(rows, rows + len(got))
        rows += len(got)
        if rows > len(k) or got.shape[1] != 5:
            same = [False] * 3
            break
        same = [s and np.array_equal(got[:, c], ref[c][part]) for s, c in zip(same, (0, 1, 4))]
        gap = max([gap] + [float(np.max(np.abs(got[:, c] - ref[c][part]))) for c in (2, 3)])
    print(f"n = {n}: {rows} rows for {len(k)} nodes, header, k, j, class equal: "
          f"{[header] + same}, largest coordinate difference {gap:.2e} "
          "(at most 1e-15 allowed)")
    return header and rows == len(k) and all(same) and gap <= 1e-15

def check(n):
    """compare on `padua points --degree n`, streamed from a child process."""
    with subprocess.Popen([sys.executable, "-m", "padua", "points", "--degree", str(n),
                           "--output", "-"], stdout=subprocess.PIPE, text=True) as child:
        ok = compare(n, child.stdout)
    return ok and child.returncode == 0

if __name__ == "__main__":
    sys.exit(0 if all([check(n) for n in (1, 2, 3, 64, 511, 4096)]) else 1)
