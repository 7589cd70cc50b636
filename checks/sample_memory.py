"""interp.sample at MAX_DEGREE in bounded memory, against Franke's function by `math`."""

import math, sys
from _common import peak_rss

N = 4097 * 4098 // 2
# set positions 0 (k=0, j=1), 1 (k=0, j=2), N // 2 and N - 1 (k=4096, j=2049, the vertex (-1, -1))
POSITIONS = (0, 1, N // 2, N - 1)
CHILD = ("from padua import functions, interp, points; "
         "v = interp.sample(points.generate(4096), functions.get('franke')); "
         f"print(v.size, *(repr(float(v[i])) for i in {POSITIONS}))")

def franke(x1, x2):
    u, v = 4.5 * (x1 + 1.0), 4.5 * (x2 + 1.0)
    return (0.75 * math.exp(-((u - 2.0) ** 2 + (v - 2.0) ** 2) / 4.0)
            + 0.75 * math.exp(-((u + 1.0) ** 2) / 49.0 - (v + 1.0) / 10.0)
            + 0.5 * math.exp(-((u - 7.0) ** 2 + (v - 3.0) ** 2) / 4.0)
            - 0.2 * math.exp(-((u - 4.0) ** 2) - (v - 7.0) ** 2))

def node(pos, n=4096):
    """Coordinates of the node at a set position: rows k hold n//2 + 1 (even k) or
    (n+1)//2 + 1 (odd k) nodes, and eta = 2j - 1 for even k, 2j - 2 for odd k."""
    k = 0
    while pos >= (count := n // 2 + 1 if k % 2 == 0 else (n + 1) // 2 + 1):
        pos, k = pos - count, k + 1
    eta = 2 * pos + 1 - k % 2
    return math.cos(math.pi * k / n), math.cos(math.pi * eta / (n + 1))

# f is called on blocks of whole lattice rows of each node sub-grid, written straight into
# the sub-grid views of the 67.2 MB result, which read +67.1 MB; the bound leaves 29 MB for
# f's block temporaries and platform differences.  A lattice filled and gathered through
# per-node index arrays read +385.6 MB, and per-node coordinate arrays +642 MB
rss, rss_ok, code, out = peak_rss("sample(generate(4096), franke)", "-c", CHILD,
                                  baseline="padua", limit_mb=96,
                                  read=lambda pipe: pipe.read().decode().split())
size, *values = out
err = max(abs(float(v) - franke(*node(i))) for i, v in zip(POSITIONS, values))
print(f"{rss}, exit {code}, {size} samples ({N} expected), largest deviation from "
      f"math's Franke at set positions {POSITIONS}: {err:.2e} (at most 1e-14 allowed)")
sys.exit(0 if code == 0 and rss_ok and int(size) == N and err <= 1e-14 else 1)
