"""cubature at MAX_DEGREE in bounded memory, against I0(1)^2."""

import csv, pathlib, sys, tempfile
from _common import bench_oracles, peak_rss

with tempfile.TemporaryDirectory() as tmp:
    rss, rss_ok, _, _ = peak_rss("cubature --degree 4096", "-m", "padua", "cubature",
                                 "--degree", "4096", "--function", "exp_sum",
                                 "--output", f"{tmp}/cubature4096.csv")
    (row,) = csv.DictReader(pathlib.Path(tmp, "cubature4096.csv").read_text().splitlines())
err = abs(float(row["integral"]) - bench_oracles().bessel_i0_squared_at_one())
print(f"{rss}, |integral - I0(1)^2| = {err:.2e}")
sys.exit(0 if rss_ok and err <= 1e-13 else 1)
