"""interp on a 1000 x 1000 grid in bounded memory: the table's text made one block of rows at a time."""

import os, sys
from _common import peak_rss

# values, reference and the CSV's x1, x2 and abs_error columns take 8 MB each; the whole run
# reads about +51 MB, where text made per distinct value of each whole column read +303 MB
rss, rss_ok, code, _ = peak_rss("interp --degree 64 --function franke --grid 1000", "-m", "padua",
                                "interp", "--degree", "64", "--function", "franke", "--grid", "1000",
                                "--output", os.devnull, limit_mb=96)
print(f"{rss}, exit {code}")
sys.exit(0 if code == 0 and rss_ok else 1)
