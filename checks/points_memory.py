"""points at MAX_DEGREE in bounded memory: the whole table, never stored."""

import sys
from _common import peak_rss

def count_lines(pipe):
    # the table is streamed through: counted, its last line kept, never stored
    lines, tail = 0, b""
    for block in iter(lambda: pipe.read(1 << 20), b""):
        lines += block.count(b"\n")
        tail = (tail + block)[-4096:]
    return lines, tail.decode().splitlines()[-1]

rss, rss_ok, code, (lines, last) = peak_rss("points --degree 4096", "-m", "padua", "points",
                                            "--degree", "4096", "--output", "-", read=count_lines)
print(f"{rss}, exit {code}, {lines} lines (8394754 expected), last {last!r} "
      f"('4096,2049,-1,-1,vertex' expected)")
sys.exit(0 if code == 0 and rss_ok and lines == 8394754 and last == "4096,2049,-1,-1,vertex" else 1)
