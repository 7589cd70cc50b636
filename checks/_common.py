"""What the checks share: their oracles, the padua CLI and the peak-memory harness."""

import csv, functools, importlib.util, resource, subprocess, sys, tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]  # `oracles` and `inputs`

@functools.cache
def bench_oracles():
    """perfbench/oracles.py, which shares the name `oracles`, loaded from its file on first use:
    it imports numpy, which a memory check must not hold while its children run."""
    spec = importlib.util.spec_from_file_location("bench_oracles", ROOT / "perfbench" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

def padua_rows(*args):
    """Run `python -m padua args` in a child process; return its CSV rows as dicts."""
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([sys.executable, "-m", "padua", *map(str, args), "--output",
                        f"{tmp}/out.csv"], check=True)
        return list(csv.DictReader(Path(tmp, "out.csv").read_text().splitlines()))

def peak_rss(label, *argv, baseline="padua.cli", read=None):
    """Run a child importing only `baseline`, then `python argv`, stdout through read(); return
    (both peaks as text, whether argv's is at most 32 MB higher, its exit code, read's result)."""
    # ru_maxrss of RUSAGE_CHILDREN is the largest peak of the children waited for, in KB;
    # a child's counts this process's pages until it execs: call once, from a small process
    subprocess.run([sys.executable, "-c", f"import {baseline}"], check=True)
    base = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE if read else None) as child:
        out = read(child.stdout) if read else None
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return (f"import-only peak {base:.1f} MB, {label} peak {peak:.1f} MB "
            f"(+{peak - base:.1f} MB, at most +32 allowed)"), peak - base <= 32, child.returncode, out
