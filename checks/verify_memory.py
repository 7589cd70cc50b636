"""verify up to n = 100: every check passes, in bounded memory."""

import json, pathlib, sys, tempfile
from _common import peak_rss

with tempfile.TemporaryDirectory() as tmp:
    # the delta check holds one cumulative table of a node sub-grid and
    # one chunk of its lattice rows; the 5151 x 5151 matrix would take 212 MB
    rss, rss_ok, _, _ = peak_rss("verify --max-degree 100", "-m", "padua", "verify",
                                 "--max-degree", "100", "--seed", "1", "--format", "json",
                                 "--output", f"{tmp}/verify100.json")
    doc = json.loads(pathlib.Path(tmp, "verify100.json").read_text())
failed = [(c["check"], c["degree"]) for c in doc["checks"] if not c["passed"]]
kernel = max((c for c in doc["checks"] if c["check"] == "kernel_oracle_agreement"),
             key=lambda c: c["observed"])
print(len(doc["checks"]), "checks up to degree", doc["max_degree"], "all_passed:",
      doc["all_passed"], "failed:", failed)
print(f"largest kernel_oracle_agreement: {kernel['observed']:.3g} at n = "
      f"{kernel['degree']} (at most 1e-10 allowed)")
print(rss)
sys.exit(0 if doc["all_passed"] is True and not failed
         and kernel["observed"] <= 1e-10 and rss_ok else 1)
