"""perfbench's outputs against their oracles, traced and not, and perturbed to be caught."""

import json, subprocess, sys
from _common import ROOT

def reports(*flags):
    """Run perfbench/run.py for a second, echo its output, sum up and return its reports."""
    out = subprocess.check_output([sys.executable, str(ROOT / "perfbench" / "run.py"),
                                   "--seed", "1", "--seconds", "1", *flags], text=True)
    print(out, end="")
    found = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    print(len(found), "workload reports, correct:", [r["correct"] for r in found],
          *(["failed:", [r["failed"] for r in found]] if "--perturb" in flags else []))
    return found

plain = reports("--workload", "all", "--trace", "0")
traced = reports("--workload", "nodes-verify", "--trace", "1")
perturbed = reports("--workload", "all", "--trace", "0", "--perturb")
sys.exit(0 if len(plain) == 3 and all(r["correct"] is True for r in plain)
         and len(traced) == 1 and traced[0]["correct"] is True and len(perturbed) == 3
         and all(r["correct"] is False and r["failed"] == 1 for r in perturbed) else 1)
