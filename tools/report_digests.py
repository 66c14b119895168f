"""Digests of the harness reports and the demos' output, for checking that a
change leaves every result byte-identical.

    python3 tools/report_digests.py

Run from any directory; the package is imported from this checkout's
``src/``.  Prints two lines:

- ``reports <sha256>`` over the 312 reports: the 13 suites at each
  (n, L, d) in CONFIGS, seeds 2026 and 7, 4 and 10 trials.  A suite that
  raises ValueError (``cantor_suite`` at d = 0.3) counts as the
  exception's text.
- ``demos <sha256>`` over the standard output of every script in
  ``demos/``, in name order.

Run it on two checkouts and compare the lines.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = [(1, 6, 0.5), (2, 4, 1.0), (1, 5, 0.5), (2, 6, 1.0), (1, 5, 0.3), (3, 3, 1.5)]
SEEDS = (2026, 7)
TRIALS = (4, 10)


def report_texts():
    """One text per report, in (config, suite, seed, trials) order."""
    sys.path.insert(0, str(SRC))
    from choquet.harness import SUITES, run_suite

    for n, L, d in CONFIGS:
        for name in SUITES:
            for seed in SEEDS:
                for trials in TRIALS:
                    try:
                        yield run_suite(name, trials, L, seed, n=n, d=d).to_json()
                    except ValueError as exc:
                        yield f"ValueError: {exc}"


def demo_outputs():
    """The standard output of each demo, run as a reader would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                              check=True, timeout=600)
        yield f"{demo.name}\n{proc.stdout}"


def digest(texts) -> tuple[str, int]:
    h, count = hashlib.sha256(), 0
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
        count += 1
    return h.hexdigest(), count


def main():
    reports, count = digest(report_texts())
    print(f"reports {reports} ({count} reports)")
    demos, count = digest(demo_outputs())
    print(f"demos {demos} ({count} demos)")


if __name__ == "__main__":
    main()
