#!/usr/bin/env python3
"""Write bench/reference.json: fine-step reference efficiencies F_ref.

Every Gaussian-protocol point the benchmark runs (the sweep_map sub-grid and
the two simulate_serial calls) is re-run with the same midpoint stepper at
dt = 0.0005, ten times finer than the CLI default of 0.005, so the
reference's own step error is about 100 times smaller than the error it
judges.  The values are committed with their provenance and read by the
correctness check; rerun this script only when the physics of a point
changes on purpose.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DT = 0.0005


def source_digest(src: Path) -> str:
    """sha256 over the package sources, in name order."""
    digest = hashlib.sha256()
    for path in sorted((src / "usctransfer").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from usctransfer.dynamics import PropagationOptions
    from usctransfer.sweep import SweepFixed, run_point

    from workloads import gaussian_points

    fixed = SweepFixed(options=PropagationOptions(dt=REFERENCE_DT))
    points = []
    for t_inv, g0, model in gaussian_points():
        start = time.perf_counter()
        record = run_point(t_inv, g0, fixed, model)
        points.append({"t_inv": t_inv, "g0": g0, "model": model, "fidelity": record.fidelity})
        print(f"{model} t_inv={t_inv} g0={g0}: F_ref={record.fidelity!r} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
    data = {
        "provenance": {
            "method": "piecewise-exponential midpoint stepper, run_point with SweepFixed defaults",
            "dt": REFERENCE_DT,
            "commit": git_commit(ROOT),
            "src_sha256": source_digest(ROOT / "src"),
        },
        "points": points,
    }
    (HERE / "reference.json").write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
