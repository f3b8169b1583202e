"""Make the golden corpus: CLI outputs that ``tests/test_golden.py`` compares fresh runs against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

It runs every case of ``CASES`` through ``cli.main``, writes the outputs
into this directory, and records in ``core.txt`` the OpenBLAS kernel that
made them, since another kernel rounds the same products differently.  A
change that alters an output on purpose reruns this script and says which
files changed and why.
"""

import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parent))

from conftest import corename  # noqa: E402

from usctransfer import cli  # noqa: E402

# the bench's sweep_map grid
SWEEP_GRID = {"t_inv_values": [0.04, 0.07, 0.1], "g0_values": [0.05, 0.2, 0.35, 0.5]}
CORE_FILE = "core.txt"

# each case's command line: {out} is the directory its outputs go to, {golden} this one,
# whose sweep config, optimize JSON and schedule CSV are inputs
CASES = {
    "simulate_rabi": ["simulate", "--t-inv", "0.1", "--model", "rabi", "--alpha", "0", "--beta", "1",
                      "--out", "{out}/simulate_rabi.json", "--traj-out", "{out}/traj_rabi.csv"],
    "simulate_rwa": ["simulate", "--t-inv", "0.1", "--model", "rwa", "--alpha", "0.6", "--beta", "0.8",
                     "--out", "{out}/simulate_rwa.json", "--traj-out", "{out}/traj_rwa.csv"],
    "sweep": ["sweep", "--config", "{golden}/sweep_config.json", "--out", "{out}/sweep.csv"],
    "optimize": ["optimize", "--t-inv", "0.04", "--g0", "0.3", "--bins", "20", "--seed", "7", "--restarts", "2",
                 "--max-iters", "25", "--out", "{out}/optimize.json", "--schedule-out", "{out}/schedule.csv"],
    "replay": ["simulate", "--schedule", "{golden}/optimize.json", "--out", "{out}/replay.json"],
    "replay_csv": ["simulate", "--schedule", "{golden}/schedule.csv", "--out", "{out}/replay_csv.json"],
}


def argv(case: str, out: Path) -> list[str]:
    """The command line of ``case`` with its outputs in ``out``."""
    return [arg.format(out=out, golden=GOLDEN) for arg in CASES[case]]


def outputs(case: str) -> list[str]:
    """File names of the outputs of ``case``."""
    return [arg.removeprefix("{out}/") for arg in CASES[case] if arg.startswith("{out}/")]


def main() -> int:
    (GOLDEN / "sweep_config.json").write_text(json.dumps(SWEEP_GRID) + "\n")
    for case in CASES:  # in order: the replays read the optimize outputs just written
        if cli.main(argv(case, GOLDEN)) != 0:
            print(f"make_golden: case {case} failed", file=sys.stderr)
            return 1
    (GOLDEN / CORE_FILE).write_text(f"{corename()}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
