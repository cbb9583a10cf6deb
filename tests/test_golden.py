"""Golden corpus: sha256 digests of every file the CLI writes on small runs.

`tests/golden/digests.json` maps each case (command, model, gain or suite)
to its exit code and the digest of each file the command wrote. A refactor
must leave the table unchanged. A change that alters outputs on purpose
regenerates it with

    PYTHONPATH=src python tests/test_golden.py

and records the regeneration and its reason in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from fpf_lab.cli import main
from fpf_lab.verify import SUITE_NAMES

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

MODELS = {
    "linear1d": "name = linear1d",
    "linear2d": "name = linear2d",
    "cubic-sensor": "name = cubic-sensor",
    "constant-signal": "name = constant-signal",
    # affine drift and an observation offset: the closed-form gain and
    # Kalman-Bucy on a parsed model
    "inline-affine": ("dimension = 1\ndrift_1 = -0.5*x1\n"
                      "obs = 2*x1 + 0.3\nsigma = 0.8"),
}
GAINS = ("exact_gaussian", "constant", "galerkin")

CONFIG = """\
[model]
{model}

[time]
dt = 0.05
t_end = 1.0

[filter]
n_particles = 100
gain = {gain}

[seeds]
truth = 11
observation = 12
filter = 13

[compare]
seeds = 13 14
grid_points = 401
"""


def _run(argv, out: Path) -> dict:
    """Exit code of one CLI call and the digest of each file it wrote."""
    code = main(argv + ["--out", str(out)])
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir())} if out.exists() else {}
    return {"exit": code, "files": files}


def golden_table(root: Path) -> dict:
    table = {}
    for name, model in MODELS.items():
        case = root / name
        case.mkdir()
        for gain in GAINS:
            cfg = case / f"{gain}.ini"
            cfg.write_text(CONFIG.format(model=model, gain=gain))
        sim = case / "simulate"
        cfg = str(case / f"{GAINS[0]}.ini")
        table[f"simulate/{name}"] = _run(["simulate", "--config", cfg], sim)
        obs = str(sim / "obs.csv")
        for gain in GAINS:
            cfg = str(case / f"{gain}.ini")
            for command in ("filter", "compare"):
                table[f"{command}/{name}/{gain}"] = _run(
                    [command, "--config", cfg, "--obs", obs],
                    case / f"{command}-{gain}")
    for suite in SUITE_NAMES:
        table[f"verify/{suite}"] = _run(["verify", suite],
                                        root / f"verify-{suite}")
    return table


def _dump(table: dict) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def test_outputs_match_golden_digests(tmp_path, capsys):
    table = golden_table(tmp_path)
    capsys.readouterr()
    expected = json.loads(GOLDEN.read_text())
    changed = sorted(k for k in table.keys() | expected.keys()
                     if table.get(k) != expected.get(k))
    assert not changed, (
        f"cases differing from {GOLDEN.name}: {', '.join(changed)}\n"
        f"new digest table:\n{_dump(table)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        GOLDEN.write_text(_dump(golden_table(Path(root))))
    sys.stdout.write(f"wrote {GOLDEN}\n")
