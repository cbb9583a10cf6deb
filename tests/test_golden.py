"""Golden corpus: sha256 digests of every file the CLI writes on small runs.

`tests/golden/digests.json` maps each case (command, model, gain or suite)
to its exit code and the digest of each file the command wrote. A refactor
must leave the table unchanged. A change that alters outputs on purpose
regenerates the cases it means to change, by name, with

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

(for example `verify/lemmaD`), and records the regeneration and its reason
in CHANGES.md. That rewrites only the named cases: if any other case
differs from the table, or a name is not a case, it writes nothing, lists
them and exits 1. Without a name it rewrites the whole table.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

import fpf_lab
from fpf_lab.cli import main
from fpf_lab.fields import Polynomial, PolyScalarField
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


def _model_cases(root: Path, name: str, runs) -> dict:
    """simulate/<name>, then <command>/<name>/<gain> on its observations
    for each (command, gain) of runs."""
    case = root / name
    case.mkdir()
    for gain in GAINS:
        cfg = case / f"{gain}.ini"
        cfg.write_text(CONFIG.format(model=MODELS[name], gain=gain))
    sim = case / "simulate"
    cfg = str(case / f"{GAINS[0]}.ini")
    table = {f"simulate/{name}": _run(["simulate", "--config", cfg], sim)}
    obs = str(sim / "obs.csv")
    for command, gain in runs:
        cfg = str(case / f"{gain}.ini")
        table[f"{command}/{name}/{gain}"] = _run(
            [command, "--config", cfg, "--obs", obs],
            case / f"{command}-{gain}")
    return table


def _suite_cases(root: Path, suites) -> dict:
    return {f"verify/{suite}": _run(["verify", suite],
                                    root / f"verify-{suite}")
            for suite in suites}


def golden_table(root: Path) -> dict:
    table = {}
    for name in MODELS:
        table.update(_model_cases(root, name, [
            (command, gain) for gain in GAINS
            for command in ("filter", "compare")]))
    table.update(_suite_cases(root, SUITE_NAMES))
    return table


def blas_table(root: Path) -> dict:
    """The golden cases whose numbers pass through BLAS products: the
    Galerkin gain in d = 2 and on a cubic h, and the suites built on
    matrix products or on polynomial fields."""
    table = {}
    for name in ("linear2d", "cubic-sensor"):
        table.update(_model_cases(root, name, [("filter", "galerkin")]))
    table.update(_suite_cases(root, ("el-invariance", "appendixB", "piola",
                                     "lm2", "taylor")))
    return table


def dense_cubic_digests() -> dict:
    """sha256 of the value and gradient bytes of a d = 20 dense cubic h,
    every monomial of degree 1 to 3 (1,770 terms), at 3,001 seeded points:
    one ensemble of many blocks, whose product rows BLAS may split among
    its threads."""
    d = 20
    terms = {tuple(axes.count(j) for j in range(d)): 1e-4
             for r in (1, 2, 3)
             for axes in combinations_with_replacement(range(d), r)}
    terms[(1,) + (0,) * (d - 1)] = 1.0
    h = PolyScalarField(Polynomial(d, terms))
    x = np.random.default_rng(36).uniform(-1.0, 1.0, size=(3001, d))
    return {name: hashlib.sha256(a.tobytes()).hexdigest()
            for name, a in zip(("value", "grad"), h.partials(x, 1))}


def _dump(table: dict) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def one_thread(tmp_path_factory) -> dict:
    """blas_table and dense_cubic_digests, run in a fresh interpreter with
    one BLAS and OpenMP thread."""
    root = tmp_path_factory.mktemp("one-thread")
    src = os.path.dirname(os.path.dirname(fpf_lab.__file__))
    path = [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import json, sys; from pathlib import Path; "
            "from test_golden import blas_table, dense_cubic_digests; "
            "root = Path(sys.argv[1]); "
            "out = {'table': blas_table(root), "
            "'fields': dense_cubic_digests()}; "
            "(root / 'out.json').write_text(json.dumps(out))")
    run = subprocess.run([sys.executable, "-c", code, str(root)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads((root / "out.json").read_text())


def test_outputs_match_golden_digests(tmp_path, capsys):
    table = golden_table(tmp_path)
    capsys.readouterr()
    expected = json.loads(GOLDEN.read_text())
    changed = sorted(k for k in table.keys() | expected.keys()
                     if table.get(k) != expected.get(k))
    assert not changed, (
        f"cases differing from {GOLDEN.name}: {', '.join(changed)}\n"
        f"new digest table:\n{_dump(table)}")


def test_blas_cases_match_golden_digests_on_one_thread(one_thread):
    """The golden corpus does not depend on the BLAS thread count: its
    BLAS-heavy cases, run with one BLAS thread, write the files whose
    digests the table holds."""
    table = one_thread["table"]
    expected = json.loads(GOLDEN.read_text())
    assert len(table) == 9
    assert table == {case: expected[case] for case in table}


def test_dense_cubic_field_bits_do_not_depend_on_blas_threads(one_thread):
    """A d = 20 dense cubic h gives the same value and gradient bytes
    with one BLAS thread as with this process's default thread count."""
    assert one_thread["fields"] == dense_cubic_digests()


def _regenerate(names) -> int:
    with tempfile.TemporaryDirectory() as root:
        table = golden_table(Path(root))
    if names:
        expected = json.loads(GOLDEN.read_text())
        unknown = sorted(set(names) - table.keys())
        others = sorted(k for k in table.keys() | expected.keys()
                        if k not in names and table.get(k) != expected.get(k))
        if unknown or others:
            sys.stderr.write(
                f"not a case: {', '.join(unknown) or '-'}; unnamed cases "
                f"differing from {GOLDEN.name}: {', '.join(others) or '-'}; "
                "nothing written\n")
            return 1
        table = {**expected, **{name: table[name] for name in names}}
    GOLDEN.write_text(_dump(table))
    sys.stdout.write(f"wrote {GOLDEN}\n")
    return 0


if __name__ == "__main__":
    sys.exit(_regenerate(sys.argv[1:]))
