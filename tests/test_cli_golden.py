"""Byte-for-byte CLI output of a fixed command corpus.

Each case runs ``cli.main`` in process and compares stdout, stderr and the
exit code exactly with ``tests/data/cli_golden.json``.  After an intended
output change, regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py``: it prints, for each case
that changed, the largest relative difference of its numeric CSV fields
against the old file, with the column, so that a rounding-level change reads
as one number.  Review the diff of anything else it names.
"""

import contextlib
import csv
import io
import json
import pathlib
import tempfile

import pytest

from sectorlap.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
CONFIG = "# reconstruction\nfn = exp:a=-1\np = -1\nz = 1+0i,0.5+0.2i\nrel-tol = 1e-8\n"

CASES = {
    "transform-theta": ["transform", "--fn", "exp:a=1", "--theta", "0.3", "--omega",
                        "-2+0i,-1.5+0.5i,-3-1i,-2.5+2i", "--indicator-source", "numeric"],
    "transform-select-oracle": ["transform", "--fn", "exp:a=-1+1i", "--omega", "0+0i,-1+0.5i,0.5-2i"],
    "transform-select-numeric": ["transform", "--fn", "exp:a=1", "--omega", "-2+0i,-1.5+0.5i",
                                 "--indicator-source", "numeric"],
    "transform-select-numeric-complex-exponent": ["transform", "--fn", "exp:a=-0.8+0.3i", "--omega",
                                                  "0.2-0.4i,-0.5+1i", "--indicator-source", "numeric"],
    "transform-skip-invalid": ["transform", "--fn", "exp:a=1", "--theta", "0", "--omega",
                               "0+0i,-2+0i,1+1i", "--skip-invalid"],
    "transform-outside-domain": ["transform", "--fn", "exp:a=1", "--theta", "0", "--omega", "-2+0i,0+0i"],
    "invert-oracle": ["invert", "--fn", "exp:a=-1", "--p", "-1", "--z", "1+0i,0.5+0.2i"],
    "invert-numeric": ["invert", "--fn", "rational", "--p", "-1", "--z", "1+0i", "--rel-tol", "1e-7"],
    "invert-config": ["invert", "--config", "{config}"],
    "roundtrip-check-bound": ["roundtrip", "--fn", "exp:a=-1", "--p", "-1", "--radii", "1",
                              "--check-bound"],
    "indicator": ["indicator", "--fn", "sum:a1=-1,c1=1,a2=-2,c2=2", "--thetas", "-0.5,0,0.7"],
    "indicator-complex-exponent": ["indicator", "--fn", "exp:a=-0.8+0.3i", "--thetas", "-0.3,0.1,0.4"],
    "probe-q-r": ["probe", "--fn", "exp:a=1", "--theta", "0", "--q", "-0.5-1.2i", "--r", "-0.5+1.2i"],
    "probe-zero-q-r": ["probe", "--fn", "zero", "--q", "-0.5-1.2i", "--r", "-0.5+1.2i"],
    "probe-numeric": ["probe", "--fn", "exp:a=-1+1i", "--theta", "0.2", "--g-source", "numeric"],
    "probe-sum-off-axis": ["probe", "--fn", "sum:a1=-1,c1=1,a2=-2,c2=2", "--theta", "0.5"],
    "probe-missing-oracle": ["probe", "--fn", "rational", "--g-source", "oracle"],
    "unknown-fn": ["transform", "--fn", "gauss", "--theta", "0", "--omega", "-1+0i"],
}


def run(argv, config_path) -> dict:
    """stdout, stderr and exit code of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([arg.replace("{config}", str(config_path)) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, golden, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    assert golden[name]["argv"] == CASES[name]
    assert run(CASES[name], config) == {k: golden[name][k] for k in ("stdout", "stderr", "exit")}


def largest_change(old: dict, new: dict) -> str:
    """How a case's run ``new`` differs from ``old``, naming its largest relative CSV field change.

    A field's relative change is |new - old| / max(|old|, |new|), at most 2.
    """
    changes = [f"{key} changed" for key in ("argv", "stderr", "exit") if old[key] != new[key]]
    old_rows, new_rows = (list(csv.reader(io.StringIO(run["stdout"]))) for run in (old, new))
    if [len(row) for row in old_rows] != [len(row) for row in new_rows] or old_rows[:1] != new_rows[:1]:
        return ", ".join(changes + ["CSV shape or header changed"])
    worst, where = 0.0, None
    for old_row, new_row in zip(old_rows[1:], new_rows[1:]):
        for column, a, b in zip(old_rows[0], old_row, new_row):
            if a == b:
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                changes.append(f"text field {column} changed")
                continue
            if x == y:
                continue
            rel = abs(y - x) / max(abs(x), abs(y))
            if where is None or rel > worst:
                worst, where = rel, f"{column} ({a} -> {b})"
    if where is not None:
        changes.append(f"largest relative change {worst:.1e} in {where}")
    return ", ".join(changes)


def test_largest_change_names_the_worst_field():
    old = {"argv": ["probe"], "stderr": "", "exit": 0, "stdout": "a,b,c\n1,2.5,true\n0,-4,x\n"}
    assert largest_change(old, old) == ""
    new = dict(old, stdout="a,b,c\n1.0000001,2.5,true\n0,-4.4,y\n")
    assert largest_change(old, new) == "text field c changed, largest relative change 9.1e-02 in b (-4 -> -4.4)"
    assert largest_change(old, dict(new, exit=3, stdout="a,b\n")) == "exit changed, CSV shape or header changed"


if __name__ == "__main__":
    previous = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "run.cfg"
        config.write_text(CONFIG, encoding="utf-8")
        cases = {name: {"argv": argv, **run(argv, config)} for name, argv in CASES.items()}
    for name, case in cases.items():
        if name not in previous:
            print(f"{name}: new case")
        elif previous[name] != case:
            print(f"{name}: {largest_change(previous[name], case)}")
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
