"""Byte-for-byte CLI output of a fixed command corpus.

Each case runs ``cli.main`` in process and compares stdout, stderr and the
exit code exactly with ``tests/data/cli_golden.json``.  After an intended
output change, regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review its diff.
"""

import contextlib
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "run.cfg"
        config.write_text(CONFIG, encoding="utf-8")
        cases = {name: {"argv": argv, **run(argv, config)} for name, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
