"""End-to-end CLI tests: golden reports, exit codes and the error paths.

The golden files under tests/golden/ are the CLI's own output, for example

    python -m diraclab.cli verify torus.json --seed 0 --report json \
        > tests/golden/verify-torus.json
    python -m diraclab.cli reduce circle-n2.json > tests/golden/reduce-circle-n2.json

with the scenario files written from SPECS below.  A change to the exact
arithmetic must leave every byte of them unchanged.
"""

import json
from pathlib import Path

import pytest

from diraclab import cli

GOLDEN = Path(__file__).parent / "golden"

SPECS = {
    "torus": {"name": "torus"},
    "circle-n2": {"name": "circle", "params": {"n": 2, "level": "1/2"}},
    "pair": {"name": "pair", "params": {"n": 2}},
    "pair-corrupt-sigma": {"name": "pair-corrupt-sigma", "params": {"n": 2}},
    "circle-n1": {"name": "circle", "params": {"n": 1}},
    "so3": {"name": "so3"},
    "graph-twist": {"name": "graph-twist"},
    "twist-mismatch": {"name": "twist-mismatch"},
    "line-bivector": {"name": "line-bivector"},
}

# the two negative fixtures fail a check on purpose
EXPECTED_EXIT = {"pair-corrupt-sigma": cli.EXIT_CHECK_FAILED,
                 "twist-mismatch": cli.EXIT_CHECK_FAILED}


def write_spec(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", sorted(SPECS))
def test_verify_matches_golden(tmp_path, capsys, name):
    spec = write_spec(tmp_path, SPECS[name])
    code, out, _ = run(capsys, ["verify", spec, "--seed", "0", "--report", "json"])
    assert code == EXPECTED_EXIT.get(name, cli.EXIT_OK)
    assert out == (GOLDEN / f"verify-{name}.json").read_text()


def test_reduce_matches_golden(tmp_path, capsys):
    spec = write_spec(tmp_path, SPECS["circle-n2"])
    code, out, _ = run(capsys, ["reduce", spec])
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / "reduce-circle-n2.json").read_text()


@pytest.mark.parametrize("name", ["pair", "pair-corrupt-sigma"])
@pytest.mark.parametrize("n", [3, 0, -2])
def test_pair_rejects_odd_or_nonpositive_n(tmp_path, capsys, name, n):
    spec = write_spec(tmp_path, {"name": name, "params": {"n": n}})
    code, out, err = run(capsys, ["verify", spec])
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert "positive even n" in err


def test_dump_pair_rejects_odd_n(tmp_path, capsys):
    spec = write_spec(tmp_path, {"name": "pair", "params": {"n": 3}})
    code, out, err = run(capsys, ["dump", spec])
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert "positive even n" in err


@pytest.mark.parametrize("level, argv", [
    ("1/2", ["--level", "0"]),
    ("0", []),
])
def test_reduce_at_level_zero_is_hypothesis_violated(tmp_path, capsys, level, argv):
    spec = write_spec(tmp_path, {"name": "circle", "params": {"n": 2, "level": level}})
    code, out, err = run(capsys, ["reduce", spec, *argv])
    assert code == cli.EXIT_CHECK_FAILED
    doc = json.loads(out)
    assert doc["status"] == "hypothesis-violated"
    assert "z2 = 0" in doc["detail"]
    assert err == ""
