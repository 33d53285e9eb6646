"""Golden outputs: the sha256 of the small sweep CSVs and of one simulate
dump.  Any change to a random stream, a response table or the output
format moves one of these hashes, so a refactor that claims bit-identical
output is checked here rather than by hand."""

import hashlib

import pytest

from jurymech.cli import cli_main

SWEEP_CSV_SHA256 = {
    "fig1a-small": "fd165a041105efa71ef1b51bddd52b87277e8997fa728044d020f3861e2b0351",
    "fig1b-small": "7c42062ff23ccf72a1118bf703ccde71c63a5f30273ef047f89c9d9b22528e45",
    "fig1c-small": "737f4d59c74ed49378e90fce3b99ffe99d0db8a2d2f14e43331c0706d9c49168",
}

SIMULATE_ARGS = [
    "simulate", "--kleros", "1", "2", "--n", "100", "--rho", "0.7",
    "--epsilon", "1", "--rounds", "50", "--seed", "7",
]
SIMULATE_STDOUT_SHA256 = "2576bb1aa06c0e124e1a1c8cb3b3eef05230927a9ae182a2e1fa2da3bc26a3c3"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("preset", sorted(SWEEP_CSV_SHA256))
def test_sweep_csv(preset, tmp_path, capsys):
    assert cli_main(["sweep", "--preset", preset, "--out", str(tmp_path), "--no-svg"]) == 0
    capsys.readouterr()
    assert sha256((tmp_path / f"{preset}.csv").read_bytes()) == SWEEP_CSV_SHA256[preset]


def test_simulate_dump(capsys):
    assert cli_main(SIMULATE_ARGS) == 0
    out = capsys.readouterr().out
    assert out.startswith("0,64\n1,44\n")
    assert sha256(out.encode("utf-8")) == SIMULATE_STDOUT_SHA256
