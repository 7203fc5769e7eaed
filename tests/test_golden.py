"""Replay the CLI golden transcript: every invocation keeps its exit code
and its stdout byte for byte.

tests/golden/cli.jsonl holds one invocation per line: its argv, its exit
code and the sha256 of its stdout.  In argv, {golden} stands for the
tests/golden directory and {tmp} for a fresh temporary directory; the
digest is taken with their paths in stdout written as {golden} and {tmp}.  A
change that alters output on purpose rewrites the digests with

    PYTHONPATH=src python tests/test_golden.py

and declares the change.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from gapbench.cli import dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
TRANSCRIPT = GOLDEN / "cli.jsonl"


def load():
    return [json.loads(line) for line in TRANSCRIPT.read_text().splitlines()]


def replay(argv, tmp) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch([a.format(golden=GOLDEN, tmp=tmp) for a in argv])
    stdout = out.getvalue().replace(str(GOLDEN), "{golden}").replace(str(tmp), "{tmp}")
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


@pytest.mark.parametrize("record", load(), ids=lambda r: " ".join(r["argv"]))
def test_transcript(record, tmp_path):
    assert replay(record["argv"], tmp_path) == record


def test_the_iqp_circuit_file_is_what_iqp_emits(tmp_path):
    path = tmp_path / "c.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["iqp", "--poly", str(GOLDEN / "f8.json"),
                         "--emit-circuit", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / "iqp8.json").read_bytes()


def test_the_gadget_matrix_file_is_what_reduce_emits(tmp_path):
    path = tmp_path / "g.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["reduce", "--poly", str(GOLDEN / "cube3.json"),
                         "--emit-matrix", str(path)]) == 0
    assert path.read_bytes() == (GOLDEN / "gadget3.json").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = [json.dumps(replay(r["argv"], tmp)) for r in load()]
    TRANSCRIPT.write_text("".join(line + "\n" for line in lines))
