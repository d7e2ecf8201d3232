"""Byte-level fuzzing of every input reader: a mutated crosswalk, class
table or frequency table must either load or raise a ``GemError``, never
another exception. At the command line, every command given one mutated
input must exit 0, or exit 2 with an error that names that input.

Each case starts from a well-formed file and applies one to four
mutations: a ``,`` ``"`` CR, LF, NUL or 0xff byte inserted, a line dropped,
duplicated or cut short, a code made over-long, or a code cell replaced by a
quoted one holding a newline. The description file has its own differential
test in ``test_array_oracles.py``.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gem_line, make_map_entries, random_code, run_cli
from gementropy import entropy, gem_io
from gementropy.errors import GemError

_INSERTS = [b",", b'"', b"\r", b"\n", b"\x00", b"\xff"]
_OPS = ["insert", "drop", "duplicate", "truncate", "long-code", "quoted-newline"]


@st.composite
def _mutated(draw, lines: list[bytes]) -> bytes:
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(_OPS))
        at = draw(st.integers(0, len(lines)))
        line = lines[at] if at < len(lines) else b""
        if op == "insert":
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + draw(st.sampled_from(_INSERTS)) + line[cut:]
        elif op == "truncate":  # its line break may go too, joining the next line
            line = line[: draw(st.integers(0, len(line)))]
        elif op == "long-code":
            line = b"A" * draw(st.integers(9, 40)) + line
        elif op == "quoted-newline":
            line = b'"A1\nB2"' + line[line.find(b",") :] if b"," in line else b'"A1\nB2" ' + line
        lines[at : at + 1] = {"drop": [], "duplicate": [line, line]}.get(op, [line])
    return b"".join(lines)


def _loads_or_gem_error(load, data: bytes) -> None:
    try:
        load(data)
    except GemError:
        pass


def _crosswalk_lines(seed: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    maps = int(rng.integers(1, 6))
    entries = [e for i in range(maps) for e in make_map_entries(rng, f"S{i}", max_m=6)]
    lines = [gem_line(e).encode() + b"\n" for e in entries]
    if rng.integers(0, 2):
        lines.append(b"NM1 NoDx 11000\n")
    return lines


def _score_crosswalk(data: bytes) -> None:
    entropy.score_maps(gem_io.group_maps(gem_io.parse_gem_file(data, "gems.txt")))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 2**32 - 1))
def test_mutated_crosswalk(data, seed):
    _loads_or_gem_error(_score_crosswalk, data.draw(_mutated(_crosswalk_lines(seed))))


def _class_lines(seed: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    rows = [b"low,high,label\n"]
    for i, letter in enumerate("ABCDEFGH"[: int(rng.integers(1, 9))]):
        low, high = sorted(rng.integers(0, 100, size=2))
        rows.append(f"{letter}{low:02d},{letter}{high:02d},class {i % 3}\n".encode())
    return rows


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 2**32 - 1))
def test_mutated_class_table(data, seed):
    _loads_or_gem_error(gem_io.load_class_defs, data.draw(_mutated(_class_lines(seed))))


def _frequency_lines(seed: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    rows = [b"code,probability\n"]
    codes = {random_code(rng) for _ in range(int(rng.integers(1, 8)))}
    for code, p in zip(sorted(codes), rng.choice(["0", "1", "0.5", "1e-3", " 0.25 "], len(codes))):
        rows.append(f"{code},{p}\n".encode())
    return rows


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 2**32 - 1))
def test_mutated_frequency_table(data, seed):
    _loads_or_gem_error(gem_io.load_frequencies, data.draw(_mutated(_frequency_lines(seed))))


GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS, REPORTS = GOLDEN / "corpus", GOLDEN / "reports"
# every command on the golden corpus; each path is an input the test may mutate
_COMMANDS = [
    ["score", "--gems", CORPUS / "gems.txt", "--frequencies", CORPUS / "frequencies.csv"],
    ["stats", "--gems", CORPUS / "gems.txt"],
    ["rank", "--gems", CORPUS / "gems.txt", "--classes", CORPUS / "classes.csv"],
    ["outliers", "--gems", CORPUS / "gems.txt", "--top-fraction", "0.5",
     "--descriptions", CORPUS / "descriptions.csv"],
    ["textnet", "--gems", CORPUS / "gems.txt", "--top-fraction", "0.3",
     "--descriptions", CORPUS / "descriptions.csv"],
    ["corr", REPORTS / "csv" / "rank" / "rank_z_alpha.csv",
     REPORTS / "json" / "rank" / "rank_z_beta.json"],
]


@st.composite
def _command_with_mutated_input(draw):
    """A command, one of its inputs, and that input's bytes mutated."""
    command = draw(st.sampled_from(_COMMANDS))
    target = draw(st.sampled_from([arg for arg in command if isinstance(arg, Path)]))
    return command, target, draw(_mutated(target.read_bytes().splitlines(keepends=True)))


@settings(max_examples=600, deadline=None)
@given(_command_with_mutated_input())
def test_mutated_input_errors_name_it(case):
    """The command exits 0, or exits 2 with a first stderr line that names the
    mutated input: its path, with its line when the error is about a row; a
    ``corr`` error about two rank files names both."""
    command, target, data = case
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / target.name
        mutated.write_bytes(data)
        argv = [str(mutated if arg == target else arg) for arg in command]
        code, stderr = run_cli(argv + ["--out", str(Path(tmp) / "out")])
    if code != 0:
        path = re.escape(str(mutated))
        assert code == 2 and re.match(rf"error: ({path}(:\d+)?|{path} and .*|.* and {path}): ",
                                      stderr[0]), (command[0], stderr)
