"""Tests for `jsonio.dumps`, the one JSON writer of the command line: it
lays every value out as `json.dumps(value, indent=2)` does, and a `--json`
report carries the witness text that the `--witness` file gets."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from flatmc.cli import main
from flatmc.jsonio import dumps
from tests.test_cli import PRESENT_QUERIES

# Non-ASCII, astral, control characters, the two characters JSON escapes
# by name, a line separator and lone surrogates.
CHARACTERS = ("a", "Z", "7", " ", "\xe9", "\xdf", "\u2028", "\U0001f600",
              "\x00", "\x1f", "\x7f", "\t", "\n", "\r", '"', "\\", "/",
              "\ud800", "\udfff")
SCALARS = (True, False, 1, 0, -1, None, -10 ** 40, 10 ** 25, "")


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(CHARACTERS) for _ in range(rng.randrange(6)))


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth < 4 else 3)
    if kind == 0:
        return random_string(rng)
    if kind == 1:
        return rng.choice(SCALARS)
    if kind == 2:
        return rng.randrange(-10 ** 30, 10 ** 30)
    if kind in (3, 4):
        return {random_string(rng): random_value(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]


def test_random_values_are_laid_out_as_json_dumps_lays_them_out():
    rng = random.Random(59)
    for _ in range(3000):
        value = random_value(rng)
        assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], [{}, []], {"": {}}, True, [True, 1, False, 0], {"a": [None]},
    "\ud800\n\"\\\xe9", -10 ** 40], ids=repr)
def test_edge_values(value):
    assert dumps(value) == json.dumps(value, indent=2)


class Text(str):
    pass


@pytest.mark.parametrize("value", [1.5, (1,), {1: "a"}, {"a": {0}},
                                   Text("a"), [0, Text("a")]])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize("command", sorted(PRESENT_QUERIES))
def test_reports_and_witness_files_are_laid_out_alike(command, tmp_path,
                                                      capsys):
    # Every JSON text a present answer prints or writes, under each
    # combination of --json and --witness, is laid out as json.dumps lays
    # it out, and all of them carry the same witness.
    data, flags = PRESENT_QUERIES[command]
    machine = tmp_path / "m.json"
    machine.write_text(json.dumps(data))
    witnesses = []
    for report, to_file in itertools.product((False, True), repeat=2):
        path = tmp_path / f"w{report:d}{to_file:d}.json"
        argv = [command, str(machine), *flags, "--bound", "3"]
        argv += ["--json"] if report else []
        argv += ["--witness", str(path)] if to_file else []
        assert main(argv) == 0
        out = capsys.readouterr().out
        if to_file:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            witnesses.append(json.loads(text))
        if report:
            printed = json.loads(out)
            assert out == json.dumps(printed, indent=2) + "\n"
            assert printed["verdict"] == "present"
            witnesses.append(printed["witness"])
        elif not to_file:
            text, verdict = out[:-1].rsplit("\n", 1)
            assert verdict == "present (bound 3)"
            assert text == json.dumps(json.loads(text), indent=2)
            witnesses.append(json.loads(text))
    assert len(witnesses) == 5
    assert all(witness == witnesses[0] for witness in witnesses)
