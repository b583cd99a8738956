"""Tests for the command-line front end: exit codes, file formats, and the
independence of the witness checker."""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
import types

import pytest

import flatmc
from flatmc import cli, reductions
from flatmc.cli import build_parser, main
from flatmc.formulas import FormulaError, RegTest, parse, subformulas
from flatmc.jsonio import (
    machine_from_data,
    machine_to_data,
    witness_from_data,
    witness_to_data,
)
from flatmc.machines import (
    Config,
    LassoRun,
    MachineError,
    Run,
    Update,
    op_value,
    rep_reach_oracle,
    validate_run,
)
from flatmc.reach import expand_updates, parametric_reach
from tests.gen import all_gammas, random_machine
from tests.oracles import gamma_reach_oracle, mc_oracle

CLIMB_AND_TEST = {
    "states": ["q", "q2"],
    "initial": "q",
    "params": ["x"],
    "labels": {},
    "transitions": [
        {"from": "q", "op": "+1", "to": "q"},
        {"from": "q", "op": "=x:x", "to": "q2"},
    ],
}


@pytest.fixture
def write(tmp_path):
    def _write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data) if isinstance(data, dict) else data)
        return str(path)
    return _write


def _with_transition(**entry) -> dict:
    """CLIMB_AND_TEST with the one transition `entry` (defaults q +1 q)."""
    return dict(CLIMB_AND_TEST,
                transitions=[{"from": "q", "op": "+1", "to": "q", **entry}])


_NO_LABELS = "labels must map states to lists of propositions"

# Every check a machine file meets, one fault a file: the file's data (or
# text) and the whole message `flatmc` prints after the file's path. The
# shape checks come from `machine_from_data`, the op checks from `parse_op`,
# and the name checks from `CounterMachine` itself.
MACHINE_FAULTS = {
    "not-an-object": ("[]", "machine file must be a JSON object"),
    "unknown-key": (dict(CLIMB_AND_TEST, extra=1),
                    "unknown machine file keys: ['extra']"),
    "no-initial": ({k: v for k, v in CLIMB_AND_TEST.items() if k != "initial"},
                   "machine file misses 'initial'"),
    "initial-not-a-string": (dict(CLIMB_AND_TEST, initial=0),
                             "initial must be a string"),
    "states-not-a-list": (dict(CLIMB_AND_TEST, states="q"),
                          "states must be a list of strings"),
    "duplicate": (dict(CLIMB_AND_TEST, states=["q", "q2", "q"]),
                  "states lists a name twice"),
    "labels-empty-list": (dict(CLIMB_AND_TEST, labels=[]), _NO_LABELS),
    "labels-false": (dict(CLIMB_AND_TEST, labels=False), _NO_LABELS),
    "labels-zero": (dict(CLIMB_AND_TEST, labels=0), _NO_LABELS),
    "labels-empty-string": (dict(CLIMB_AND_TEST, labels=""), _NO_LABELS),
    "labels-null": (dict(CLIMB_AND_TEST, labels=None), _NO_LABELS),
    "labels-of-a-state": (dict(CLIMB_AND_TEST, labels={"q": "p"}),
                          "labels of 'q' must be a list of strings"),
    "transitions-not-a-list": (dict(CLIMB_AND_TEST, transitions={}),
                               "transitions must be a list"),
    "transition-key": (_with_transition(via=0),
                       "malformed transition object at index 0"),
    "transition-without-to": (_with_transition(to=None),
                              "transition 0 needs a string 'to'"),
    "transition-without-from-and-to": (
        {"states": ["q"], "initial": "q", "transitions": [{"op": "+1"}]},
        "transition 0 needs a string 'from'"),
    "unknown-op": (_with_transition(op="*2"), "unknown op: '*2'"),
    "malformed-update": (_with_transition(op="+a"),
                         "malformed update op: '+a'"),
    "malformed-constant": (_with_transition(op=">c:a"),
                           "malformed constant in op: '>c:a'"),
    "malformed-parameter-op": (_with_transition(op=">x:a-b"),
                               "malformed parameter name in op: '>x:a-b'"),
    "params-not-a-list": (dict(CLIMB_AND_TEST, params="x"),
                          "params must be a list of strings"),
    "bad-state-name": (dict(CLIMB_AND_TEST, states=["q", "q2", "a b"]),
                       "bad state name: 'a b'"),
    "bad-parameter-name": (dict(CLIMB_AND_TEST, params=["x", "y z"]),
                           "bad parameter name: 'y z'"),
    "parameter-twice": (dict(CLIMB_AND_TEST, params=["x", "x"]),
                        "duplicate parameter names"),
    "initial": (dict(CLIMB_AND_TEST, initial="b"),
                "initial state 'b' not in states"),
    "endpoint": (_with_transition(to="typo"),
                 "transition 0 has an endpoint not in states"),
    "undeclared-parameter": (_with_transition(op="=x:z"),
                             "undeclared parameter 'z'"),
    "label-for-unlisted-state": (dict(CLIMB_AND_TEST, labels={"s": ["p"]}),
                                 "label for unknown state 's'"),
    "bad-proposition-name": (dict(CLIMB_AND_TEST, labels={"q": ["p q"]}),
                             "bad proposition name: 'p q'"),
}


class TestMachineFormat:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(30):
            m = random_machine(rng, with_consts=True, with_labels=True)
            again = machine_from_data(machine_to_data(m))
            assert again.states == m.states
            assert again.transitions == m.transitions
            assert again.labels == m.labels
            assert again.params == m.params

    def test_rejects_unknown_keys(self):
        data = dict(CLIMB_AND_TEST, extra=1)
        with pytest.raises(MachineError):
            machine_from_data(data)

    def test_rejects_malformed_transition(self):
        data = dict(CLIMB_AND_TEST)
        data["transitions"] = [{"from": "q", "op": "+1"}]
        with pytest.raises(MachineError):
            machine_from_data(data)

    @pytest.mark.parametrize("case", MACHINE_FAULTS)
    def test_fault_exits_2_with_its_message(self, case, write, capsys):
        data, message = MACHINE_FAULTS[case]
        machine = write("m.json", data)
        assert main(["reach", machine, "--target", "q2"]) == 2
        assert capsys.readouterr().err == f"error: {machine}: {message}\n"

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_a_missing_key_is_reported_alike_under_any_hash_seed(
            self, seed, write):
        data, message = MACHINE_FAULTS["transition-without-from-and-to"]
        machine = write("m.json", data)
        src = pathlib.Path(flatmc.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "flatmc.cli", "reach", machine,
             "--target", "q"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONHASHSEED": seed})
        assert (proc.returncode, proc.stderr) == (
            2, f"error: {machine}: {message}\n")

    @pytest.mark.parametrize("encoded,message", [
        ('\ufeff{"states": ["q"]}'.encode("utf-8"),
         " is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
         ": line 1 column 1 (char 0)"),
        ('{"states": ["q"]}'.encode("utf-16"),
         ": 'utf-8' codec can't decode byte 0xff in position 0: invalid "
         "start byte"),
        # Read as text, a CRLF line end counts as one character.
        (b'{\r\n  "states": [\r\n  x',
         " is not valid JSON: Expecting value: line 3 column 3 (char 18)"),
    ], ids=["utf-8-bom", "utf-16", "crlf"])
    def test_a_machine_file_is_read_as_utf_8_text(self, encoded, message,
                                                   tmp_path, capsys):
        machine = tmp_path / "m.json"
        machine.write_bytes(encoded)
        assert main(["reach", str(machine), "--target", "q"]) == 2
        assert capsys.readouterr().err == f"error: {machine}{message}\n"


class TestMachineLoader:
    """A machine file is read as UTF-8 text with universal newlines, as
    `open(path, encoding="utf-8")` reads it, and a bad op in it fails on
    every load."""

    @pytest.mark.parametrize("encoded,message", [
        # A lone CR ends a line, as CRLF does.
        (b'{\r  "states": [\r  x',
         " is not valid JSON: Expecting value: line 3 column 3 (char 18)"),
        # CR CR LF is two line ends: a lone CR, then a CRLF.
        (b'{\r\r\n  "states": [\r\r\n  x',
         " is not valid JSON: Expecting value: line 5 column 3 (char 20)"),
        # A position past the first 8 KB counts from the start of the file.
        (b'{"states": ["' + b"a" * 9000 + b'\xff"]}',
         ": 'utf-8' codec can't decode byte 0xff in position 9013: invalid "
         "start byte"),
        (b'{"states": ["' + b"a" * 8178 + b'\xe2\x82x"]}',
         ": 'utf-8' codec can't decode bytes in position 8191-8192: invalid "
         "continuation byte"),
    ], ids=["lone-cr", "cr-crlf", "past-8-kb", "across-8-kb"])
    def test_error_positions_are_those_of_text_mode(self, encoded, message,
                                                    tmp_path, capsys):
        machine = tmp_path / "m.json"
        machine.write_bytes(encoded)
        assert main(["reach", str(machine), "--target", "q"]) == 2
        assert capsys.readouterr().err == f"error: {machine}{message}\n"

    def test_a_bad_op_fails_on_every_load(self, write, capsys):
        machine = write("m.json", _with_transition(op="+a"))
        for _ in range(3):
            assert main(["reach", machine, "--target", "q"]) == 2
            assert capsys.readouterr().err == (
                f"error: {machine}: malformed update op: '+a'\n")
            data = json.loads(pathlib.Path(machine).read_text())
            with pytest.raises(MachineError, match="malformed update op"):
                machine_from_data(data)


class TestReach:
    def test_present_with_minimal_gamma(self, write, tmp_path):
        machine = write("m.json", CLIMB_AND_TEST)
        out = str(tmp_path / "w.json")
        assert main(["reach", machine, "--target", "q2", "--bound", "3",
                     "--witness", out]) == 0
        gamma, _run = witness_from_data(json.loads(open(out).read()))
        assert gamma == {"x": 0}

    def test_target_is_initial(self, write, tmp_path):
        machine = write("m.json", CLIMB_AND_TEST)
        out = str(tmp_path / "w.json")
        assert main(["reach", machine, "--target", "q", "--bound", "3",
                     "--witness", out]) == 0
        _gamma, run = witness_from_data(json.loads(open(out).read()))
        assert len(run.steps) == 0

    def test_json_report_encodes_the_witness_once(self, write, capsys,
                                                  monkeypatch):
        # Under --json without --witness the witness is written only inside
        # the report, so it is encoded once, with the report.
        machine = write("m.json", CLIMB_AND_TEST)
        calls = []
        dumps = json.dumps

        def counted(*args, **kwargs):
            calls.append(args)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)
        assert main(["reach", machine, "--target", "q2", "--bound", "3",
                     "--json"]) == 0
        assert len(calls) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "present"
        assert report["witness"]["gamma"] == {"x": 0}

    def test_absent_up_to_bound(self, write, capsys):
        data = {"states": ["q", "q2"], "initial": "q", "params": ["x"],
                "transitions": [{"from": "q", "op": ">x:x", "to": "q2"}]}
        machine = write("m.json", data)
        assert main(["reach", machine, "--target", "q2", "--bound", "4"]) == 1
        assert "up to bound 4" in capsys.readouterr().out

    def test_malformed_op_is_input_error(self, write):
        data = dict(CLIMB_AND_TEST)
        data["transitions"] = [{"from": "q", "op": "+ одно", "to": "q"}]
        machine = write("m.json", data)
        assert main(["reach", machine, "--target", "q"]) == 2

    def test_unknown_key_is_input_error(self, write):
        machine = write("m.json", dict(CLIMB_AND_TEST, comment="hi"))
        assert main(["reach", machine, "--target", "q"]) == 2

    def test_negative_cap_is_input_error(self, write, capsys):
        machine = write("m.json", CLIMB_AND_TEST)
        assert main(["reach", machine, "--target", "q2", "--bound", "3",
                     "--cap", "-5"]) == 2
        assert "--cap must be non-negative" in capsys.readouterr().err

    def test_cap_below_the_bound_is_raised(self, write, tmp_path):
        # The ceiling is raised to one above the largest of the bound, the
        # range ends and the constants: under --cap 2 the run still climbs
        # to 5, the bound, and passes >c:4 there.
        data = {"states": ["a", "b"], "initial": "a",
                "transitions": [{"from": "a", "op": "+1", "to": "a"},
                                {"from": "a", "op": ">c:4", "to": "b"}]}
        machine = write("m.json", data)
        out = str(tmp_path / "w.json")
        assert main(["reach", machine, "--target", "b", "--bound", "5",
                     "--cap", "2", "--witness", out]) == 0
        _gamma, run = witness_from_data(json.loads(open(out).read()))
        assert run.configs[-2:] == (Config("a", 5), Config("b", 5))
        assert main(["check", out, machine]) == 0


MISTYPED = {
    "from": {"transitions": [{"from": 3, "op": "+1", "to": "q"}]},
    "op": {"transitions": [{"from": "q", "op": 1, "to": "q"}]},
    "labels": {"labels": ["p"]},
    "states": {"states": "q"},
}


def _with_op(op: str) -> str:
    """CLIMB_AND_TEST with its one test replaced by `op`, as file text."""
    return json.dumps(dict(CLIMB_AND_TEST, transitions=[
        {"from": "q", "op": "+1", "to": "q"},
        {"from": "q", "op": op, "to": "q2"}]))


DEEP = "[" * 100000 + "]" * 100000
DIGITS = "9" * 5000

# Input files that raised out of `main` with a traceback, except the
# Arabic-Indic digit, which was read as 3: which file is corrupted, and its
# text or bytes.
MALFORMED = {
    "deep-machine": ("machine", DEEP),
    "deep-witness": ("witness", DEEP),
    "long-value": ("witness", '{"gamma": {"x": 0}, "run": [{"state": "q", '
                              '"value": ' + DIGITS + ', "via": null}]}'),
    "long-update": ("machine", _with_op("+" + DIGITS)),
    "long-constant": ("machine", _with_op(">c:" + DIGITS)),
    "superscript-digit": ("machine", _with_op("+\u00b2")),
    "arabic-indic-digit": ("machine", _with_op("+\u0663")),
    "not-utf-8": ("machine", b"\xff{}"),
}

# Bad input on the command line or a machine file that cannot be read: the
# machine file (None for a missing one), the command and its flags, and the
# message.
BAD_INPUT = {
    "missing-file": (None, ["reach", "--target", "q2"], "cannot read"),
    "not-json": ('{"states": [', ["reach", "--target", "q2"],
                 "is not valid JSON"),
    "no-accepting-state": (CLIMB_AND_TEST, ["buchi", "--accepting", ","],
                           "no accepting states given"),
    "a2a-without-target": (CLIMB_AND_TEST, ["translate", "--mode", "a2a"],
                           "--mode a2a needs --target"),
    "buchi2reach-without-target": (
        CLIMB_AND_TEST, ["translate", "--mode", "buchi2reach"],
        "--mode buchi2reach needs --target"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_exits_2_with_a_message(self, case, write, tmp_path, capsys):
        corrupted, text = MALFORMED[case]
        machine = write("m.json", CLIMB_AND_TEST)
        path = tmp_path / f"{corrupted}.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        if corrupted == "machine":
            code = main(["reach", str(path), "--target", "q2", "--bound", "3"])
        else:
            code = main(["check", str(path), machine])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("case", BAD_INPUT)
    def test_bad_input_exits_2_naming_its_fault(self, case, write, tmp_path,
                                                capsys):
        machine, (command, *flags), message = BAD_INPUT[case]
        path = (str(tmp_path / "missing.json") if machine is None
                else write("m.json", machine))
        assert main([command, path, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestStrictTypes:
    @pytest.mark.parametrize("field", [*MISTYPED, "value"])
    def test_mistyped_field_is_input_error(self, field, write, capsys):
        data = dict(CLIMB_AND_TEST, **MISTYPED.get(field, {}))
        machine = write("m.json", data)
        if field == "value":
            witness = write("w.json", {"gamma": {"x": 0}, "run": [
                {"state": "q", "value": True, "via": None}]})
            code = main(["check", witness, machine])
        else:
            code = main(["reach", machine, "--target", "q"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestBuchi:
    def test_self_loop(self, write):
        data = {"states": ["q"], "initial": "q",
                "transitions": [{"from": "q", "op": "0", "to": "q"}]}
        machine = write("m.json", data)
        assert main(["buchi", machine, "--accepting", "q", "--bound", "3"]) == 0

    def test_negative_cap_is_input_error(self, write):
        data = {"states": ["q"], "initial": "q",
                "transitions": [{"from": "q", "op": "0", "to": "q"}]}
        machine = write("m.json", data)
        assert main(["buchi", machine, "--accepting", "q", "--bound", "3",
                     "--cap", "-1"]) == 2

    def test_one_divergence_analysis_for_all_accepting_states(
            self, write, monkeypatch):
        # Both accepting states lie on cycles and neither repeats, so both
        # are searched.
        data = {"states": ["a", "b"], "initial": "a",
                "transitions": [{"from": "a", "op": "-1", "to": "a"},
                                {"from": "a", "op": "0", "to": "b"},
                                {"from": "b", "op": "-1", "to": "b"}]}
        machine = write("m.json", data)
        calls = []
        original = reductions.divergence_context

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(reductions, "divergence_context", counted)
        assert main(["buchi", machine, "--accepting", "a,b",
                     "--bound", "2"]) == 1
        assert len(calls) == 1

    def test_off_cycle_bad_input_still_exits_2(self, write):
        off_cycle = write("s.json", {
            "states": ["q", "r"], "initial": "q",
            "transitions": [{"from": "q", "op": "+2", "to": "r"}]})
        assert main(["buchi", off_cycle, "--accepting", "r"]) == 1
        assert main(["buchi", off_cycle, "--accepting", "r",
                     "--bound", "-1"]) == 2
        assert main(["buchi", write("m.json", CLIMB_AND_TEST),
                     "--accepting", "q2,nowhere"]) == 2

    def test_starving_machine(self, write):
        data = {"states": ["q"], "initial": "q",
                "transitions": [{"from": "q", "op": "-1", "to": "q"}]}
        machine = write("m.json", data)
        assert main(["buchi", machine, "--accepting", "q", "--bound", "3"]) == 1

    def test_witness_lasso_checks_out(self, write, tmp_path):
        machine = write("m.json", CLIMB_AND_TEST)
        out = str(tmp_path / "w.json")
        assert main(["buchi", machine, "--accepting", "q", "--bound", "3",
                     "--witness", out]) == 0
        assert main(["check", out, machine]) == 0


    def test_stored_value_may_exceed_the_bound(self, write, tmp_path):
        # The only lassos cycle s2 -> s3 -> s2 at values 2 and 1, with
        # x0 = 1: the value stored at the accepting visit is 2, above the
        # parameter bound. The bound applies to x0 alone.
        data = {"states": ["s0", "s1", "s2", "s3", "s4", "s5"],
                "initial": "s0", "params": ["x0"],
                "transitions": [
                    {"from": "s0", "op": "<x:x0", "to": "s5"},
                    {"from": "s5", "op": "0", "to": "s1"},
                    {"from": "s3", "op": "+1", "to": "s2"},
                    {"from": "s4", "op": "=x:x0", "to": "s0"},
                    {"from": "s4", "op": "=0", "to": "s3"},
                    {"from": "s5", "op": "+1", "to": "s3"},
                    {"from": "s2", "op": "-1", "to": "s3"},
                    {"from": "s2", "op": "-1", "to": "s3"},
                    {"from": "s0", "op": "+1", "to": "s0"},
                    {"from": "s2", "op": "=x:x0", "to": "s5"},
                    {"from": "s5", "op": "+1", "to": "s4"},
                    {"from": "s1", "op": "=x:x0", "to": "s2"}]}
        machine = write("m.json", data)
        out = str(tmp_path / "w.json")
        assert main(["buchi", machine, "--accepting", "s1,s2", "--bound", "1",
                     "--cap", "256", "--witness", out]) == 0
        gamma, _lasso = witness_from_data(json.loads(open(out).read()))
        assert gamma["x0"] <= 1
        assert main(["check", out, machine]) == 0

    def test_reports_the_accepting_state_that_repeats(self, write, tmp_path,
                                                      capsys):
        # Both states lie on a cycle, and only b repeats: a's loop takes a
        # decrement from 0.
        machine = write("m.json", {
            "states": ["a", "b"], "initial": "a",
            "transitions": [{"from": "a", "op": "-1", "to": "a"},
                            {"from": "a", "op": "0", "to": "b"},
                            {"from": "b", "op": "0", "to": "b"}]})
        out = str(tmp_path / "w.json")
        assert main(["buchi", machine, "--accepting", "a,b", "--bound", "2",
                     "--json", "--witness", out]) == 0
        assert json.loads(capsys.readouterr().out)["accepting"] == "b"
        assert main(["check", out, machine]) == 0

    def test_state_named_like_an_update_chain_state(self, write, tmp_path,
                                                    capsys):
        # The update expansion would name the chain state of +2 u0_1, a
        # state of this machine: that chain state is u0_1_0 instead.
        data = {"states": ["q", "u0_1"], "initial": "q",
                "transitions": [{"from": "q", "op": "+2", "to": "u0_1"},
                                {"from": "u0_1", "op": "-2", "to": "q"}]}
        expanded, _origin = expand_updates(machine_from_data(data))
        assert expanded.states == {"q", "u0_1", "u0_1_0", "u1_1"}
        machine = write("m.json", data)
        out = str(tmp_path / "w.json")
        assert main(["buchi", machine, "--accepting", "u0_1", "--bound", "2",
                     "--witness", out]) == 0
        assert main(["check", out, machine]) == 0
        # A state that only starts with u leaves the chain names as they
        # are, and the reduction of the expansion is a loadable machine.
        data = {"states": ["q", "up"], "initial": "q",
                "transitions": [{"from": "q", "op": "+2", "to": "up"},
                                {"from": "up", "op": "-2", "to": "q"}]}
        expanded, _origin = expand_updates(machine_from_data(data))
        assert expanded.states == {"q", "up", "u0_1", "u1_1"}
        capsys.readouterr()
        assert main(["translate", write("up.json", data), "--mode",
                     "buchi2reach", "--target", "up"]) == 0
        emitted = json.loads(capsys.readouterr().out)["machine"]
        assert {"u0_1", "u1_1"} <= machine_from_data(emitted).states

    @pytest.mark.parametrize("transitions", [
        # r is revisited at the value 1, after a climb above 2.
        [("q", "+1", "q"), ("q", ">c:2", "r"), ("r", "-1", "r"),
         ("r", "=c:1", "q")],
        # r repeats only as the counter climbs, through a chain ending >c:2.
        [("q", "+1", "q"), ("q", ">c:2", "r"), ("r", "+1", "q")],
    ], ids=["same-value", "divergence"])
    def test_certificate_is_a_run_of_the_emitted_reduction(
            self, transitions, write, tmp_path, capsys):
        # buchi solves the machine that translate --mode buchi2reach emits,
        # constant tests in place: its certificate is a run of that machine
        # to the target under the certificate's own gamma.
        machine = write("m.json", {
            "states": ["q", "r"], "initial": "q",
            "transitions": [{"from": a, "op": op, "to": b}
                            for a, op, b in transitions]})
        out = str(tmp_path / "w.json")
        assert main(["buchi", machine, "--accepting", "r", "--bound", "2",
                     "--json", "--witness", out]) == 0
        certificate = json.loads(capsys.readouterr().out)["witness"][
            "certificate"]
        assert main(["check", out, machine]) == 0
        capsys.readouterr()
        assert main(["translate", machine, "--mode", "buchi2reach",
                     "--target", "r"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        reduced = machine_from_data(emitted["machine"])
        gamma, run = witness_from_data(certificate)
        assert set(gamma) == set(reduced.params)
        assert validate_run(reduced, gamma, run) is None
        assert run.configs[-1].state == emitted["target"]

    def test_cap_at_the_end_of_the_stored_range_is_raised(self, write,
                                                            tmp_path):
        # The stored value y ranges up to the ceiling, 3, so the ceiling is
        # raised to 4, one above that range's end and the constant of
        # >c:3: the lasso climbs to 4 under --cap 3.
        data = {"states": ["a", "f"], "initial": "a",
                "transitions": [{"from": "a", "op": "+1", "to": "a"},
                                {"from": "a", "op": ">c:3", "to": "f"},
                                {"from": "f", "op": "0", "to": "f"}]}
        machine = write("m.json", data)
        out = str(tmp_path / "w.json")
        assert main(["buchi", machine, "--accepting", "f", "--bound", "0",
                     "--cap", "3", "--witness", out]) == 0
        lasso = json.loads(open(out).read())
        assert [(c["state"], c["value"]) for c in lasso["run"][-3:]] == \
            [("a", 4), ("f", 4), ("f", 4)]
        assert lasso["loop_start"] == 5
        assert main(["check", out, machine]) == 0

    def test_divergence_loop_above_the_cap(self, write, tmp_path):
        # The chain is entered at (a, 1), above --cap 0, so the loop is
        # searched at the value bound the divergence analysis proves.
        data = {"states": ["a"], "initial": "a",
                "transitions": [{"from": "a", "op": "+1", "to": "a"}]}
        machine = write("m.json", data)
        out = str(tmp_path / "w.json")
        assert main(["buchi", machine, "--accepting", "a", "--cap", "0",
                     "--bound", "1", "--witness", out]) == 0
        assert main(["check", out, machine]) == 0


class TestMc:
    def test_always_p(self, write, tmp_path):
        data = {"states": ["q"], "initial": "q", "labels": {"q": ["p"]},
                "transitions": [{"from": "q", "op": "+1", "to": "q"}]}
        machine = write("m.json", data)
        out = str(tmp_path / "w.json")
        assert main(["mc", machine, "--formula", "G p", "--bound", "3",
                     "--witness", out]) == 0
        assert main(["check", out, machine, "G p"]) == 0

    def test_not_flat_names_subformula(self, write, capsys):
        data = {"states": ["q"], "initial": "q",
                "transitions": [{"from": "q", "op": "0", "to": "q"}]}
        machine = write("m.json", data)
        code = main(["mc", machine, "--formula",
                     "G @r.(req -> F(serve & [=r]))", "--bound", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "not flat" in err and "U" in err

    @pytest.mark.parametrize("text", [
        "X " * 3000 + "p",
        "!" * 3000 + "p",
        "(" * 3000 + "p" + ")" * 3000,
        "p | " * 3000 + "p",
        "p U " * 3000 + "p",
        "p & " * 3000 + "p )",
    ], ids=["next", "negation", "parentheses", "or-chain", "until-chain",
            "malformed-and-chain"])
    def test_deep_nesting_is_input_error(self, write, capsys, text):
        with pytest.raises(FormulaError):
            parse(text)
        data = {"states": ["q"], "initial": "q",
                "transitions": [{"from": "q", "op": "0", "to": "q"}]}
        machine = write("m.json", data)
        assert main(["mc", machine, "--formula", text, "--bound", "1"]) == 2
        assert "nests deeper than 100 levels" in capsys.readouterr().err

    def test_freeze_forever(self, write, tmp_path):
        data = {"states": ["q"], "initial": "q",
                "transitions": [{"from": "q", "op": "0", "to": "q"}]}
        machine = write("m.json", data)
        out = str(tmp_path / "w.json")
        assert main(["mc", machine, "--formula", "F @r. G [=r]",
                     "--bound", "3", "--witness", out]) == 0
        assert main(["check", out, machine, "F @r. G [=r]"]) == 0

    def test_climbing_witness_checks_exactly_valid(self, write, tmp_path,
                                                   capsys):
        # The loop gains counter value and the sentence tests a register:
        # the word is still evaluated, with each pass one higher.
        data = {"states": ["q"], "initial": "q", "labels": {"q": ["p"]},
                "transitions": [{"from": "q", "op": "+1", "to": "q"}]}
        machine = write("m.json", data)
        out = str(tmp_path / "w.json")
        text = "F @r. X [>r]"
        assert main(["mc", machine, "--formula", text, "--bound", "3",
                     "--witness", out]) == 0
        assert json.loads(open(out).read())["formula_holds"] is True
        capsys.readouterr()
        assert main(["check", out, machine, text]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_formula_is_text_even_where_a_file_has_its_name(
            self, write, tmp_path, monkeypatch):
        # A file named p holds `G q`, which this machine violates; `mc` and
        # `check` read the argument p as the proposition p, not the file.
        data = {"states": ["q"], "initial": "q", "labels": {"q": ["p"]},
                "transitions": [{"from": "q", "op": "0", "to": "q"}]}
        machine = write("m.json", data)
        out = str(tmp_path / "w.json")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p").write_text("G q\n")
        assert main(["mc", machine, "--formula", "p", "--bound", "3",
                     "--witness", out]) == 0
        assert main(["check", out, machine, "p"]) == 0


# The flat sentences of the `mc_registers` benchmark workload.
MC_PATTERNS = ("G F p", "F G q", "p U q", "G(p -> F q)", "X X p",
               "F @r. G(p -> [>r] | [=r])", "!G @r.(p -> F(q & [=r]))",
               "F @r. X [>r]", "@r. G F [=r]", "F @r. G([<r] | [=r])")


class TestBinaryUpdates:
    """Seeded machines with updates of up to 8 in either direction: every
    command's verdict equals the brute-force oracle's, which steps the large
    updates as they stand, and every witness passes `flatmc check`."""

    def _run(self, write, tmp_path, machine, args, formula=()):
        path = write("m.json", machine_to_data(machine))
        out = str(tmp_path / "w.json")
        pathlib.Path(out).unlink(missing_ok=True)
        code = main([args[0], path, *args[1:], "--json", "--witness", out])
        if code == 0:
            assert main(["check", out, path, *formula]) == 0
            return witness_from_data(
                json.loads(pathlib.Path(out).read_text()))[1]
        assert code == 1
        return None

    def test_reach_and_buchi_equal_the_oracles(self, write, tmp_path, capsys):
        rng = random.Random(31)
        present = 0
        for _ in range(150):
            m = random_machine(rng, max_states=4, max_params=1, max_update=8)
            gammas = list(all_gammas(m.params, 2))
            target = rng.choice(sorted(m.states))
            got = self._run(write, tmp_path, m, [
                "reach", "--target", target, "--bound", "2", "--cap", "24"])
            assert (got is not None) == gamma_reach_oracle(m, target, 24,
                                                           gammas)
            accepting = rng.sample(sorted(m.states), min(2, len(m.states)))
            got = self._run(write, tmp_path, m, [
                "buchi", "--accepting", ",".join(accepting), "--bound", "2",
                "--cap", "24"])
            assert (got is not None) == any(
                rep_reach_oracle(m, g, accepting, 24) is not None
                for g in gammas)
            present += got is not None
        assert present >= 20
        capsys.readouterr()

    def test_mc_equals_the_oracle_within_its_horizon(self, write, tmp_path,
                                                     capsys):
        # The oracle enumerates lassos of at most 12 configurations with
        # values <= B, and evaluates a value-gaining loop only against a
        # register-free sentence. A witness inside that horizon must be
        # one it finds, and every lasso it finds is within the reach of
        # `mc --bound B`.
        rng = random.Random(32)
        outside = 0
        for i in range(120):
            m = random_machine(rng, max_states=3, max_params=0,
                               with_labels=True, max_update=8)
            text = MC_PATTERNS[i % len(MC_PATTERNS)]
            tests_a_register = any(isinstance(f, RegTest)
                                   for f in subformulas(parse(text)))
            got = self._run(write, tmp_path, m, [
                "mc", "--formula", text, "--bound", "3"], [text])
            expected = mc_oracle(m, parse(text), max_positions=12,
                                 max_value=3)
            if got is not None and not expected:
                assert (len(got.configs) > 12
                        or max(c.value for c in got.configs) > 3
                        or (got.loop_delta > 0 and tests_a_register))
                outside += 1
            else:
                assert (got is not None) == expected
        assert outside < 60
        capsys.readouterr()


    @pytest.mark.parametrize("args", [["reach", "--target", "r"],
                                      ["buchi", "--accepting", "q"],
                                      ["mc", "--formula", "true"]])
    def test_huge_update_is_refused_at_once(self, write, capsys, args):
        # Its expansion would take a billion states; it is refused before
        # any of them is built.
        path = write("m.json", {"states": ["q", "r"], "initial": "q",
                                "transitions": [{"from": "q",
                                                 "op": "+1000000000",
                                                 "to": "r"}]})
        start = time.perf_counter()
        assert main([args[0], path, *args[1:]]) == 2
        assert time.perf_counter() - start < 2
        assert "states, more than the limit" in capsys.readouterr().err


class TestTranslate:
    def test_unary_gadget_state_count(self, write, capsys):
        data = {"states": ["q", "q2"], "initial": "q",
                "transitions": [{"from": "q", "op": "+6", "to": "q2"}]}
        machine = write("m.json", data)
        assert main(["translate", machine, "--mode", "unary"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        # Two delimiter states plus a 1-state and a 0-state per bit.
        assert len(emitted["machine"]["states"]) == 2 + 2 * 3 + 2
        machine_from_data(emitted["machine"])

    @pytest.mark.parametrize("ops", [
        [f"+{k}" for k in range(2, 202)],
        [f"+{2 ** 1500}"],
    ], ids=["200-updates", "2^1500-update"])
    def test_unary_writes_formulas_deeper_than_the_recursion_limit(
            self, write, capsys, ops):
        # The rewritten specification nests a conjunct per update and a
        # tower of X per bit.
        machine = write("m.json", {
            "states": ["q"], "initial": "q",
            "transitions": [{"from": "q", "op": op, "to": "q"} for op in ops]})
        assert main(["translate", machine, "--mode", "unary"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        machine_from_data(emitted["machine"])
        assert emitted["formula"]

    def test_a_closed_output_pipe_exits_141_quietly(self, write):
        # The formula is megabytes long, more than a pipe holds, so the
        # command is still writing when the reader closes its end.
        machine = write("m.json", {
            "states": ["q"], "initial": "q",
            "transitions": [{"from": "q", "op": f"+{k}", "to": "q"}
                            for k in range(2, 202)]})
        src = pathlib.Path(flatmc.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "flatmc.cli", "translate", machine,
             "--mode", "unary"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.read(1)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_a2a_dump_lists_transitions(self, write, capsys):
        machine = write("m.json", CLIMB_AND_TEST)
        assert main(["translate", machine, "--mode", "a2a",
                     "--target", "q2"]) == 0
        out = capsys.readouterr().out
        assert "init: #" in out
        assert "q2 # true" in out

    def test_only_a2a_imports_the_automaton_module(self):
        # A fresh process starting the command line does not load it.
        src = pathlib.Path(flatmc.__file__).resolve().parents[1]
        code = ("import sys, flatmc.cli; "
                "sys.exit('flatmc.alternating' in sys.modules)")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": str(src)})

    def test_foldconst_identity_without_constants(self, write, capsys):
        machine = write("m.json", CLIMB_AND_TEST)
        assert main(["translate", machine, "--mode", "foldconst"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["pinned"] == {}
        assert emitted["machine"] == CLIMB_AND_TEST | {
            "labels": {}, "states": ["q", "q2"]}

    def test_buchi2reach_emits_target(self, write, capsys):
        machine = write("m.json", CLIMB_AND_TEST)
        assert main(["translate", machine, "--mode", "buchi2reach",
                     "--target", "q"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        again = machine_from_data(emitted["machine"])
        assert emitted["target"] in again.states
        assert "y" in again.params

    def test_buchi2reach_keeps_constant_tests_in_place(self, write, capsys):
        # <c:0 never fires, so no run repeats r. The emitted machine keeps
        # the test as written, so it alone has no run to s_hat: there is no
        # pinned parameter to hold at 0.
        machine = write("m.json", {
            "states": ["q", "r"], "initial": "q",
            "transitions": [{"from": "q", "op": "<c:0", "to": "r"},
                            {"from": "r", "op": "0", "to": "r"}]})
        assert main(["buchi", machine, "--accepting", "r", "--bound", "2"]) == 1
        capsys.readouterr()
        assert main(["translate", machine, "--mode", "buchi2reach",
                     "--target", "r"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        assert set(emitted) == {"machine", "target"}
        reduced = machine_from_data(emitted["machine"])
        assert "<c:0" in {t["op"] for t in emitted["machine"]["transitions"]}
        assert reduced.params == ("y",)
        assert parametric_reach(reduced, emitted["target"], 2) is None

    def test_buchi2reach_expands_large_updates(self, write, capsys):
        # As `buchi` does, the reduction is built on the machine with its
        # large updates expanded.
        machine = write("m.json", {
            "states": ["q", "r"], "initial": "q",
            "transitions": [{"from": "q", "op": "+2", "to": "r"},
                            {"from": "r", "op": "-2", "to": "q"}]})
        assert main(["buchi", machine, "--accepting", "r", "--bound", "2"]) == 0
        capsys.readouterr()
        assert main(["translate", machine, "--mode", "buchi2reach",
                     "--target", "r"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        reduced = machine_from_data(emitted["machine"])
        assert {abs(t.op.delta) for t in reduced.transitions
                if isinstance(t.op, Update)} <= {0, 1}
        assert parametric_reach(reduced, emitted["target"], 2) is not None

    def test_a2a_rejects_a_large_update(self, write, capsys):
        machine = write("m.json", {
            "states": ["q", "r"], "initial": "q",
            "transitions": [{"from": "q", "op": "+3", "to": "r"}]})
        assert main(["translate", machine, "--mode", "a2a",
                     "--target", "r"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_buchi2reach_off_cycle_target_gets_no_copy(self, write, capsys):
        # r lies on no cycle, so it can never repeat: the emitted machine is
        # the source and the target, with no store state, no copy and no
        # =x:y test.
        machine = write("m.json", {
            "states": ["q", "r"], "initial": "q",
            "transitions": [{"from": "q", "op": "+1", "to": "q"},
                            {"from": "q", "op": "0", "to": "r"}]})
        assert main(["translate", machine, "--mode", "buchi2reach",
                     "--target", "r"]) == 0
        emitted = json.loads(capsys.readouterr().out)
        reduced = emitted["machine"]
        assert set(reduced["states"]) == {"q", "r", emitted["target"]}
        assert "=x:y" not in {t["op"] for t in reduced["transitions"]}
        assert len(reduced["transitions"]) == 2

    @pytest.mark.parametrize("args", [
        ["buchi", "--accepting", "nowhere"],
        ["translate", "--mode", "buchi2reach", "--target", "nowhere"]])
    def test_unknown_accepting_state_has_one_error_text(self, args, write,
                                                        capsys):
        machine = write("m.json", CLIMB_AND_TEST)
        assert main([args[0], machine, *args[1:]]) == 2
        assert capsys.readouterr().err == \
            "error: accepting state 'nowhere' not in machine\n"

    def test_buchi2reach_unknown_target_is_input_error(self, write, capsys):
        machine = write("m.json", CLIMB_AND_TEST)
        assert main(["translate", machine, "--mode", "buchi2reach",
                     "--target", "nowhere"]) == 2
        assert "'nowhere'" in capsys.readouterr().err


# A machine on which `reach --target r`, `buchi --accepting r` and
# `mc --formula 'F p'` all answer present.
LOOP_TO_P = {
    "states": ["q", "r"],
    "initial": "q",
    "labels": {"r": ["p"]},
    "transitions": [
        {"from": "q", "op": "+1", "to": "q"},
        {"from": "q", "op": "0", "to": "r"},
        {"from": "r", "op": "0", "to": "r"},
    ],
}


class TestWitnessPath:
    """A --witness path that cannot be written is bad input, not an absent
    verdict."""

    @pytest.mark.parametrize("command,flags", [
        ("reach", ["--target", "r"]), ("buchi", ["--accepting", "r"]),
        ("mc", ["--formula", "F p"])])
    @pytest.mark.parametrize("inside", [True, False],
                             ids=["missing-directory", "directory"])
    def test_unwritable_witness_path_is_input_error(
            self, command, flags, inside, write, tmp_path, capsys):
        machine = write("m.json", LOOP_TO_P)
        path = tmp_path / "missing" / "w.json" if inside else tmp_path
        assert main([command, machine, *flags, "--bound", "2",
                     "--witness", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot write {path}: ")


USAGE = "usage: flatmc [-h] {reach,buchi,mc,translate,check} ...\n"
REACH_USAGE = """\
usage: flatmc reach [-h] [--bound BOUND] [--json] [--witness FILE] [--cap CAP]
                    --target TARGET
                    machine
"""
HELP = USAGE + """
Reachability, repeated reachability, and flat freeze LTL model checking for
one-counter machines with parameterized tests.

positional arguments:
  {reach,buchi,mc,translate,check}
    reach               is the target state reachable?
    buchi               can some accepting state repeat forever?
    mc                  does some run satisfy the flat sentence?
    translate           emit a construction
    check               re-check a witness file independently

options:
  -h, --help            show this help message and exit
"""
REACH_HELP = REACH_USAGE + """
positional arguments:
  machine          machine JSON file

options:
  -h, --help       show this help message and exit
  --bound BOUND    parameter value bound (default: derived from the machine
                   size)
  --json           machine-readable report on stdout
  --witness FILE   write the witness to FILE instead of stdout
  --cap CAP        counter exploration ceiling override
  --target TARGET
"""


class TestFlags:
    """Each command parses only the flags it reads, and the README lists
    exactly those. Argument errors and help print byte for byte as the
    top-level parser prints them."""

    @pytest.mark.parametrize("argv", [
        ["mc", "--formula", "G p", "--cap", "3"],
        ["translate", "--mode", "foldconst", "--bound", "3"],
        ["translate", "--mode", "foldconst", "--cap", "3"],
        ["translate", "--mode", "foldconst", "--json"],
        ["translate", "--mode", "foldconst", "--witness", "w.json"],
    ])
    def test_unread_flag_is_rejected(self, argv, write, capsys):
        machine = write("m.json", CLIMB_AND_TEST)
        with pytest.raises(SystemExit) as exited:
            main([argv[0], machine, *argv[1:]])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["--mode", "foldconst", "--target", "q", "--formula", "G p"],
         "--target"),
        (["--mode", "foldconst", "--formula", "G p"], "--formula"),
        (["--mode", "unary", "--target", "q"], "--target"),
        (["--mode", "a2a", "--target", "q", "--formula", "p"], "--formula"),
        (["--mode", "buchi2reach", "--target", "q", "--formula", "p"],
         "--formula"),
    ])
    def test_translate_rejects_a_flag_its_mode_does_not_read(
            self, argv, flag, write, capsys):
        machine = write("m.json", CLIMB_AND_TEST)
        assert main(["translate", machine, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("argv,stderr", [
        ([], USAGE + "flatmc: error: the following arguments are required: "
                     "command\n"),
        (["bogus"], USAGE + "flatmc: error: argument command: invalid "
                            "choice: 'bogus' (choose from 'reach', 'buchi', "
                            "'mc', 'translate', 'check')\n"),
        (["reach", "M", "--bogus"],
         REACH_USAGE + "flatmc reach: error: the following arguments are "
                       "required: --target\n"),
        (["reach", "M", "--target", "q2", "--bogus"],
         USAGE + "flatmc: error: unrecognized arguments: --bogus\n"),
        (["reach", "M", "--target", "q2", "extra", "--bogus=3"],
         USAGE + "flatmc: error: unrecognized arguments: extra --bogus=3\n"),
        (["reach", "M"],
         REACH_USAGE + "flatmc reach: error: the following arguments are "
                       "required: --target\n"),
        (["reach", "M", "--target", "q2", "--bound", "x"],
         REACH_USAGE + "flatmc reach: error: argument --bound: invalid int "
                       "value: 'x'\n"),
    ])
    def test_argument_errors_print_as_pinned(self, argv, stderr, write,
                                             capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        machine = write("m.json", CLIMB_AND_TEST)
        with pytest.raises(SystemExit) as exited:
            main([machine if a == "M" else a for a in argv])
        assert exited.value.code == 2
        assert capsys.readouterr() == ("", stderr)

    def test_abbreviated_flag_is_the_flag(self, write, capsys):
        machine = write("m.json", CLIMB_AND_TEST)
        assert main(["reach", machine, "--target", "q2", "--bound", "3"]) == 0
        full = capsys.readouterr()
        assert main(["reach", machine, "--targ", "q2", "--bound", "3"]) == 0
        assert capsys.readouterr() == full

    @pytest.mark.parametrize("argv,stdout", [
        (["--help"], HELP), (["reach", "--help"], REACH_HELP)])
    def test_help_prints_as_pinned(self, argv, stdout, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0
        assert capsys.readouterr() == (stdout, "")

    def test_readme_lists_each_commands_flags(self):
        listed = {}
        for line in _readme_section("Command line").splitlines():
            row = re.match(r"\| `(\w+) ", line)
            if row:
                listed[row.group(1)] = set(re.findall(r"--\w+", line))
        _parser, commands = build_parser()
        assert listed == {
            name: {flag for action in parser._actions
                   for flag in action.option_strings
                   if flag.startswith("--")} - {"--help"}
            for name, parser in commands.items()}

    def test_readme_lists_the_package_exports(self):
        bullets = _readme_section("Library").split("\n- ", 1)[1]
        listed = re.findall(r"`(\w+)`", bullets.split("\n\n", 1)[0])
        assert sorted(listed) == sorted(flatmc.__all__)
        assert len(set(listed)) == len(listed)
        public = {name for name, value in vars(flatmc).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)}
        assert public == set(flatmc.__all__)


# Command lines for `main`, with M, L, V and W standing for the paths of
# CLIMB_AND_TEST, of LOOP_TO_P, of a witness of `F p` on LOOP_TO_P, and of a
# witness file to write: every TestFlags argv, the lines the benchmark runs,
# and mutations of them that a plain line reader must leave to argparse.
PLAIN_LINES = {
    "reach": ["reach", "L", "--target", "r", "--bound", "12", "--cap", "24",
              "--json", "--witness", "W"],
    "buchi": ["buchi", "L", "--accepting", "q,r", "--bound", "1", "--cap",
              "256", "--json", "--witness", "W"],
    "mc": ["mc", "L", "--formula", "F p", "--bound", "3", "--json",
           "--witness", "W"],
}
DECLINED_LINES = [
    *([argv[0], "M", *argv[1:]] for argv in [
        ["mc", "--formula", "G p", "--cap", "3"],
        ["translate", "--mode", "foldconst", "--bound", "3"],
        ["translate", "--mode", "foldconst", "--cap", "3"],
        ["translate", "--mode", "foldconst", "--json"],
        ["translate", "--mode", "foldconst", "--witness", "W"]]),
    [], ["bogus"], ["--help"], ["--json"], ["reach", "--help"],
    ["reach", "M", "--bogus"], ["reach", "M", "--target", "q2", "--bogus"],
    ["reach", "M", "--target", "q2", "extra", "--bogus=3"], ["reach", "M"],
    ["reach", "M", "--target", "q2", "--bound", "x"],
    ["reach", "M", "--targ", "q2", "--bound", "3"],
    # Abbreviated flags and --flag=value.
    ["reach", "L", "--targ", "r", "--bound", "12", "--json"],
    ["buchi", "L", "--acc", "r"], ["mc", "L", "--form", "F p", "--wit", "W"],
    ["reach", "L", "--target=r", "--bound=12"], ["mc", "L", "--formula=F p"],
    # --, -h and negative values.
    ["reach", "--target", "r", "--", "L"],
    ["reach", "L", "--target", "r", "--"],
    ["reach", "L", "-h"], ["mc", "-h"], ["reach", "L", "--help"],
    ["reach", "L", "--target", "r", "--bound", "-3"],
    ["reach", "L", "--target", "r", "--cap", "-1"],
    ["buchi", "L", "--accepting", "-r"], ["reach", "-1", "--target", "r"],
    ["reach", "-q", "--target", "r"],
    # A flag without its value, or with a flag for one.
    ["reach", "L", "--target"], ["reach", "L", "--target", "--json"],
    # Repeated flags, the first or the last one bad.
    ["reach", "L", "--target", "r", "--bound", "x", "--bound", "3"],
    ["reach", "L", "--target", "r", "--bound", "3", "--bound", "x"],
    # A missing required flag, an extra positional, a bad int.
    ["buchi", "L", "--bound", "1"], ["mc", "L", "--json"],
    ["reach", "L", "L", "--target", "r"],
    ["reach", "L", "--target", "r", "--cap", "1.5"],
    ["reach", "L", "--target", "r", "--bound", ""],
    ["translate", "M", "--mode", "bogus"],
    ["check", "V", "L"], ["check", "V", "L", "F p"],
    ["check", "V", "L", "G p", "--json"],
]
# Plain lines besides the benchmark's: the reader takes them itself.
READ_LINES = [
    *([argv[0], "M", *argv[1:]] for argv in [
        ["mc", "--formula", "G p"],
        ["translate", "--mode", "foldconst", "--target", "q", "--formula",
         "G p"],
        ["translate", "--mode", "foldconst", "--formula", "G p"],
        ["translate", "--mode", "unary", "--target", "q"],
        ["translate", "--mode", "a2a", "--target", "q", "--formula", "p"],
        ["translate", "--mode", "buchi2reach", "--target", "q", "--formula",
         "p"],
        ["translate", "--mode", "foldconst"],
        ["reach", "--target", "q2", "--bound", "3"]]),
    ["reach", "--target", "q", "--target", "r", "L", "--json", "--json"],
    ["reach", "L", "--target", "", "--bound", " 3"],
    ["reach", "", "--target", "r"],
    ["mc", "L", "--formula", "F  p", "--witness", "W"],
]


class TestPlainLines:
    """`_parse` reads a plain command line from each command parser's own
    table, and leaves any other line to argparse; either way `main` does
    what argparse alone makes it do."""

    @pytest.fixture
    def line(self, write, tmp_path, capsys, monkeypatch):
        """Puts the paths in a command line."""
        monkeypatch.setenv("COLUMNS", "80")
        paths = {"M": write("m.json", CLIMB_AND_TEST),
                 "L": write("l.json", LOOP_TO_P),
                 "V": str(tmp_path / "v.json"),
                 "W": str(tmp_path / "w.json")}
        assert main(["mc", paths["L"], "--formula", "F p",
                     "--witness", paths["V"]]) == 0
        capsys.readouterr()
        return lambda argv: [paths.get(a, a) for a in argv]

    @staticmethod
    def _outcome(argv, capsys) -> tuple:
        """What `main(argv)` returns or exits with, prints, and writes to
        the witness file the line names, if any."""
        written = argv[argv.index("--witness") + 1] if (
            "--witness" in argv[:-1]) else None
        if written:
            with contextlib.suppress(FileNotFoundError):
                os.remove(written)
        try:
            code = main(argv)
        except SystemExit as exited:
            code = ("exit", exited.code)
        witness = (pathlib.Path(written).read_text()
                   if written and os.path.exists(written) else None)
        return code, capsys.readouterr(), witness

    @pytest.mark.parametrize("argv", [*PLAIN_LINES.values(), *READ_LINES,
                                      *DECLINED_LINES])
    def test_main_does_what_argparse_alone_does(self, argv, line, capsys,
                                                monkeypatch):
        argv = line(argv)
        read = self._outcome(argv, capsys)
        monkeypatch.setattr(cli, "_read_plain", lambda command, tokens: None)
        assert read == self._outcome(argv, capsys)

    @pytest.mark.parametrize("argv", [*PLAIN_LINES.values(), *READ_LINES])
    def test_a_plain_line_gets_argparses_namespace(self, argv, line):
        argv = line(argv)
        command = build_parser()[1][argv[0]]
        read = cli._read_plain(command, argv[1:])
        assert read is not None
        assert command.parse_known_args(argv[1:]) == (read, [])

    @pytest.mark.parametrize("argv", DECLINED_LINES)
    def test_any_other_line_is_left_to_argparse(self, argv, line):
        argv = line(argv)
        command = build_parser()[1].get(argv[0]) if argv else None
        assert command is None or cli._read_plain(command, argv[1:]) is None

    def test_random_lines_read_as_argparse_reads_them(self):
        # Plain lines with random optional flags, half of them mutated by
        # one token: whatever the reader takes, argparse takes alike.
        rng = random.Random(11)
        words = ["m.json", "r", "3", "-3", "x", "", "--", "-h", "--help",
                 "--json", "--targ", "--bound=3", "--cap", "--target",
                 "--formula", "--mode", "foldconst", "bogus", "1.5"]
        _parser, commands = build_parser()
        read = 0
        for _ in range(2000):
            name = rng.choice(["reach", "buchi", "mc", "translate"])
            command = commands[name]
            flags = [a for a in command._actions if a.option_strings
                     and a.dest != "help"]
            groups = [["m.json"]]
            for action in rng.sample(flags, rng.randrange(len(flags) + 1)):
                groups.append([action.option_strings[0]])
                if action.nargs != 0:
                    groups[-1] += [rng.choice(action.choices or
                                              ["r", "3", "F p"])]
            rng.shuffle(groups)
            tokens = [token for group in groups for token in group]
            if rng.random() < 0.5:
                at = rng.randrange(len(tokens) + 1)
                tokens[at:at + rng.randrange(2)] = [rng.choice(words)]
            args = cli._read_plain(command, tokens)
            if args is not None:
                read += 1
                assert command.parse_known_args(tokens) == (args, [])
        assert read >= 200

    @pytest.mark.parametrize("name", PLAIN_LINES)
    def test_the_benchmarks_lines_skip_argparse(self, name, line, capsys,
                                                monkeypatch):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            counted)
        assert main(line(PLAIN_LINES[name])) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "present"
        assert calls == []


def _readme_section(title: str) -> str:
    text = (pathlib.Path(__file__).resolve().parents[1]
            / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


# A machine with a pumpable and a non-pumpable loop on q, and a way out to
# r; with x = 5, each lasso below validates as a run, and `check` rejects
# its loop for the reason given: the steps, the loop start, the reason.
LASSO_MACHINE = {
    "states": ["q", "r"], "initial": "q", "params": ["x"],
    "transitions": [{"from": "q", "op": "+1", "to": "q"},
                    {"from": "q", "op": "<x:x", "to": "q"},
                    {"from": "q", "op": "-1", "to": "q"},
                    {"from": "q", "op": "0", "to": "r"}]}
BAD_LASSOS = {
    "no-return": ([3], 0, "loop does not return to its entry state"),
    "loses-value": ([0, 2], 1, "loop loses counter value"),
    "non-pumpable": ([0, 1], 0,
                     "value-gaining loop uses non-pumpable op <x:x"),
    "empty-loop": ([0], 1, "loop is empty or out of range"),
    "out-of-range": ([0], 5, "loop is empty or out of range"),
}


class TestCheck:
    @pytest.mark.parametrize("case", BAD_LASSOS)
    def test_rejects_a_lasso_with_a_bad_loop(self, case, write, capsys):
        steps, loop_start, reason = BAD_LASSOS[case]
        machine = machine_from_data(LASSO_MACHINE)
        configs = [Config("q", 0)]
        for step in steps:
            t = machine.transitions[step]
            configs.append(Config(t.target, op_value(t.op, configs[-1].value)))
        lasso = LassoRun(tuple(configs), tuple(steps), loop_start)
        assert validate_run(machine, {"x": 5}, lasso) is None
        witness = write("w.json", witness_to_data({"x": 5}, lasso))
        assert main(["check", witness, write("m.json", LASSO_MACHINE)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("invalid witness: ") and reason in out

    def test_corrupted_value_is_invalid(self, write, tmp_path):
        machine_path = write("m.json", CLIMB_AND_TEST)
        machine = machine_from_data(CLIMB_AND_TEST)
        witness = parametric_reach(machine, "q2", 3)
        data = witness_to_data(witness.gamma, witness.run)
        data["run"][-1]["value"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad), machine_path]) == 1

    def test_missing_gamma_entry_is_input_error(self, write, tmp_path):
        machine_path = write("m.json", CLIMB_AND_TEST)
        machine = machine_from_data(CLIMB_AND_TEST)
        witness = parametric_reach(machine, "q2", 3)
        data = witness_to_data({}, witness.run)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad), machine_path]) == 2

    def test_gamma_naming_no_parameter_is_input_error(self, write, capsys):
        machine_path = write("m.json", CLIMB_AND_TEST)
        bad = write("bad.json", {"gamma": {"x": 0, "zz": 3}, "run": [
            {"state": "q", "value": 0, "via": None},
            {"state": "q", "value": 1, "via": 0}]})
        for formula in ([], ["G true"]):
            assert main(["check", bad, machine_path, *formula]) == 2
            assert "'zz'" in capsys.readouterr().err

    def test_mc_witness_names_no_derived_parameters(self, write, tmp_path,
                                                    capsys):
        # The register and the stored value of the model-checking product
        # stay out of gamma, so the witness checks with or without its
        # formula, and a gamma naming them is rejected either way.
        machine = write("m.json", {
            "states": ["q", "r"], "initial": "q", "labels": {"q": ["p"]},
            "transitions": [{"from": "q", "op": "+1", "to": "r"},
                            {"from": "r", "op": "-1", "to": "q"}]})
        out = str(tmp_path / "w.json")
        text = "F @r. G ([<r] | [=r])"
        assert main(["mc", machine, "--formula", text, "--bound", "3",
                     "--witness", out]) == 0
        data = json.loads(open(out).read())
        assert data["gamma"] == {}
        assert main(["check", out, machine, text]) == 0
        assert main(["check", out, machine]) == 0
        data["gamma"] = {"r_1": 1, "y": 1}
        bad = write("bad.json", data)
        for formula in ([], [text]):
            assert main(["check", bad, machine, *formula]) == 2
            assert "'r_1'" in capsys.readouterr().err

    def test_false_formula_on_a_climbing_loop_is_rejected(self, write,
                                                          capsys):
        # The run climbs forever, so no value is frozen and met again.
        machine = write("m.json", {
            "states": ["q"], "initial": "q", "labels": {"q": ["p"]},
            "transitions": [{"from": "q", "op": "+1", "to": "q"}]})
        witness = write("w.json", {"gamma": {}, "loop_start": 0, "run": [
            {"state": "q", "value": 0, "via": None},
            {"state": "q", "value": 1, "via": 0}]})
        assert main(["check", witness, machine, "F @r. G [=r]"]) == 1
        assert "does not satisfy the formula" in capsys.readouterr().out
        assert main(["check", witness, machine, "F @r. X [>r]"]) == 0

    def test_unknown_witness_key_is_input_error(self, write, tmp_path):
        machine_path = write("m.json", CLIMB_AND_TEST)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"gamma": {}, "run": [], "note": "?"}))
        assert main(["check", str(bad), machine_path]) == 2

    def test_via_on_the_first_entry_is_input_error(self, write, tmp_path,
                                                   capsys):
        machine_path = write("m.json", CLIMB_AND_TEST)
        witness = parametric_reach(machine_from_data(CLIMB_AND_TEST), "q2", 3)
        data = witness_to_data(witness.gamma, witness.run)
        data["run"][0]["via"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad), machine_path]) == 2
        assert "first run entry" in capsys.readouterr().err

    def test_agrees_with_library_validators(self, write, tmp_path):
        rng = random.Random(31337)
        machine_path = tmp_path / "m.json"
        witness_path = tmp_path / "w.json"
        agreements = 0
        for _ in range(60):
            m = random_machine(rng, max_states=4, max_params=1)
            target = rng.choice(sorted(m.states))
            witness = parametric_reach(m, target, 2)
            if witness is None:
                continue
            gamma, run = dict(witness.gamma), witness.run
            if rng.random() < 0.6 and run.steps:
                # Corrupt one field and compare verdicts.
                kind = rng.randrange(3)
                configs, steps = list(run.configs), list(run.steps)
                i = rng.randrange(len(configs))
                if kind == 0:
                    configs[i] = configs[i]._replace(value=configs[i].value + 1)
                elif kind == 1:
                    configs[i] = configs[i]._replace(
                        state=rng.choice(sorted(m.states)))
                else:
                    steps[rng.randrange(len(steps))] = rng.randrange(
                        len(m.transitions))
                run = Run(tuple(configs), tuple(steps))
            machine_path.write_text(json.dumps(machine_to_data(m)))
            witness_path.write_text(json.dumps(witness_to_data(gamma, run)))
            expected_ok = (validate_run(m, gamma, run) is None
                           and run.configs[0].state == m.initial
                           and run.configs[0].value == 0)
            code = main(["check", str(witness_path), str(machine_path)])
            assert code == (0 if expected_ok else 1)
            agreements += 1
        assert agreements >= 20


# Values of every JSON type, swapped in where another type is expected.
_WRONG_VALUES = (None, True, False, -1, 0, 7, 2.5, "", "q", "+1", [], [1],
                 ["q"], {}, {"q": 1}, {"from": "q"})

# A machine with every kind of op and a label, besides CLIMB_AND_TEST.
_LOOPING = {
    "states": ["a", "b"],
    "initial": "a",
    "params": ["x"],
    "labels": {"a": ["p"]},
    "transitions": [
        {"from": "a", "op": "+1", "to": "b"},
        {"from": "b", "op": ">x:x", "to": "a"},
        {"from": "b", "op": "-1", "to": "a"},
        {"from": "a", "op": "=c:2", "to": "b"},
        {"from": "a", "op": "=0", "to": "a"},
    ],
}


def _mutate(rng: random.Random, data):
    """A copy of the JSON value `data` with one to three mutations: a value
    swapped for one of the wrong type, a dictionary key deleted, or a list
    item popped."""
    data = copy.deepcopy(data)
    for _ in range(rng.randint(1, 3)):
        containers = []
        todo = [data]
        while todo:
            node = todo.pop()
            if isinstance(node, (dict, list)) and node:
                containers.append(node)
                todo.extend(node.values() if isinstance(node, dict) else node)
        if not containers or rng.random() < 0.03:
            return copy.deepcopy(rng.choice(_WRONG_VALUES))
        node = rng.choice(containers)
        slot = rng.choice(list(node) if isinstance(node, dict)
                          else range(len(node)))
        if rng.random() < 0.5:
            node[slot] = copy.deepcopy(rng.choice(_WRONG_VALUES))
        else:
            del node[slot]
    return data


class TestFuzz:
    def test_mutated_files_never_raise(self, write, capsys):
        # Every mutated machine or witness file is answered with exit code
        # 0, 1 or 2, never with an exception.
        bases = []
        for machine, target, accepting in ((CLIMB_AND_TEST, "q2", "q"),
                                           (_LOOPING, "b", "a,b")):
            path = write("base.json", machine)
            witnesses = []
            for argv in (["reach", path, "--target", target],
                         ["buchi", path, "--accepting", accepting]):
                out = write("witness.json", "")
                assert main([*argv, "--bound", "2", "--cap", "8",
                             "--witness", out]) == 0
                with open(out, encoding="utf-8") as handle:
                    witnesses.append(json.load(handle))
            bases.append((machine, target, accepting, witnesses))
        rng = random.Random(20240611)
        codes = set()
        for case in range(400):
            machine, target, accepting, witnesses = rng.choice(bases)
            witness = rng.choice(witnesses)
            if rng.random() < 0.5:
                machine = _mutate(rng, machine)
            else:
                witness = _mutate(rng, witness)
            machine_path = write(f"m{case}.json", json.dumps(machine))
            witness_path = write(f"w{case}.json", json.dumps(witness))
            for argv in (["check", witness_path, machine_path],
                         ["reach", machine_path, "--target", target,
                          "--bound", "2", "--cap", "8"],
                         ["buchi", machine_path, "--accepting", accepting,
                          "--bound", "2", "--cap", "8"]):
                code = main(argv)
                assert code in (0, 1, 2), argv
                codes.add(code)
            capsys.readouterr()
        assert codes == {0, 1, 2}
