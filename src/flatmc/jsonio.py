"""JSON machine and witness file formats.

Machine files describe a counter machine; unknown keys are rejected so typos
fail loudly. This module reads only a file's shape, its keys and the types
of their values; `CounterMachine` checks the names, such as an initial state
or a transition endpoint that `states` does not list. Witness files carry an
instantiation plus a run, and are designed to be re-checkable against a
machine file without trusting their producer. A `LassoRun` is written as
its run plus `loop_start`, and a file with `loop_start` is read back as one;
this module alone maps between the two.
"""

from __future__ import annotations

from typing import Any, Optional

from flatmc.machines import (
    Config,
    CounterMachine,
    LassoRun,
    MachineError,
    Run,
    Transition,
    format_op,
    parse_op,
)

_MACHINE_KEYS = {"states", "initial", "params", "labels", "transitions"}
_TRANSITION_KEYS = {"from", "op", "to"}
_WITNESS_KEYS = {"gamma", "run", "loop_start", "formula_holds", "certificate"}
_ENTRY_KEYS = {"state", "value", "via"}


def machine_to_data(machine: CounterMachine) -> dict:
    return {
        "states": sorted(machine.states),
        "initial": machine.initial,
        "params": list(machine.params),
        "labels": {q: sorted(ps) for q, ps in sorted(machine.labels.items())
                   if ps},
        "transitions": [
            {"from": t.source, "op": format_op(t.op), "to": t.target}
            for t in machine.transitions
        ],
    }


def _is_int(value: Any) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _strings(value: Any, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise MachineError(f"{what} must be a list of strings")
    return value


def _transition_fault(i: int, entry: Any) -> str:
    """What is wrong with transition `i`, an `entry` that is not an object
    of the three strings "from", "op" and "to"."""
    if not isinstance(entry, dict) or not entry.keys() <= _TRANSITION_KEYS:
        return f"malformed transition object at index {i}"
    # In a fixed order, so a transition missing two keys is reported alike
    # whatever the string hash seed.
    key = next(key for key in ("from", "op", "to")
               if not isinstance(entry.get(key), str))
    return f"transition {i} needs a string {key!r}"


def machine_from_data(data: Any) -> CounterMachine:
    if not isinstance(data, dict):
        raise MachineError("machine file must be a JSON object")
    unknown = set(data) - _MACHINE_KEYS
    if unknown:
        raise MachineError(f"unknown machine file keys: {sorted(unknown)}")
    for key in ("states", "initial", "transitions"):
        if key not in data:
            raise MachineError(f"machine file misses {key!r}")
    if not isinstance(data["initial"], str):
        raise MachineError("initial must be a string")
    states = _strings(data["states"], "states")
    listed = frozenset(states)
    if len(listed) != len(states):
        raise MachineError("states lists a name twice")
    labels = data.get("labels", {})
    if not isinstance(labels, dict):
        raise MachineError("labels must map states to lists of propositions")
    for q, props in labels.items():
        _strings(props, f"labels of {q!r}")
    if not isinstance(data["transitions"], list):
        raise MachineError("transitions must be a list")
    transitions = []
    for i, entry in enumerate(data["transitions"]):
        # Three keys, each of them one of the three strings.
        if not (isinstance(entry, dict) and len(entry) == 3
                and isinstance(source := entry.get("from"), str)
                and isinstance(op := entry.get("op"), str)
                and isinstance(target := entry.get("to"), str)):
            raise MachineError(_transition_fault(i, entry))
        transitions.append(Transition(source, parse_op(op), target))
    return CounterMachine(
        states=listed, initial=data["initial"],
        params=tuple(_strings(data.get("params", []), "params")),
        transitions=tuple(transitions), labels=labels)


def run_to_data(run: Run) -> list[dict]:
    entries = []
    for i, config in enumerate(run.configs):
        via = run.steps[i - 1] if i > 0 else None
        entries.append({"state": config.state, "value": config.value,
                        "via": via})
    return entries


def _run_from_data(data: Any) -> Run:
    if not isinstance(data, list) or not data:
        raise MachineError("witness run must be a nonempty list")
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or set(entry) - _ENTRY_KEYS:
            raise MachineError(f"malformed run entry at index {i}")
        if not isinstance(entry.get("state"), str):
            raise MachineError(f"run entry {i} needs a string state")
        if not _is_int(entry.get("value")):
            raise MachineError(f"run entry {i} needs an integer value")
        if i == 0 and entry.get("via") is not None:
            raise MachineError("the first run entry has no transition index")
        if i > 0 and not _is_int(entry.get("via")):
            raise MachineError(f"run entry {i} misses its transition index")
    return Run(tuple(Config(e["state"], e["value"]) for e in data),
               tuple(e["via"] for e in data[1:]))


def witness_to_data(gamma: dict, run: Run,
                    formula_holds: Optional[bool] = None,
                    certificate: Optional[dict] = None) -> dict:
    data: dict = {"gamma": dict(gamma), "run": run_to_data(run)}
    if isinstance(run, LassoRun):
        data["loop_start"] = run.loop_start
    if formula_holds is not None:
        data["formula_holds"] = formula_holds
    if certificate is not None:
        data["certificate"] = certificate
    return data


def witness_from_data(data: Any) -> tuple[dict, Run]:
    """The instantiation and the run of a witness file; the run is a
    `LassoRun` when the file gives `loop_start`. The self-description fields
    `formula_holds` and `certificate` are accepted and ignored: a check
    trusts neither."""
    if not isinstance(data, dict):
        raise MachineError("witness file must be a JSON object")
    unknown = set(data) - _WITNESS_KEYS
    if unknown:
        raise MachineError(f"unknown witness file keys: {sorted(unknown)}")
    if "gamma" not in data or "run" not in data:
        raise MachineError("witness file needs gamma and run")
    gamma = data["gamma"]
    if not isinstance(gamma, dict) or not all(
            _is_int(v) and v >= 0 for v in gamma.values()):
        raise MachineError("gamma must map parameter names to naturals")
    run = _run_from_data(data["run"])
    loop_start = data.get("loop_start")
    if loop_start is not None:
        if not _is_int(loop_start):
            raise MachineError("loop_start must be an integer")
        run = LassoRun(run.configs, run.steps, loop_start)
    return dict(gamma), run
