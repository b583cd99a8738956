"""Pins what the command line prints: one digest of the exit codes, stdout
and witness files of a seeded list of `reach`, `buchi` and `mc` queries.

A change that keeps every verdict and every witness leaves the digest as it
is. A change that means to alter an output must say which outputs changed
and why, and only then update DIGEST. The outputs of `mc` must also be the
same whatever order its queries run in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from flatmc import formulas, reductions
from flatmc.cli import main
from flatmc.jsonio import machine_to_data
from tests.gen import random_machine

DIGEST = "1d00ed59c34e4822"
SEED = 2024
FORMULAS = ("G F p", "F G q", "p U q", "G(p -> F q)", "X X p",
            "F @r. X [>r]", "@r. G F [=r]", "F @r. G([<r] | [=r])")


def queries(seed: int = SEED) -> list[tuple[list[str], dict]]:
    """The command arguments after the machine file, and the machine, of
    each query in the list: 160 `reach`, 60 `buchi` and 64 `mc`."""
    rng = random.Random(seed)
    listed = []
    for _ in range(160):
        m = random_machine(rng, max_states=6, max_params=2, with_consts=True)
        target = rng.choice(sorted(m.states))
        listed.append((["reach", "--target", target, "--bound", "4",
                        "--cap", "16"], machine_to_data(m)))
    for _ in range(60):
        m = random_machine(rng, max_states=5, max_params=1)
        accepting = rng.sample(sorted(m.states), min(2, len(m.states)))
        listed.append((["buchi", "--accepting", ",".join(accepting),
                        "--bound", "1", "--cap", "32"], machine_to_data(m)))
    for i in range(64):
        m = random_machine(rng, max_states=4, max_params=0, with_labels=True)
        listed.append((["mc", "--formula", FORMULAS[i % len(FORMULAS)],
                        "--bound", "2"], machine_to_data(m)))
    return listed


def run_query(workdir: str, args: list[str], data: dict) -> bytes:
    """Run one query through `main` in `workdir` with `--json --witness`:
    its arguments, exit code and stdout, then the witness file if any."""
    machine = os.path.join(workdir, "machine.json")
    witness = os.path.join(workdir, "witness.json")
    with open(machine, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    with contextlib.suppress(FileNotFoundError):
        os.remove(witness)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([args[0], machine, *args[1:], "--json",
                     "--witness", witness])
    result = f"{args}\n{code}\n{out.getvalue()}\n".encode()
    if os.path.exists(witness):
        with open(witness, "rb") as handle:
            result += handle.read()
    return result


def outputs_digest(workdir: str) -> str:
    """Run every query through `main` in `workdir` and hash what it left."""
    digest = hashlib.sha256()
    for args, data in queries():
        digest.update(run_query(workdir, args, data))
    return digest.hexdigest()[:16]


def test_outputs_are_pinned(tmp_path):
    assert outputs_digest(str(tmp_path)) == DIGEST


def test_mc_outputs_do_not_depend_on_query_order(tmp_path):
    # `parse` and the tableau are cached per process, and the order in which
    # a frozenset iterates can follow how it was built, so this is checked:
    # run forward, backward, and with both caches emptied before each query,
    # every `mc` query prints and writes the same bytes.
    rng = random.Random(SEED + 1)
    listed = []
    for i in range(160):
        m = random_machine(rng, max_states=4, max_params=0, with_labels=True)
        text = FORMULAS[i % len(FORMULAS)]
        if i % 3 == 0:
            text = f"{text} & {FORMULAS[(i // 3) % len(FORMULAS)]}"
        listed.append((["mc", "--formula", text, "--bound", "2"],
                       machine_to_data(m)))
    workdir = str(tmp_path)

    def cleared(args, data):
        formulas.parse.cache_clear()
        reductions._tableau.cache_clear()
        return run_query(workdir, args, data)

    forward = [run_query(workdir, *query) for query in listed]
    backward = [run_query(workdir, *query) for query in reversed(listed)]
    assert forward == backward[::-1]
    assert forward == [cleared(*query) for query in listed]
    assert 25 <= sum(b"formula_holds" in out for out in forward) <= 135
