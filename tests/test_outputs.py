"""Pins what the command line prints: one digest of the exit codes, stdout
and witness files of a seeded list of `reach`, `buchi` and `mc` queries.

A change that keeps every verdict and every witness leaves the digest as it
is. A change that means to alter an output must say which outputs changed
and why, and only then update DIGEST.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

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


def outputs_digest(workdir: str) -> str:
    """Run every query through `main` in `workdir` and hash what it left."""
    digest = hashlib.sha256()
    machine = os.path.join(workdir, "machine.json")
    witness = os.path.join(workdir, "witness.json")
    for args, data in queries():
        with open(machine, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        with contextlib.suppress(FileNotFoundError):
            os.remove(witness)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([args[0], machine, *args[1:], "--json",
                         "--witness", witness])
        digest.update(f"{args}\n{code}\n{out.getvalue()}\n".encode())
        if os.path.exists(witness):
            with open(witness, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def test_outputs_are_pinned(tmp_path):
    assert outputs_digest(str(tmp_path)) == DIGEST
