"""Seeded query generators and independent expected verdicts for the
benchmark workloads.

A query is a JSON-ready dict: the CLI command, the machine file contents, the
command's own arguments (always with an explicit `--bound`), and the formula
for `mc`. The generators live here rather than in `tests/gen.py` so that a
test change cannot silently change a workload, and they fix the state count of
every query instead of drawing it from 1..max.

Expected verdicts come from brute-force oracles that share no search code with
the solvers; they run in the parent process, outside the timed span.
"""

from __future__ import annotations

import hashlib
import json
import random

REACH_BOUND = 12
# Counter ceiling for `reach`: keeps an absent verdict's cost proportional to
# the instantiations it enumerates rather than to |Q|^3 counter levels, so a
# run's throughput does not hinge on the two or three queries in a thousand
# whose counter can climb freely.
REACH_CAP = 24
BUCHI_BOUND = 1
# Counter cap for `buchi`, for the same reason: with the default, the search
# on the reduced machine may climb to B + (2|Q|+4)^3 and some queries take
# seconds.
BUCHI_CAP = 256
MC_BOUND = 3

# Flat freeze LTL sentences for `mc_registers`; about half freeze a register.
MC_PATTERNS = (
    "G F p",
    "F G q",
    "p U q",
    "G(p -> F q)",
    "X X p",
    "F @r. G(p -> [>r] | [=r])",
    "!G @r.(p -> F(q & [=r]))",
    "F @r. X [>r]",
    "@r. G F [=r]",
    "F @r. G([<r] | [=r])",
)

# Short sentences and large updates for `mc_succinct`.
SUCCINCT_PATTERNS = ("true", "G p", "F p", "G F p")
SUCCINCT_UPDATES = ("+2", "-2", "+3", "-3")


def _unary_ops(params=(), consts=()) -> list[str]:
    ops = ["+1", "+1", "-1", "-1", "0", "=0"]
    for x in params:
        ops += [f"=x:{x}", f"<x:{x}", f">x:{x}"]
    for c in consts:
        ops += [f"=c:{c}", f"<c:{c}", f">c:{c}"]
    return ops


def _machine(rng: random.Random, n_states: int, n_transitions: int,
             ops: list[str], params=(), labels=None) -> dict:
    states = [f"s{i}" for i in range(n_states)]
    return {
        "states": states,
        "initial": "s0",
        "params": list(params),
        "labels": labels or {},
        "transitions": [
            {"from": rng.choice(states), "op": rng.choice(ops),
             "to": rng.choice(states)}
            for _ in range(n_transitions)
        ],
    }


def reach_query(rng: random.Random, index: int) -> dict:
    """OCA(P,C): |Q| cycles through 6..9, |X| = 2, constants <= 3, 2|Q|
    transitions, a target other than the initial state."""
    n = 6 + index % 4
    params = ("x0", "x1")
    machine = _machine(rng, n, 2 * n, _unary_ops(params, (1, 2, 3)), params)
    target = f"s{rng.randrange(1, n)}"
    return {"command": "reach", "machine": machine,
            "args": ["--target", target, "--bound", str(REACH_BOUND),
                     "--cap", str(REACH_CAP)]}


def buchi_query(rng: random.Random, index: int) -> dict:
    """OCA(P): |Q| cycles through 5..8, |X| alternates 0 and 1, 2|Q|
    transitions, two accepting states."""
    n = 5 + index % 4
    params = ("x0",) if index % 2 else ()
    machine = _machine(rng, n, 2 * n, _unary_ops(params), params)
    accepting = sorted(rng.sample(machine["states"], 2))
    return {"command": "buchi", "machine": machine,
            "args": ["--accepting", ",".join(accepting),
                     "--bound", str(BUCHI_BOUND), "--cap", str(BUCHI_CAP)]}


def mc_registers_query(rng: random.Random, index: int) -> dict:
    """Unary OCA with zero tests: 4 states, 5 transitions, labels drawn from
    p and q, paired with the next pattern of MC_PATTERNS. With 8 transitions
    the products of the register patterns grow to 50 states and 20 accepting
    states, each accepting state a separate search, and single queries take
    up to 1.7 s, which left throughput and tail unsteady across seeds."""
    n = 4
    labels = {f"s{i}": [p for p in ("p", "q") if rng.random() < 0.5]
              for i in range(n)}
    machine = _machine(rng, n, 5, ["+1", "-1", "0", "=0"],
                       labels={q: ps for q, ps in labels.items() if ps})
    formula = MC_PATTERNS[index % len(MC_PATTERNS)]
    return {"command": "mc", "machine": machine, "formula": formula,
            "args": ["--formula", formula, "--bound", str(MC_BOUND)]}


def mc_succinct_query(rng: random.Random, index: int) -> dict:
    """Parameterless machine of 1 or 2 states with one large update (+-2 or
    +-3) and a unary one, paired with the next pattern of SUCCINCT_PATTERNS."""
    n = 1 + index % 2
    states = [f"s{i}" for i in range(n)]
    transitions = [
        {"from": "s0", "op": rng.choice(SUCCINCT_UPDATES),
         "to": rng.choice(states)},
        {"from": rng.choice(states), "op": rng.choice(["+1", "-1", "0"]),
         "to": "s0"},
    ]
    machine = {"states": states, "initial": "s0", "params": [],
               "labels": {"s0": ["p"]}, "transitions": transitions}
    formula = SUCCINCT_PATTERNS[index % len(SUCCINCT_PATTERNS)]
    return {"command": "mc", "machine": machine, "formula": formula,
            "args": ["--formula", formula, "--bound", str(MC_BOUND)]}


# name -> (generator, queries in the fixed list, queries in a traced pass).
# A timed run goes through the list until its time is up: about 2500 queries
# of `reach` or `mc_registers` in 45 s on a 2-core x86-64 machine.
# `buchi` is not in BENCHMARK.json: some of its answers are wrong (README.md).
WORKLOADS = {
    "reach": (reach_query, 6000, 300),
    "buchi": (buchi_query, 3000, 150),
    "mc_registers": (mc_registers_query, 6000, 200),
    "mc_succinct": (mc_succinct_query, 2, 2),
}
# One `mc_succinct` query takes 6-19 s, too long for a timed run with a tail
# percentile; it only serves the traced breakdown of the tableau layers.
TRACE_ONLY = {"mc_succinct"}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's fixed query list for `seed`; the same seed gives the
    same list."""
    make, timed, traced = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make(rng, i) for i in range(max(timed, traced))]


def digest(queries: list[dict]) -> str:
    text = json.dumps(queries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def hash_seed(workload: str, seed: int) -> int:
    """PYTHONHASHSEED for the measured process, derived from the seed only."""
    text = f"hash:{workload}:{seed}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def lasso_oracle(machine, phi, bound: int, max_positions: int) -> bool:
    """Whether some lasso of at most `max_positions` configurations, with
    every counter value <= `bound` and a loop that repeats a configuration
    exactly, spells a word satisfying `phi`. Each such lasso is within reach
    of `flatmc mc --bound bound`, so the solver must answer present."""
    from flatmc.formulas import LassoWord, evaluate
    from flatmc.machines import Config, successors

    def satisfied(configs, loop_start) -> bool:
        entries = [(machine.labels[c.state], c.value) for c in configs[:-1]]
        word = LassoWord(tuple(entries[:loop_start]),
                         tuple(entries[loop_start:]))
        return evaluate(word, 0, {}, phi)

    def search(configs) -> bool:
        last = configs[-1]
        if last in configs[:-1]:
            return satisfied(configs, configs.index(last))
        if len(configs) >= max_positions:
            return False
        return any(search(configs + [there])
                   for _step, there in successors(machine, {}, last)
                   if there.value <= bound)

    return search([Config(machine.initial, 0)])


def expected_present(query: dict):
    """True if a witness must exist, False if none may, None if the oracle
    cannot tell; by brute force independent of the solvers.

    `reach`: per-instantiation search over every gamma <= B with the query's
    counter cap, exact. `buchi`: per-instantiation lasso search with the
    query's counter cap, exact. `mc`: lassos of at most 12 configurations within the
    bound, which only shows presence; an `mc` answer present beyond it is
    judged by its witness alone.
    """
    import itertools

    from flatmc import formulas, jsonio
    from flatmc.machines import bounded_reach_oracle, rep_reach_oracle

    machine = jsonio.machine_from_data(query["machine"])
    args = dict(zip(query["args"][::2], query["args"][1::2]))
    bound = int(args["--bound"])
    gammas = [dict(zip(machine.params, values)) for values in
              itertools.product(range(bound + 1), repeat=len(machine.params))]
    if query["command"] == "reach":
        cap = int(args["--cap"])
        return any(bounded_reach_oracle(machine, g, args["--target"], cap)
                   is not None for g in gammas)
    if query["command"] == "buchi":
        cap = int(args["--cap"])
        accepting = args["--accepting"].split(",")
        return any(rep_reach_oracle(machine, g, accepting, cap) is not None
                   for g in gammas)
    if lasso_oracle(machine, formulas.parse(query["formula"]), bound,
                    max_positions=12):
        return True
    return None
