"""Metamorphic relations: the three questions must agree with each other,
and an answer must not change under transformations that cannot change it.

Each relation compares two answers of the solvers themselves, so it needs no
oracle and also covers machines and bounds that the brute-force searches
cannot reach. Bounds and counter caps are explicit wherever a default would
depend on the number of states or parameters.
"""

from __future__ import annotations

import random

from flatmc import (
    CounterMachine,
    model_check,
    parametric_reach,
    parse,
    repeated_reach,
)
from flatmc.machines import ParamTest, Transition, Update
from tests.gen import random_machine, random_oca

GF_P = parse("G F p")


def _with_p_on(machine: CounterMachine, state: str) -> CounterMachine:
    """`machine` with the proposition p labelling `state` and no other."""
    return CounterMachine(machine.states, machine.initial, machine.params,
                          machine.transitions, {state: {"p"}})


def _rebuilt(machine: CounterMachine, transitions, state=lambda q: q,
             param=lambda x: x, extra=()) -> CounterMachine:
    """A copy of `machine` with the given transitions, states renamed by
    `state`, parameters by `param`, and the states `extra` added."""
    return CounterMachine(
        frozenset(map(state, machine.states)) | frozenset(extra),
        state(machine.initial), tuple(map(param, machine.params)),
        tuple(transitions),
        {state(q): props for q, props in machine.labels.items()})


def _renamed_states(machine: CounterMachine, rng: random.Random):
    """`machine` with its states renamed by a random injection, and the
    renaming."""
    names = rng.sample(range(10 * len(machine.states)), len(machine.states))
    new = dict(zip(sorted(machine.states), (f"r{n}" for n in names)))
    return _rebuilt(machine, (Transition(new[t.source], t.op, new[t.target])
                              for t in machine.transitions),
                    state=new.__getitem__), new.__getitem__


def _renamed_params(machine: CounterMachine, rng: random.Random):
    """`machine` with its parameters renamed apart, in the same order, and
    the renaming."""
    new = {x: f"{x}_{rng.randrange(100)}z" for x in machine.params}

    def op(o):
        if isinstance(o, ParamTest):
            return ParamTest(o.rel, new[o.param])
        return o

    return _rebuilt(machine, (Transition(t.source, op(t.op), t.target)
                              for t in machine.transitions),
                    param=new.__getitem__), lambda q: q


def _shuffled(machine: CounterMachine, rng: random.Random):
    """`machine` with its transitions in a random order."""
    transitions = list(machine.transitions)
    rng.shuffle(transitions)
    return _rebuilt(machine, transitions), lambda q: q


def _with_isolated_state(machine: CounterMachine, rng: random.Random):
    """`machine` with one more state, which no transition enters, and its
    `+1` self-loop."""
    lone = f"lone{rng.randrange(100)}"
    return _rebuilt(machine, (*machine.transitions,
                              Transition(lone, Update(1), lone)),
                    extra=(lone,)), lambda q: q


TRANSFORMS = (_renamed_states, _renamed_params, _shuffled,
              _with_isolated_state)


def _reach_gamma(machine, target, bound, cap):
    found = parametric_reach(machine, target, bound, ceiling=cap)
    return None if found is None else found.gamma


def _buchi_gamma(machine, accepting, bound, cap):
    found = repeated_reach(machine, accepting, bound, ceiling=cap)
    return None if found is None else found.gamma


class TestQuestionsAgree:
    def test_buchi_is_mc_of_infinitely_often(self):
        # `buchi --accepting f` is present iff `mc 'G F p'` is, with p
        # labelling exactly f. Parameterless machines, so both questions
        # ask about the same runs. `mc`'s ceiling and stored-value range lie
        # inside `buchi`'s defaults, so a present `mc` implies a present
        # `buchi`; the converse holds on these machines at this bound.
        rng = random.Random(7070)
        bound = 3
        present = absent = 0
        for _ in range(400):
            m = random_oca(rng, max_states=5)
            f = rng.choice(sorted(m.states))
            buchi = repeated_reach(m, [f], bound)
            mc = model_check(_with_p_on(m, f), GF_P, bound)
            assert (buchi is None) == (mc is None), (m, f)
            present += buchi is not None
            absent += buchi is None
        assert present >= 110 and absent >= 270

    def test_loop_start_of_a_lasso_is_reachable(self):
        # Every `buchi` lasso reaches its loop-start state, so `reach`
        # finds that state present at the same bound, and present under
        # the lasso's own instantiation.
        rng = random.Random(7171)
        bound, cap = 2, 20
        checked = 0
        for _ in range(300):
            m = random_machine(rng, max_states=4, max_params=1,
                               with_consts=rng.random() < 0.5)
            accepting = rng.sample(sorted(m.states),
                                   min(2, len(m.states)))
            found = repeated_reach(m, accepting, bound, ceiling=cap)
            if found is None:
                continue
            loop_state = found.lasso.configs[found.lasso.loop_start].state
            assert found.accept_state == loop_state
            assert parametric_reach(m, loop_state, bound) is not None
            pinned = {x: (v, v) for x, v in found.gamma.items()}
            assert parametric_reach(m, loop_state, bound,
                                    ranges=pinned) is not None
            checked += 1
        assert checked >= 110


class TestInvariance:
    def test_renaming_shuffling_and_isolated_states(self):
        # Renaming states, renaming parameters in their order, shuffling
        # transitions and adding an unreachable state change neither the
        # verdict nor the first instantiation of `reach` or `buchi`: each
        # instantiation's verdict is exact below the cap, and
        # instantiations are tried in an order fixed by the parameter
        # order alone.
        rng = random.Random(7272)
        bound, cap = 2, 14
        checks = present = 0
        for _ in range(225):
            m = random_machine(rng, max_states=4, max_params=2,
                               with_consts=rng.random() < 0.5)
            target = rng.choice(sorted(m.states))
            accepting = rng.sample(sorted(m.states), min(2, len(m.states)))
            want_reach = _reach_gamma(m, target, bound, cap)
            want_buchi = _buchi_gamma(m, accepting, bound, cap)
            for transform in TRANSFORMS:
                other, rename = transform(m, rng)
                names = dict(zip(m.params, other.params))
                for want, got in (
                        (want_reach, _reach_gamma(other, rename(target),
                                                  bound, cap)),
                        (want_buchi, _buchi_gamma(
                            other, [rename(f) for f in accepting], bound,
                            cap))):
                    expected = (None if want is None else
                                {names[x]: v for x, v in want.items()})
                    assert got == expected, (transform.__name__, m)
                    checks += 1
                    present += got is not None
        assert checks >= 1800 and present >= 950


class TestMonotonicity:
    def test_reach_present_stays_present_with_the_same_gamma(self):
        # Raising the bound from B to B + 1 at a fixed cap adds only
        # instantiations with a value B + 1, which come after all others.
        rng = random.Random(7373)
        cap = 16
        kept = 0
        for _ in range(900):
            m = random_machine(rng, max_states=5, max_params=2,
                               with_consts=rng.random() < 0.5)
            target = rng.choice(sorted(m.states))
            bound = rng.randint(0, 4)
            low = _reach_gamma(m, target, bound, cap)
            if low is None:
                continue
            assert _reach_gamma(m, target, bound + 1, cap) == low, m
            kept += 1
        assert kept >= 520

    def test_buchi_witness_stays_the_same(self):
        # At a fixed cap, the stored value y ranges up to the cap at every
        # bound, so the cap is the peak level of every point search, which
        # keeps its levels; the first witness at B is the first at B + 1.
        rng = random.Random(7474)
        cap = 12
        kept = 0
        for _ in range(800):
            m = random_machine(rng, max_states=4, max_params=2,
                               with_consts=rng.random() < 0.5)
            accepting = rng.sample(sorted(m.states), min(2, len(m.states)))
            bound = rng.randint(0, 3)
            low = repeated_reach(m, accepting, bound, ceiling=cap)
            if low is None:
                continue
            high = repeated_reach(m, accepting, bound + 1, ceiling=cap)
            assert high is not None
            assert (high.gamma, high.lasso, high.accept_state) == \
                (low.gamma, low.lasso, low.accept_state), m
            assert (high.certificate.gamma, high.certificate.run) == \
                (low.certificate.gamma, low.certificate.run), m
            kept += 1
        assert kept >= 280
