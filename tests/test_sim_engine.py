"""Unit tests for the cycle-driven simulation kernel."""

import pytest

from repro.sim import Simulator, SimComponent
from repro.sim.engine import FunctionComponent
from repro.sim.rng import make_rng, split_rng


class Counter(SimComponent):
    def __init__(self):
        self.calls = []

    def step(self, cycle):
        self.calls.append(cycle)


def test_run_steps_components_in_order():
    sim = Simulator()
    order = []
    sim.register(FunctionComponent(lambda c: order.append(("a", c))))
    sim.register(FunctionComponent(lambda c: order.append(("b", c))))
    sim.run(2)
    assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]


def test_cycle_counts_completed_steps():
    sim = Simulator()
    counter = Counter()
    sim.register(counter)
    assert sim.cycle == 0
    sim.run(5)
    assert sim.cycle == 5
    assert counter.calls == [0, 1, 2, 3, 4]


def test_run_until_fires_predicate():
    sim = Simulator()
    counter = Counter()
    sim.register(counter)
    fired = sim.run_until(lambda: len(counter.calls) >= 3, max_cycles=10)
    assert fired
    assert sim.cycle == 3


def test_run_until_times_out():
    sim = Simulator()
    fired = sim.run_until(lambda: False, max_cycles=4)
    assert not fired
    assert sim.cycle == 4


def test_base_component_step_is_abstract():
    with pytest.raises(NotImplementedError):
        SimComponent().step(0)


def test_make_rng_deterministic():
    a = make_rng(42)
    b = make_rng(42)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_make_rng_none_is_seeded():
    assert make_rng(None).random() == make_rng(0).random()


def test_split_rng_children_independent():
    parent = make_rng(7)
    c1 = split_rng(parent, 1)
    parent2 = make_rng(7)
    c2 = split_rng(parent2, 2)
    # Different salts give different streams from the same parent state.
    assert [c1.random() for _ in range(3)] != [c2.random() for _ in range(3)]


def test_run_until_check_every_cadence():
    """Predicate runs after steps k, 2k, ... — not after every step."""
    sim = Simulator()
    counter = Counter()
    sim.register(counter)
    evaluations = []

    def predicate():
        evaluations.append(sim.cycle)
        return len(counter.calls) >= 3

    fired = sim.run_until(predicate, max_cycles=10, check_every=4)
    assert fired
    # True first became observable at step 3, but the first check is
    # after step 4; no checks happened at steps 1-3.
    assert sim.cycle == 4
    assert evaluations == [4]


def test_run_until_final_partial_window_is_checked():
    """A predicate turning true inside the last partial window is seen."""
    sim = Simulator()
    counter = Counter()
    sim.register(counter)
    fired = sim.run_until(lambda: len(counter.calls) >= 5,
                          max_cycles=5, check_every=3)
    # 5 % 3 != 0, so a final check after step 5 catches it.
    assert fired
    assert sim.cycle == 5


def test_run_until_no_double_check_on_timeout():
    """When max_cycles is a multiple of check_every, the last in-stride
    check is the final check — the predicate never runs twice per step."""
    sim = Simulator()
    evaluations = []

    def predicate():
        evaluations.append(sim.cycle)
        return False

    fired = sim.run_until(predicate, max_cycles=6, check_every=3)
    assert not fired
    assert evaluations == [3, 6]


def test_run_until_rejects_bad_cadence():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.run_until(lambda: True, max_cycles=1, check_every=0)
