"""Tests for the solve benchmark's own code: the layer wrappers and the oracle."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import modchain.solver as solver  # noqa: E402
from layers import WRAPPED, LayerTracer  # noqa: E402
from modchain import ChainExhausted, MemoryBudgetExceeded, ProblemSpec, SolverConfig  # noqa: E402
from modchain.chains import bundled_chain  # noqa: E402
from oracle import expected_solutions  # noqa: E402


@pytest.fixture(scope="module")
def t2():
    return bundled_chain("t2.chain")


def _originals():
    return {name: getattr(solver, name) for name in WRAPPED}


def _counts(tracer):
    return {
        layer: {k: v for k, v in values.items() if k != "busy_s"}
        for layer, values in tracer.totals().items()
    }


def test_wrappers_restore_after_a_solve_raises(t2):
    before = _originals()
    with pytest.raises(ChainExhausted):
        with LayerTracer(solver) as tracer:
            assert all(getattr(solver, name) is not fn for name, fn in before.items())
            solver.solve_chain(ProblemSpec(3, 2, 10), t2.prefix(3))
    assert _originals() == before
    assert tracer.counts["base"]["calls"] == 1


def test_wrappers_restore_after_a_wrapped_layer_raises(t2):
    before = _originals()
    with pytest.raises(MemoryBudgetExceeded):
        with LayerTracer(solver) as tracer:
            solver.solve_chain(ProblemSpec(3, 2, 8), t2, SolverConfig(memory_cap=1))
    assert _originals() == before
    # the raising call still left its span
    assert [layer for layer, _, _ in tracer.spans][-1] in ("mitm", "dlog_lift")


def test_traced_counts_repeat_exactly(t2):
    spec = ProblemSpec(3, 2, 9)
    runs = []
    for _ in range(2):
        with LayerTracer(solver) as tracer:
            solutions, report = solver.solve_chain(spec, t2)
        runs.append((_counts(tracer), [(s.x, s.exponents) for s in solutions]))
        assert tracer.counts["base"]["classes"] == report.base_count
        assert tracer.busy() <= report.seconds
    assert runs[0] == runs[1]
    assert runs[0][0]["mitm"]["calls"] > 0 and runs[0][0]["dlog_lift"]["calls"] > 0


def test_oracle_known_small_sets():
    assert expected_solutions("3=sum2", 3) == {(4, (0, 4, 6))}
    assert expected_solutions("3=sum2", 4) == {(3, (0, 1, 3, 4))}
    assert expected_solutions("2=sum3", 3) == set()
    assert expected_solutions("2=sum3", 4) == {(8, (0, 1, 2, 5))}


@pytest.mark.parametrize("direction,chain", [("3=sum2", "t2.chain"), ("2=sum3", "t3.chain")])
@pytest.mark.parametrize("n", [3, 4])
def test_oracle_agrees_with_solver(direction, chain, n):
    solutions, _ = solver.solve_chain(ProblemSpec.from_direction(direction, n), bundled_chain(chain))
    assert {(s.x, s.exponents) for s in solutions} == expected_solutions(direction, n)
