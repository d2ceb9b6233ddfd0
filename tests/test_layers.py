"""Every lift the solver makes passes through the layers perfbench traces.

perfbench/layers.py times compute_lift_plan, lift_balanced and
lift_unbalanced by rebinding them in modchain.solver, so the lift loop must
call all three through the module. The tracer is loaded read-only, as
tests/test_digests.py loads scripts/digests.py.
"""

import runpy
from pathlib import Path

import pytest

from modchain import ProblemSpec, solve_chain, solver

ROOT = Path(__file__).resolve().parents[1]
LAYERS = runpy.run_path(str(ROOT / "perfbench" / "layers.py"))


@pytest.mark.parametrize("spec, chain", [(ProblemSpec(3, 2, 8), "t2"), (ProblemSpec(2, 3, 10), "t3")])
def test_every_lift_is_traced(spec, chain, request):
    with LAYERS["LayerTracer"](solver) as tracer:
        _, report = solve_chain(spec, request.getfixturevalue(chain))
    plans, mitm, dlog = (tracer.counts[layer]["calls"] for layer in ("plan", "mitm", "dlog_lift"))
    assert plans == mitm + dlog == sum(s.balanced + s.unbalanced for s in report.steps)
    assert mitm and dlog, (mitm, dlog)
