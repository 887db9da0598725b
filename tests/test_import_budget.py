"""numpy is paid for only by the §4.2 CTMC model, and only when it is solved.

The simulator, the figure and scenario layers and the closed-system
tuner are stdlib-only; numpy (the ``models`` extra) is imported the
first time :class:`~repro.queueing.mpl_ps_queue.MplPsQueue` solves its
chain.  Each check runs in a fresh interpreter, since this test
process has long imported numpy through the model tests.
"""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: One fast closed-grid cell and the closed-system tuner on setup 2:
#: neither may need the response-time model.
_CLOSED_WORK = """
import repro, repro.core.scenario, repro.experiments.figures
from repro.core.scenario import execute_scenario
from repro.experiments.figures import GRID_DEFS
from repro.experiments.runner import tune_setup
from repro.workloads.setups import get_setup

execute_scenario(GRID_DEFS["2"].build(True)[0])
tuning = tune_setup(get_setup(2), transactions=300)
assert tuning.model_mpl_response_time == 1  # closed: the CTMC is not consulted
"""


def _run(script: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr


def test_closed_work_never_imports_numpy():
    _run("import sys\n" + _CLOSED_WORK + "assert 'numpy' not in sys.modules\n")


def test_without_numpy_closed_work_runs_and_the_model_fails_loudly():
    _run(
        "import sys\nsys.modules['numpy'] = None  # as if not installed\n"
        + _CLOSED_WORK
        + """
from repro import MplPsQueue

model = MplPsQueue(arrival_rate=0.5, mpl=2, service_mean=1.0, service_scv=4.0)
try:
    model.mean_response_time()
except ModuleNotFoundError:
    pass
else:
    raise AssertionError("solving the CTMC without numpy must raise")
"""
    )
