"""The README's library code blocks run as written.

The quickstart and the condensation block are executed in one namespace
that supplies what their prose assumes: recorded data u and y, a reference
window and a measured output y0, all from a rollout of a random LTI plant.
An API change that leaves the README stale fails here.
"""

import re
from pathlib import Path

import numpy as np
from oracles import random_minimal_lti, rollout

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks():
    """The Python blocks of the README's "Library quickstart" section, but
    the last, which runs the simulator harness and writes files."""
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 3 and "run_circle" in blocks[2]
    return blocks[:2]


def test_library_blocks_run_on_lti_data():
    rng = np.random.default_rng(3)
    A, B, C, D = random_minimal_lti(rng, 4, 2, 2)
    u_all = rng.uniform(-1.0, 1.0, (201, 2))
    y_all, _ = rollout(A, B, C, D, u_all)
    namespace = {
        "u": u_all[:200],
        "y": y_all[:200],
        "reference_window": 0.2 * np.ones((8, 2)),
        "y0": y_all[200],
    }
    quickstart, condensation = library_blocks()
    exec(compile(quickstart, "README quickstart", "exec"), namespace)
    assert namespace["result"].solution.status == "optimal"
    assert namespace["u0"].shape == (2,)
    exec(compile(condensation, "README condensation", "exec"), namespace)
    part, lossless = namespace["part"], namespace["lossless"]
    assert lossless.columns == min(part.matrix.shape)
    assert namespace["condensed"].columns <= lossless.columns
