"""Import hygiene: importing pairjump loads no scipy module.

scipy is imported inside the functions that use it (``VonMisesNoise`` and the
oracle's matrix builders), so a process that only simulates never pays for it.
The check runs in a fresh interpreter, since this one has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import numpy as np
import pairjump, pairjump.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from pairjump import ModelSpec, TabulatedNoise, VonMisesNoise, WrappedNormalNoise, build_transition
fourier = VonMisesNoise(1.5).fourier([0, 1, 2])
g = TabulatedNoise(WrappedNormalNoise(0.5).tabulate(4).values)
tm = build_transition(ModelSpec("cl", g), 2, 4)
from scipy.special import ive
print(json.dumps({"scipy_at_import": loaded, "fourier": fourier.tolist(),
                  "ive_ratio": [ive(k, 1.5) / ive(0, 1.5) for k in (0, 1, 2)],
                  "shape": tm.P.shape, "row_sums": (tm.P @ np.ones(tm.n_states)).tolist()}))
"""


def test_import_loads_no_scipy_and_scipy_users_still_work():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["scipy_at_import"] == []
    assert got["fourier"] == got["ive_ratio"]
    assert got["shape"] == [10, 10]  # C(5, 2) multisets of 2 cells out of 4
    assert np.max(np.abs(np.asarray(got["row_sums"]) - 1.0)) < 1e-12
