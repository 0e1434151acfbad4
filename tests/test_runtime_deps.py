"""The simulator runs every figure with numpy alone: scipy is a test-suite
dependency (an independent oracle), never imported by ``iassr_sim``."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import iassr_sim

SRC = Path(iassr_sim.__file__).parents[1]

PROBE = textwrap.dedent("""
    import importlib.abc
    import json
    import sys
    import tempfile
    from pathlib import Path


    class NoScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None


    sys.meta_path.insert(0, NoScipy())

    import iassr_sim
    import iassr_sim.cli
    from iassr_sim import harness

    config, clusters = iassr_sim.default_scenario()
    with tempfile.TemporaryDirectory() as out:
        written = {}
        for fig in sorted(harness.FIGURES):
            spec = harness.ExperimentSpec(figure=fig, config=config, clusters=clusters,
                                          trials=1, base_seed=5, out_dir=Path(out),
                                          snr_grid=(0.0, 20.0), t_grid=(100, 250))
            written[fig] = [p.name for p in harness.run(spec)]
    print(json.dumps({"written": written,
                      "scipy": sorted(m for m in sys.modules
                                      if m == "scipy" or m.startswith("scipy."))}))
""")


def test_every_figure_runs_without_scipy():
    # one BLAS thread: a spinning multi-threaded BLAS slows tenfold under load
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["scipy"] == []
    assert sorted(result["written"]) == sorted(iassr_sim.FIGURES)
    assert all(result["written"].values())
