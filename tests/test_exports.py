"""The package's public names, and the names the benchmark looks up, all exist."""

import importlib
import importlib.util
from pathlib import Path

import poolnet

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_exported_name_is_an_attribute():
    stale = [name for name in poolnet.__all__ if not hasattr(poolnet, name)]
    assert not stale, f"__all__ names that poolnet does not define: {stale}"


def test_every_name_the_tracer_patches_resolves():
    # perfbench/tracer.py finds what it wraps by module and attribute name,
    # then wraps Adam.step and Module.__call__, and perfbench/workloads.py
    # patches save_map and Adam.step; a name that stops resolving makes
    # ``perfbench/run.py --trace 1`` fail
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    looked_up = [(module, attribute) for module, attribute, _, _ in tracer.FUNCTIONS]
    looked_up += [("poolnet.inference", "save_map"), ("poolnet.optim", "Adam"),
                  ("poolnet.nn", "Module"), ("poolnet.nn", "ModuleList"),
                  ("poolnet.model", "SaliencyNet")]
    missing = [f"{module}.{attribute}" for module, attribute in looked_up
               if not hasattr(importlib.import_module(module), attribute)]
    assert not missing, f"names the tracer looks up that poolnet does not define: {missing}"
    assert {("poolnet.tensor", "mul"), ("poolnet.tensor", "reduce_sum")} <= set(looked_up)
    assert "step" in vars(poolnet.optim.Adam) and "__call__" in vars(poolnet.nn.Module)
