"""The per-layer metrics of BENCHMARK.json name functions that exist."""

import importlib
import inspect
import json
import os

BENCHMARK = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")

# metric suffixes that perfbench derives from the spans of one traced function
FUNCTION_SUFFIXES = ("s", "self_s", "calls")

# traced name -> why it left src/ (ROADMAP item 16's benchmark change drops their metrics)
DELETED = {
    "gaussian.bw_linear": "the covariance step factors its matrix once",
    "gaussian.ot_map_bw": "no run entered it; tests/reference.py keeps it as a reference",
    "quantile.score": "no run entered it; gap_score is the live spelling",
    "quantile.invert_map": "no run entered it; inverse_fields_of is the live spelling",
    "quantile.pushforward": "the reverse step pushes on arrays (push_fields)",
}


def traced_functions() -> set:
    """Every `<layer>.<function>` a per-layer metric of BENCHMARK.json is taken from (the
    one parser of those names in the tests)."""
    with open(BENCHMARK) as f:
        names = [m["name"] for m in json.load(f)["per_layer"]]
    return {name.rsplit(".", 1)[0] for name in names
            if name.count(".") == 2 and name.rsplit(".", 1)[1] in FUNCTION_SUFFIXES}


def _is_public_function(layer: str, func: str) -> bool:
    mod = importlib.import_module(f"jkolab.{layer}")
    obj = getattr(mod, func, None)
    return (inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not func.startswith("_"))


def test_per_layer_metrics_name_public_module_functions():
    traced = traced_functions()
    assert len(traced) > 20
    missing = {name for name in traced if not _is_public_function(*name.split("."))}
    # their metrics read 0 and stay until BENCHMARK.json itself is next changed
    assert missing == set(DELETED)
