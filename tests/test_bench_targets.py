"""Every function the benchmark's tracer wraps must still exist in opdiv.

`bench/run.py --trace 1` wraps each `(module, name)` of `bench/spans.TARGETS`;
a name removed from the package would break the traced run, so it fails here.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_targets() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_is_an_opdiv_callable():
    sites = [site for group in load_targets().values() for site in group]
    assert sites
    for module_name, attr in sites:
        assert module_name.split(".")[0] == "opdiv", module_name
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )
