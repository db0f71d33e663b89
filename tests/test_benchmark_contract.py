"""The benchmark's tracer names program functions; they must keep existing.

`perfbench/tracer.py` times layers by looking functions up by name, so a
renamed or deleted function would only surface as a crash of a traced
benchmark run.  This reads the tracer's span table without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = load_spans()


@pytest.mark.parametrize("span", sorted(SPANS))
def test_traced_functions_exist(span):
    module_name, fn_names = SPANS[span]
    assert module_name.split(".")[0] == "momentphase"
    module = importlib.import_module(module_name)
    for fn_name in fn_names:
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
