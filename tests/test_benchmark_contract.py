"""The benchmark names program functions, flags and config keys; they must keep existing.

`perfbench/tracer.py` times layers by looking functions up by name, and
`perfbench/workloads.py` runs the command with fixed flags and config files,
so a renamed or deleted function, flag or key would only surface as a crash
or a failed job of a benchmark run.  This reads both files without
installing the tracer or running a job.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from momentphase import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """Import perfbench/<name>.py under its own name, as perfbench/run.py does."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # workloads.py imports references.py by this name
    spec.loader.exec_module(module)
    return module


with mock.patch.dict(sys.modules):  # leaves no perfbench module imported
    SPANS = load("tracer").SPANS
    load("references")
    WORKLOADS = load("workloads").WORKLOADS


@pytest.mark.parametrize("span", sorted(SPANS))
def test_traced_functions_exist(span):
    module_name, fn_names = SPANS[span]
    assert module_name.split(".")[0] == "momentphase"
    module = importlib.import_module(module_name)
    for fn_name in fn_names:
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_flags_and_config_keys_are_accepted(name):
    for job in WORKLOADS[name].make_pass(np.random.default_rng(0)):
        args = [a.replace("{dir}", "job") for a in job.args]
        ns = cli.build_parser().parse_args(["job/moments.json", *args, "-o", "job/out"])
        if ns.config is not None:
            keys = set(job.extra_files[Path(ns.config).name])
            assert keys <= set(cli.DEFAULTS), sorted(keys - set(cli.DEFAULTS))
