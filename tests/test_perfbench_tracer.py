"""The benchmark's span tracer still finds every method it wraps.

``perfbench/tracer.py`` wraps each :data:`SPAN_TARGETS` entry through the
owning class's own ``__dict__``, so moving a traced method into a base class
breaks the traced benchmark run.  This test installs and uninstalls the
tracer in-process and catches that in about a second.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for class_name in classes:
        owner = getattr(owner, class_name)
    return owner, attr


def test_every_span_target_installs_and_uninstalls():
    tracer_module = _load_tracer_module()
    targets = [
        (path, *_resolve(module_name, path))
        for module_name, path, _, _ in tracer_module.SPAN_TARGETS
    ]
    missing = [path for path, owner, attr in targets if attr not in owner.__dict__]
    assert not missing, f"not defined in their own class body: {missing}"
    originals = [owner.__dict__[attr] for _, owner, attr in targets]

    tracer = tracer_module.install(tracer_module.Tracer())
    try:
        for path, owner, attr in targets:
            assert hasattr(owner.__dict__[attr], "__wrapped__"), path
    finally:
        tracer.uninstall()

    for (path, owner, attr), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, path
