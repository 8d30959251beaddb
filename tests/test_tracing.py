"""The benchmark tracer still finds every gl11 name it wraps."""

import importlib
import importlib.util
import pathlib
import pkgutil

import gl11

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_layer_target():
    for info in pkgutil.iter_modules(gl11.__path__):
        importlib.import_module("gl11." + info.name)
    tracing = load_tracing()
    patched = tracing.Tracer()._patches()  # raises if a wrapped name is gone
    originals = {id(original) for _, _, original, _ in patched}
    for layer, (_, targets) in tracing.LAYERS.items():
        for module, path in targets:
            owner = importlib.import_module("gl11." + module)
            *cls, attr = path.split(".")
            if cls:
                target = vars(getattr(owner, cls[0]))[attr]
            else:
                target = getattr(owner, attr)
            assert id(target) in originals, "%s: %s.%s not wrapped" % (layer, module, path)
