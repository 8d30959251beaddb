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


# the tracer's own check, run from the state group-selftest leaves: the modules
# it does not read are registered but not run yet
TRACE_AFTER_GROUP_SELFTEST = """
import importlib.util, sys, types
from gl11.cli import main
main(["group-selftest", "--count", "1"])
lazy = [name for name in ("cech", "fatgraph", "hitchin", "integrable")
        if type(sys.modules["gl11." + name]) is not types.ModuleType]
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
originals = {id(original) for _, _, original, _ in tracing.Tracer()._patches()}
missing = []
for layer, (_, targets) in tracing.LAYERS.items():
    for module, path in targets:
        *cls, attr = path.split(".")
        owner = sys.modules["gl11." + module]
        target = vars(getattr(owner, cls[0]))[attr] if cls else getattr(owner, attr)
        if id(target) not in originals:
            missing.append("%s: %s.%s" % (layer, module, path))
print(" ".join(lazy))
print(len(missing), *missing)
"""


def test_tracer_resolves_every_layer_target_from_a_fresh_group_selftest(fresh_python):
    done = fresh_python("-c", TRACE_AFTER_GROUP_SELFTEST, str(TRACING))
    assert done.returncode == 0, done.stderr  # a KeyError if a module were not registered
    lazy, missing = done.stdout.splitlines()[-2:]
    assert lazy == "cech fatgraph hitchin integrable"
    assert missing == "0"
