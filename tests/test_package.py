import importlib
import pkgutil

import eigenkit


def test_package_reexports_each_submodule_all_once():
    # The package star-imports every library module (all but the CLI); a
    # star import lets a later module silently shadow an earlier name.
    owner = {}
    for info in pkgutil.iter_modules(eigenkit.__path__):
        if info.name == "cli":
            continue
        mod = importlib.import_module(f"eigenkit.{info.name}")
        for name in mod.__all__:
            assert name not in owner, f"{name} is exported by {owner[name]} and {info.name}"
            owner[name] = info.name
            assert getattr(eigenkit, name) is getattr(mod, name)
    assert sorted(eigenkit.__all__) == sorted(["__version__", *owner])
