import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_leaves_network_stack_unloaded():
    # SVG escaping must not drag in urllib/http/email at import time.
    code = (
        "import sys, eigenkit; "
        "print(sorted(m for m in ('http.client', 'urllib.request') if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(eigenkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
