"""Every name a ``repro`` module lists in ``__all__`` exists.

Only ``from module import *`` reads ``__all__``, and nothing in the
package does that, so a name deleted from a module but left in its
``__all__`` would otherwise go unnoticed.
"""

import importlib
import pkgutil

import repro


def test_every_name_in_all_exists():
    missing = []
    modules = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue  # importing the ``python -m repro`` entry point runs the CLI
        module = importlib.import_module(info.name)
        modules += 1
        missing += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert modules > 50, "the walk found too few modules to mean anything"
    assert not missing
