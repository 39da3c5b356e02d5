"""Exact-rational intersection theory for blown-up surfaces and cone threefolds.

Every command is one fresh process, so a module that a command never runs
should cost it nothing.  ``_lazy`` gives a module that runs on its first
attribute access: ``cli`` holds the engine modules so, and ``cone3fold`` the
lattice stack, so that ``kvv-schedule`` runs only this package, ``cli`` and
``cone3fold``.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"


def _lazy(name: str):
    """The module ``name`` (a ``conekit.`` submodule), run on its first
    attribute access: the ``sys.modules`` entry when there is one, else a new
    entry, which ``importlib.util.LazyLoader`` runs when it is first read.
    The new entry is bound on this package, as an import binds it, so that
    ``import conekit.cohom; conekit.cohom.target_context`` still works, and
    every import of ``name`` gets this one object.  Before Python 3.12 the
    first read runs the module without a lock; conekit reads its modules
    from one thread."""
    module = sys.modules.get(name)
    if module is None:
        spec = find_spec(name)
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        globals()[name.rpartition(".")[2]] = module
    return module
