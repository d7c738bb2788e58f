"""The four special functions riscap needs, without scipy's package
__init__s; and import_bare, which loads them.

riscap uses gammaincc (the SNR survival function), i0e and i1e (the
Laguerre-1/2 envelope mean) and j0 (Doppler aging).  scipy.special's
package __init__ builds an array-API layer whose walk over numpy's lazy
attributes imports numpy.testing, numpy.f2py, numpy.ma and more: about
0.2 s and 250 modules per process.  The functions themselves are ufuncs of
compiled extensions, which scipy.special re-exports as the very same
objects, so loading one extension alone gives the same numbers.

The extensions are tried in the order of CANDIDATES, and the first that
imports and defines all of NAMES is used.  scipy.special._special_ufuncs,
on recent scipy, loads nothing else; scipy.special._ufuncs defines them on
every scipy riscap supports, but loads _ufuncs_cxx, _gufuncs,
_ellip_harm_2 and scipy's bundled OpenBLAS with it (~3 MB resident).
Should none serve (another scipy layout), scipy.special is imported.

import_bare reaches an extension under bare stubs for its parent packages,
removed after the one import (riscap.montecarlo loads numpy.random's
Generator and Philox through it too).  The extensions stay in sys.modules,
so a later ``import scipy.special`` reuses them; only attribute access to
its private extension submodules (scipy.special._gufuncs and the like)
finds them unbound.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types

NAMES = ("gammaincc", "i0e", "i1e", "j0")
CANDIDATES = ("scipy.special._special_ufuncs", "scipy.special._ufuncs")


def import_bare(name: str, **stand_ins: types.ModuleType):
    """The module `name`, imported with a bare stub (a __path__ and nothing
    else) for each parent package not imported yet, so no package __init__
    runs, and with the stand-ins for modules not imported yet; stubs and
    stand-ins leave sys.modules afterwards."""
    lent = {key: module for key, module in stand_ins.items() if key not in sys.modules}
    sys.modules.update(lent)
    parts = name.split(".")
    try:
        for parent in (".".join(parts[:i]) for i in range(1, len(parts))):
            spec = None if parent in sys.modules else importlib.util.find_spec(parent)
            if spec is not None and spec.submodule_search_locations:
                sys.modules[parent] = lent[parent] = types.ModuleType(parent)
                lent[parent].__path__ = list(spec.submodule_search_locations)
        return importlib.import_module(name)
    finally:
        for key, module in lent.items():
            if sys.modules.get(key) is module:
                del sys.modules[key]


def _load():
    for module in CANDIDATES:
        try:
            ufuncs = import_bare(module)
            return [getattr(ufuncs, name) for name in NAMES]
        except (ImportError, AttributeError):
            pass
    from scipy import special

    return [getattr(special, name) for name in NAMES]


gammaincc, i0e, i1e, j0 = _load()
