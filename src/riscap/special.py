"""The four special functions riscap needs, without scipy.special's __init__.

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

Each is reached under a bare package stub that stands in for scipy.special
during the one import and is removed afterwards.  The extensions loaded
under it stay in sys.modules, so a later ``import scipy.special`` reuses
them; only attribute access to its private extension submodules
(scipy.special._gufuncs and the like) finds them unbound.  A
scipy.special already imported is used as it is.  Should no candidate
serve (another scipy layout), the package is imported as usual.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types

NAMES = ("gammaincc", "i0e", "i1e", "j0")
CANDIDATES = ("scipy.special._special_ufuncs", "scipy.special._ufuncs")


def _compiled_ufuncs(name):
    """The extension module `name`, reached without running the package
    __init__ when scipy.special is not imported yet."""
    if "scipy.special" in sys.modules:
        return importlib.import_module(name)
    spec = importlib.util.find_spec("scipy.special")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy.special is not a package")
    stub = types.ModuleType("scipy.special")
    stub.__path__ = list(spec.submodule_search_locations)
    sys.modules["scipy.special"] = stub
    try:
        return importlib.import_module(name)
    finally:
        if sys.modules.get("scipy.special") is stub:
            del sys.modules["scipy.special"]


def _load():
    for module in CANDIDATES:
        try:
            ufuncs = _compiled_ufuncs(module)
            return [getattr(ufuncs, name) for name in NAMES]
        except (ImportError, AttributeError):
            pass
    from scipy import special

    return [getattr(special, name) for name in NAMES]


gammaincc, i0e, i1e, j0 = _load()
