"""riscap.special: scipy.special's compiled ufuncs without the package
__init__, in either import order, from either candidate extension, and the
fallback to the package.

Each case runs in a fresh interpreter: what is imported first is the
point, and this process has long since imported scipy.special."""

import subprocess
import sys
import textwrap

import pytest

# a few fixed inputs through every function the loader serves, then
# whether scipy.special's package __init__ ran
VALUES = """
    import sys
    from riscap.capacity import GammaFit, ergodic_capacity
    from riscap.channel import RicianParams, outdated_correlation, rician_mean_envelope
    print(repr([
        ergodic_capacity(GammaFit(a, b), g)
        for a, b, g in ((2.0, 1.5, 10.0), (40.0, 3.0, 1e3), (0.7, 0.2, 0.5))
    ]))
    print(repr([rician_mean_envelope(RicianParams(k)) for k in (0.0, 0.5, 5.0, 1e4)]))
    print(repr([outdated_correlation(*t) for t in ((2.4e9, 1.0, 1e-3), (5e9, 3.0, 2e-3))]))
    print("scipy._lib._array_api" in sys.modules)
"""

# the bare-stub imports of both candidate extensions fail, as they might
# under another scipy layout; the real package's own imports still work
REFUSE_STUB = """
    import sys

    class RefuseUnderStub:
        def find_spec(self, name, path, target=None):
            parent = sys.modules.get("scipy.special")
            refused = ("scipy.special._special_ufuncs", "scipy.special._ufuncs")
            if name in refused and not hasattr(parent, "__file__"):
                raise ImportError(name)
            return None

    sys.meta_path.insert(0, RefuseUnderStub())
"""

# the first bare-stub import of scipy.special._special_ufuncs fails, as on
# a scipy without it; scipy.special._ufuncs, which imports it itself, loads
REFUSE_SPECIAL_UFUNCS = """
    import sys

    class RefuseOnce:
        refused = False

        def find_spec(self, name, path, target=None):
            parent = sys.modules.get("scipy.special")
            if (
                name == "scipy.special._special_ufuncs"
                and not hasattr(parent, "__file__")
                and not self.refused
            ):
                self.refused = True
                raise ImportError(name)
            return None

    sys.meta_path.insert(0, RefuseOnce())
"""


def python(code: str) -> str:
    """Stdout of `python -c code` in a fresh interpreter, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_riscap_first_then_scipy_special():
    python(
        """
        import sys
        from riscap import special
        assert "scipy._lib._array_api" not in sys.modules
        assert "scipy.special" not in sys.modules
        import scipy.integrate, scipy.special
        for name in special.NAMES:
            assert getattr(special, name) is getattr(scipy.special, name), name
        assert scipy.special.gamma(5.0) == 24.0
        assert abs(scipy.integrate.quad(lambda x: x * x, 0.0, 1.0)[0] - 1.0 / 3.0) < 1e-14
        """
    )


def test_scipy_special_first_then_riscap():
    python(
        """
        import sys
        import scipy.special
        package = sys.modules["scipy.special"]
        from riscap import special
        assert sys.modules["scipy.special"] is package
        for name in special.NAMES:
            assert getattr(special, name) is getattr(scipy.special._ufuncs, name), name
        """
    )


@pytest.fixture(scope="module")
def fast_path_values():
    return python(VALUES)


def test_fast_path_skips_package_init(fast_path_values):
    assert fast_path_values.splitlines()[-1] == "False"


def test_fallback_gives_the_same_values(fast_path_values):
    out = python(REFUSE_STUB + VALUES)
    assert out.splitlines()[-1] == "True"
    assert out.splitlines()[:-1] == fast_path_values.splitlines()[:-1]


def test_second_candidate_gives_the_same_values(fast_path_values):
    out = python(
        REFUSE_SPECIAL_UFUNCS
        + VALUES
        + """
    from riscap import special
    assert sys.meta_path[0].refused
    assert "scipy.special" not in sys.modules
    ufuncs = sys.modules["scipy.special._ufuncs"]
    for name in special.NAMES:
        assert getattr(special, name) is getattr(ufuncs, name), name
    """
    )
    assert out.splitlines() == fast_path_values.splitlines()
