"""The package's export list: every name resolves, none twice, no removed name."""

import os
import subprocess
import sys

import quandles

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_every_exported_name_resolves():
    missing = [name for name in quandles.__all__ if not hasattr(quandles, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(quandles.__all__) == len(set(quandles.__all__))


def test_removed_names_are_gone():
    removed = ("core_inner_model", "verify_core_inner", "build_complex", "rack_h2", "is_isomorphic")
    for name in removed:
        assert name not in quandles.__all__
        assert not hasattr(quandles, name)
    assert not hasattr(quandles.FiniteQuandle, "orbit_of")


def test_the_core_module_is_not_shadowed():
    # the `core` family builder lives in `families` and is not re-exported
    import quandles.core as core_module
    from quandles import core

    assert core is core_module and core_module.__name__ == "quandles.core"
    assert "core" not in quandles.__all__


def test_the_library_does_not_load_the_report_module():
    # reports are the command line's; only `cli` builds them
    code = "import sys, quandles; assert 'quandles.report' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), check=True)


def test_the_homotopy_and_homology_paths_do_not_load_numpy_ma():
    # plain np.unique imports numpy.ma (about 15 ms) to test for a mask
    code = (
        "import sys\n"
        "from quandles import AlexanderModuleSpec, alexander, quandle_h2\n"
        "from quandles.adjoint import HomotopyVerifier\n"
        "spec = AlexanderModuleSpec.scalar((5,), 2)\n"
        "HomotopyVerifier(spec).degree_3()\n"
        "quandle_h2(alexander(spec))\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), check=True)
