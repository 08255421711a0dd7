"""The package's public names."""

import subprocess
import sys
import types

import fparea


def test_all_lists_every_public_name():
    # every public name the package offers, modules aside, and nothing else;
    # the Monte Carlo names resolve on first use, so dir() lists them
    public = {
        name
        for name in dir(fparea)
        if not name.startswith("_") and not isinstance(getattr(fparea, name), types.ModuleType)
    }
    assert public == set(fparea.__all__)


def test_monte_carlo_modules_load_on_first_use():
    # `mc` is bound, and in sys.modules, from the start, so `fparea.mc.run`
    # works after `import fparea`, as does `fparea.kernels`; numpy loads when
    # a name of `mc` is first read
    script = (
        "import sys\n"
        "import fparea\n"
        "assert 'fparea.mc' in sys.modules and 'numpy' not in sys.modules\n"
        "assert fparea.mc.run is fparea.run\n"
        "assert fparea.kernels.walk_rows is fparea.mc.kernels.walk_rows\n"
        "assert 'numpy' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
