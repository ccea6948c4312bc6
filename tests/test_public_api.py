"""Public-API surface tests: the documented imports must keep working."""

import importlib

import pytest


def test_top_level_api():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    assert repro.__version__


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.compression",
        "repro.dram",
        "repro.cache",
        "repro.cpu",
        "repro.vm",
        "repro.workloads",
        "repro.sim",
        "repro.energy",
        "repro.analysis",
        "repro.obs",
    ],
)
def test_subpackage_all_exports_resolve(module):
    mod = importlib.import_module(module)
    assert hasattr(mod, "__all__"), f"{module} should declare __all__"
    for name in mod.__all__:
        assert getattr(mod, name, None) is not None, f"{module}.{name}"


def test_readme_quickstart_names_exist():
    import repro

    for name in ("simulate", "compare", "bench_config", "DESIGNS"):
        assert hasattr(repro, name)


def test_designs_build_and_are_documented():
    from repro import DESIGNS
    from repro.sim.system import build_controller
    from repro.dram.storage import PhysicalMemory
    from repro.dram.system import DRAMSystem
    from repro.sim.config import quick_config

    for design in DESIGNS:
        controller, _ = build_controller(
            design, PhysicalMemory(1 << 12), DRAMSystem(), quick_config()
        )
        assert controller.__doc__, design
        assert type(controller).__module__.startswith("repro.core")


def test_every_public_module_has_docstring():
    import pathlib

    src = pathlib.Path("src/repro")
    for path in src.rglob("*.py"):
        text = path.read_text()
        assert text.lstrip().startswith('"""'), f"{path} lacks a module docstring"
