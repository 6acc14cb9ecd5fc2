"""Every package's export table against what its modules hold.

Each ``repro`` package ``__init__`` names its exports in one literal
table (``_EXPORTS``, read by :func:`repro.lazy_exports`) and imports
them on first access.  These tests hold each table to what plain
imports would give: every ``__all__`` name resolves to the object of
its defining module, shows in ``dir()`` and binds under ``import *``,
and an unknown name is an ``AttributeError`` that names the package.
"""

import importlib
import pkgutil

import pytest

import repro

#: Every package that re-exports names from its modules.
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.board",
    "repro.chaos",
    "repro.core",
    "repro.cosim",
    "repro.des",
    "repro.hw",
    "repro.lint",
    "repro.lint.effects",
    "repro.lint.project",
    "repro.net",
    "repro.obs",
    "repro.tpwire",
)

EXPORTS = [
    (package, name)
    for package in PACKAGES
    for name in importlib.import_module(package).__all__
    if name != "__version__"
]


def table_of(package: str) -> dict[str, str]:
    """``name -> module`` from the package's export table."""
    table = vars(importlib.import_module(package))["_EXPORTS"]
    return {name: module for module, names in table.items() for name in names}


def test_every_package_with_a_table_is_listed():
    with_table = {
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg and "_EXPORTS" in vars(importlib.import_module(info.name))
    }
    assert with_table | {"repro"} == set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_table_and_all_name_the_same_exports(package):
    module = importlib.import_module(package)
    assert sorted(table_of(package)) == sorted(
        name for name in module.__all__ if name != "__version__"
    )


@pytest.mark.parametrize("package, name", EXPORTS, ids=[f"{p}.{n}" for p, n in EXPORTS])
def test_export_is_the_defining_modules_object(package, name):
    source = table_of(package)[name]
    value = getattr(importlib.import_module(package), name)
    if source == package:
        assert value is importlib.import_module(f"{package}.{name}")
    else:
        assert value is vars(importlib.import_module(source))[name]
    assert vars(importlib.import_module(package))[name] is value  # cached


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_export(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_is_an_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'NoSuchName'"):
        module.NoSuchName
    assert not hasattr(module, "NoSuchName")
