"""The package's build configuration (there is no ``pyproject.toml``).

Nothing needs installing to run from the source tree (``PYTHONPATH=src``).
``pip install -e .`` works too; on offline machines whose setuptools
cannot build PEP 660 editable wheels (no ``wheel`` package available) use
``pip install -e . --no-use-pep517 --no-build-isolation``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
