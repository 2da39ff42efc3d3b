"""Setup shim.

The execution environment has no network access and no ``wheel`` package, so
PEP 517 builds (which require ``bdist_wheel``) are unavailable.  This shim
enables the legacy editable install path::

    pip install -e . --no-build-isolation --no-use-pep517

The ``[test]`` extra declares what ``scripts/ci_check.sh`` needs to run
every gate (its coverage gate is the standard-library plugin
``scripts/linecov.py``)::

    pip install -e ".[test]" --no-build-isolation --no-use-pep517
"""

from setuptools import find_packages, setup

setup(
    name="repro-split-execution",
    version="1.0.0",  # keep in lockstep with repro.__version__ (cache keys hash it)
    description=(
        "Performance models for split-execution computing systems "
        "(Humble et al., 2016): closed forms, ASPEN listings, DES runtime"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.aspen": ["models/**/*.aspen"]},
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        "scipy",
        "networkx",
    ],
    extras_require={
        # Everything the full CI gate (scripts/ci_check.sh) exercises:
        # hypothesis drives the property-test layer.
        "test": [
            "pytest>=7",
            "hypothesis>=6",
        ],
    },
)
