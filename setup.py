"""Package metadata (there is no ``pyproject.toml``).

The execution environment has no ``wheel`` package, so PEP 660 editable
installs fail; ``pip install -e . --no-use-pep517 --no-build-isolation``
(or ``python setup.py develop``) installs from this file instead.  The
package has no third-party runtime dependency.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description='Reproduction of "Finding Top-k Optimal Sequenced Routes" '
                "(ICDE 2018)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
