"""Legacy setup shim.

Kept so `pip install -e .` works in offline environments without the
`wheel` package (PEP 660 editable builds need it; `setup.py develop`
does not). All metadata lives in pyproject.toml.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
