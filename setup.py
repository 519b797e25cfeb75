"""Package metadata for the ExplainIt! reproduction (``repro``).

The package is pure Python under ``src/`` and needs only numpy at run
time.  An editable install needs no download::

    pip install -e . --no-deps --no-build-isolation --no-use-pep517

pip takes that legacy path only when ``setuptools`` and ``wheel`` are
both installed; where ``wheel`` is missing, ``python setup.py develop
--no-deps`` does the same.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="ExplainIt! - a declarative root-cause analysis engine "
                "for time series data (reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
