"""Packaging for legacy editable installs (no-network environments).

The environment this repo targets may lack the ``wheel`` package, which
PEP 517 editable installs require; ``pip install -e . --no-build-isolation
--no-use-pep517`` falls back to this shim, so the metadata — including
the ``repro`` console script wired to the unified CLI — lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro-compaction",
    version="1.0.0",
    description=(
        "Reproduction of 'Fast Compaction Algorithms for NoSQL Databases' "
        "(Ghosh, Gupta, Gupta, Kumar - ICDCS 2015)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            # `repro run fig7a`, `repro list-scenarios`, ... == `python -m repro`
            "repro=repro.cli:main",
        ]
    },
    # Required, not an extra: the HLL kernels, the columnar data plane,
    # the op-stream generator and the shard split are numpy end to end,
    # and `import repro` fails loudly without it.  2.0 is the floor:
    # the HLL zero-count kernel calls `numpy.bitwise_count`.
    install_requires=["numpy>=2.0"],
)
