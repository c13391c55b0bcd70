"""Packaging for the secure top-k reproduction.

The evaluation environment is offline and lacks the ``wheel`` package, so
PEP-517 editable installs cannot build; this classic setup.py keeps
``pip install -e . --no-build-isolation --no-use-pep517`` working
everywhere.

The core library is dependency-free (the crypto stack is built on Python
integers).  One optional extra accelerates the compute backend
(``repro.crypto.backend``), which picks the kernel when it builds and
pure Python otherwise::

    pip install .[kernel]         # cffi GMP batch kernel (GIL-free C
                                  # batch primitives; needs a C compiler
                                  # and the GMP headers, e.g. libgmp-dev)

Select explicitly with ``REPRO_BACKEND=pure|gmp-kernel|auto``
(default auto).  The kernel extension self-builds on first use and is
cached under ``~/.cache/repro-gmp-kernel``; without cffi/GMP it simply
never registers.
"""

from setuptools import find_packages, setup

setup(
    name="repro-sec-topk",
    version="0.2.0",
    description=(
        "Reproduction of a secure top-k query scheme over encrypted data "
        "(two-cloud NRA with Paillier/Damgård–Jurik)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    extras_require={
        # Optional GIL-free GMP batch kernel (cffi extension, built
        # lazily on first use; also needs a C compiler + GMP headers).
        "kernel": ["cffi>=1.15"],
        # Test harness: the differential harness and the sharding
        # property tests need Hypothesis; pytest-cov powers the CI
        # coverage floor.  The plain tier-1 suite still runs with pytest
        # alone (those modules skip themselves when Hypothesis is absent).
        "test": ["pytest>=7", "hypothesis>=6", "pytest-cov>=4"],
    },
)
