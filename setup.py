"""Packaging for the secure top-k reproduction.

The evaluation environment is offline and lacks the ``wheel`` package, so
PEP-517 editable installs cannot build; this classic setup.py keeps
``pip install -e . --no-build-isolation --no-use-pep517`` working
everywhere.

The core library is dependency-free (the crypto stack is built on Python
integers).  Two optional extras accelerate the compute backend
(``repro.crypto.backend``), which auto-detects whatever is installed —
the kernel first, then gmpy2, then pure Python::

    pip install .[kernel]         # cffi GMP batch kernel (GIL-free C
                                  # batch primitives; needs a C compiler
                                  # and the GMP headers, e.g. libgmp-dev)
    pip install .[accel]          # gmpy2-accelerated big-int backend

Select explicitly with ``REPRO_BACKEND=pure|gmpy2|gmp-kernel|auto``
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
        # Optional GMP-backed big-int acceleration for the compute layer.
        "accel": ["gmpy2>=2.1"],
        # Optional GIL-free GMP batch kernel (cffi extension, built
        # lazily on first use; also needs a C compiler + GMP headers).
        "kernel": ["cffi>=1.15"],
        # Test harness: the property-based sharding-equivalence suite
        # needs Hypothesis; pytest-cov powers the CI coverage floor.
        # The plain tier-1 suite still runs with pytest alone (the
        # property module skips itself when Hypothesis is absent).
        "test": ["pytest>=7", "hypothesis>=6", "pytest-cov>=4"],
    },
)
