"""Loader for the compiled GMP batch kernel (optional, skip-if-absent).

:func:`load` returns the compiled cffi ``(ffi, lib)`` pair, building the
extension on first use when it can (cffi + a C compiler + the GMP
headers present), and returns ``None`` — recording why in
:func:`unavailable_reason` — when it cannot.  Nothing in the package
ever *requires* the kernel: :mod:`repro.crypto.backend` registers it as
the ``gmp-kernel`` backend only when this loader succeeds, and falls
back to the pure backend otherwise.

The build is cached under ``~/.cache/repro-gmp-kernel/<tag>`` (override
with ``REPRO_KERNEL_CACHE``), in a subdirectory named by a digest of the
C declarations and source, so a cache populated by another version of
this package is never imported in place of a rebuild.
``REPRO_NO_KERNEL=1`` disables the kernel outright, which is how the
pure CI legs stay deterministic on machines that happen to carry a
compiler.  Concurrent builders compile
into private scratch directories and ``os.replace`` the shared object
into place, so racing processes (spawn-started pool workers, parallel
test runs) at worst build twice, never corrupt the cache.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pathlib
import sys
import sysconfig
import tempfile

_LOADED: tuple | None = None
_REASON: str | None = None


def _cache_dir() -> pathlib.Path:
    from repro.crypto._gmp_kernel.build import CDEF, SOURCE

    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        base = pathlib.Path(override)
    else:
        tag = f"cp{sys.version_info.major}{sys.version_info.minor}"
        base = pathlib.Path.home() / ".cache" / "repro-gmp-kernel" / tag
    return base / hashlib.sha256((CDEF + SOURCE).encode()).hexdigest()[:16]


def _so_name() -> str:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    from repro.crypto._gmp_kernel.build import MODULE_NAME

    return MODULE_NAME + suffix


def _import_so(path: pathlib.Path):
    from repro.crypto._gmp_kernel.build import MODULE_NAME

    spec = importlib.util.spec_from_file_location(MODULE_NAME, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load kernel extension from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def _build(cache: pathlib.Path, target: pathlib.Path) -> None:
    from repro.crypto._gmp_kernel.build import make_ffibuilder

    builder = make_ffibuilder()
    if builder is None:
        raise RuntimeError("cffi is not installed")
    cache.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache, prefix="build-") as scratch:
        so_path = builder.compile(tmpdir=scratch, verbose=False)
        os.replace(so_path, target)


def load():
    """The compiled ``(ffi, lib)`` pair, or ``None`` when unavailable.

    The first call does the work (import, or compile-then-import); the
    outcome — success or the failure reason — is cached for the life of
    the process.
    """
    global _LOADED, _REASON
    if _LOADED is not None or _REASON is not None:
        return _LOADED
    if os.environ.get("REPRO_NO_KERNEL"):
        _REASON = "disabled by REPRO_NO_KERNEL"
        return None
    try:
        cache = _cache_dir()
        target = cache / _so_name()
        if not target.exists():
            _build(cache, target)
        _LOADED = _import_so(target)
    except Exception as exc:  # noqa: BLE001 — any failure means "absent"
        _REASON = f"{type(exc).__name__}: {exc}"
        return None
    return _LOADED


def available() -> bool:
    """Whether the kernel can be (or already was) loaded here."""
    return load() is not None


def unavailable_reason() -> str | None:
    """Why :func:`load` failed, or ``None`` when it succeeded/never ran."""
    return _REASON
