"""The two-cloud secure sub-protocols of Sections 8, 10 and 12.

Every protocol is written from S1's point of view as a function taking an
:class:`~repro.protocols.base.S1Context` (public key material, the
communication channel, and a transport to S2).  The interactive protocols
also expose a ``*_flow`` generator form that yields typed request
messages — the engines run many flows lock-step so each stage crosses
the link as one coalesced round (see :meth:`~repro.protocols.base.S1Context.run_flows`).  S2's
side of each protocol is a :class:`~repro.protocols.base.CryptoCloud`
method or an ``s2_*`` function in the protocol module, reached only
through the :class:`~repro.net.dispatch.S2Dispatcher`; S2 only ever sees
blinded or permuted data and records every bit it *does* learn in the
leakage log, which the security tests audit.

Protocol inventory
------------------

==================  ==================================================
``recover_enc``     Algorithm 5 — strip one Damgård–Jurik layer off a
                    batch (and its fused select-then-recover flow)
``blinded_select``  S2 applies the bit it decrypts to a blinded
                    ``Enc(x + r)`` — the eager engine's credits at N²
``enc_compare``     EncCompare [11] — two constructions (blinded / DGK)
``enc_sort``        EncSort [7] — by ``worst``, two constructions
                    (affine / network)
``sec_worst``       Algorithm 4 — per-depth encrypted worst score
``sec_best``        Algorithm 6 — encrypted best score
``sec_dedup``       Algorithm 7 — duplicate burial (full privacy)
``sec_dup_elim``    Section 10.1 — duplicate elimination (optimized)
``sec_update``      Algorithm 9 — merge depth results into ``T``
``sec_filter``      Algorithm 12 — drop non-joining tuples
``sec_join``        Algorithm 11 — the secure top-k join core
==================  ==================================================

Every export below is resolved on first access, so the S2 daemon, which
imports :mod:`repro.protocols.base`, loads none of S1's flow modules.
"""

import importlib
import sys
import types

_LAZY = {
    "CryptoCloud": "base",
    "S1Context": "base",
    "recover_enc_batch": "recover_enc",
    "recover_enc_flow": "recover_enc",
    "select_recover_batch": "recover_enc",
    "select_recover_flow": "recover_enc",
    "enc_compare": "enc_compare",
    "enc_compare_flow": "enc_compare",
    "enc_compare_flows": "enc_compare",
    "enc_sort": "enc_sort",
    "sec_worst": "sec_worst",
    "sec_worst_flow": "sec_worst",
    "sec_best": "sec_best",
    "sec_best_flow": "sec_best",
    "sec_dedup": "sec_dedup",
    "sec_dup_elim": "sec_dup_elim",
    "sec_update": "sec_update",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Package(types.ModuleType):
    """Importing ``repro.protocols.enc_sort`` binds the module here under
    its own name, which is also its function's: the function keeps it."""

    def __setattr__(self, name, value):
        if isinstance(value, types.ModuleType) and _LAZY.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
