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
"""

from repro.protocols.base import CryptoCloud, S1Context
from repro.protocols.recover_enc import (
    recover_enc_batch,
    recover_enc_flow,
    select_recover_batch,
    select_recover_flow,
)
from repro.protocols.enc_compare import enc_compare, enc_compare_flow, enc_compare_flows
from repro.protocols.enc_sort import enc_sort
from repro.protocols.sec_worst import sec_worst, sec_worst_flow
from repro.protocols.sec_best import sec_best, sec_best_flow
from repro.protocols.sec_dedup import sec_dedup
from repro.protocols.sec_dup_elim import sec_dup_elim
from repro.protocols.sec_update import sec_update

__all__ = [
    "CryptoCloud",
    "S1Context",
    "recover_enc_batch",
    "recover_enc_flow",
    "select_recover_batch",
    "select_recover_flow",
    "enc_compare",
    "enc_compare_flow",
    "enc_compare_flows",
    "enc_sort",
    "sec_worst",
    "sec_worst_flow",
    "sec_best",
    "sec_best_flow",
    "sec_dedup",
    "sec_dup_elim",
    "sec_update",
]
