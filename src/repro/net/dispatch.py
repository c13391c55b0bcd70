"""The S2-side message dispatcher.

This is the *only* place where protocol messages meet the
:class:`~repro.protocols.base.CryptoCloud`: the dispatcher maps each
typed request from :mod:`repro.net.messages` onto the crypto cloud's
primitive operations or onto the bulk S2-side protocol functions that
live next to their S1 counterparts in :mod:`repro.protocols`.

Every decrypt handler services its message through the cloud's *batch*
primitives (backed by :mod:`repro.crypto.backend`) rather than per-item
loops — a coalesced round's worth of decryptions is one batch here, a
message's :class:`~repro.crypto.vector.CtVector` buffer handed to the
kernel as it is.

S1-side protocol code never references the crypto cloud directly — it
only ever submits messages through a transport that ends here.
"""

from __future__ import annotations

from repro.exceptions import ProtocolError
from repro.net import messages as m


class S2Dispatcher:
    """Service loop body for one crypto cloud."""

    def __init__(self, cloud):
        self.cloud = cloud

    def dispatch(self, msg):
        """Service one request message and return its reply."""
        handler = self._HANDLERS.get(type(msg))
        if handler is None:
            raise ProtocolError(f"S2 cannot service {type(msg).__name__}")
        return handler(self, msg)

    # -- primitive crypto-cloud operations -------------------------------

    def _test_zero_batch(self, msg: m.ZeroTestBatch):
        return self.cloud.test_zero_batch(msg.cts, msg.protocol)

    def _strip_layer_batch(self, msg: m.StripLayerBatch):
        return self.cloud.strip_layer_batch(msg.cts, msg.protocol)

    def _blinded_select(self, msg: m.BlindedSelect):
        return self.cloud.blinded_select(
            msg.cts, msg.values, msg.groups, msg.bit_mode, msg.protocol
        )

    def _blinded_sign(self, msg: m.BlindedSign):
        return self.cloud.blinded_sign(msg.ct, msg.protocol)

    def _decrypt_masked_bit(self, msg: m.DecryptMaskedBit):
        return self.cloud.decrypt_masked_bit(msg.ct, msg.protocol)

    def _dgk_decompose(self, msg: m.DgkDecompose):
        return self.cloud.dgk_decompose(msg.ct, msg.ell, msg.protocol)

    def _dgk_any_zero(self, msg: m.DgkAnyZero):
        return self.cloud.dgk_any_zero(msg.cts, msg.protocol)

    def _square_blinded(self, msg: m.SquareBlinded):
        return self.cloud.square_blinded(msg.ct, msg.protocol)

    def _record_shipment(self, msg: m.RecordShipment):
        return None

    # -- bulk S2 protocol sides (imported lazily: the protocol modules
    #    import the transport machinery themselves) ----------------------

    def _sort_affine(self, msg: m.SortAffine):
        from repro.protocols.enc_sort import s2_sort_affine

        return s2_sort_affine(
            self.cloud,
            msg.own_public,
            msg.keys,
            msg.items,
            msg.companions,
            msg.descending,
            msg.protocol,
        )

    def _sort_gates(self, msg: m.SortGateBatch):
        from repro.protocols.enc_sort import s2_gates

        # One batched decrypt for the whole gate layer.
        return s2_gates(
            self.cloud, msg.own_public, msg.gates, msg.descending, msg.protocol
        )

    def _dedup(self, msg: m.DedupBatch):
        from repro.protocols.sec_dedup import s2_dedup

        return s2_dedup(
            self.cloud,
            msg.own_public,
            msg.matrix,
            msg.items,
            msg.companions,
            msg.ranks,
            sentinel=msg.sentinel,
            eliminate=msg.eliminate,
            protocol=msg.protocol,
        )

    def _dedup_sort(self, msg: m.DedupSort):
        from repro.protocols.sec_dedup import s2_dedup_sort

        return s2_dedup_sort(
            self.cloud,
            msg.own_public,
            msg.counts,
            msg.items,
            msg.keys,
            msg.companions,
            msg.ranks,
            sentinel=msg.sentinel,
            eliminate=msg.eliminate,
            protocol=msg.protocol,
        )

    def _filter(self, msg: m.FilterBatch):
        from repro.protocols.sec_filter import s2_filter

        return s2_filter(
            self.cloud, msg.own_public, msg.tuples, msg.material, msg.protocol
        )

    _HANDLERS = {
        m.ZeroTestBatch: _test_zero_batch,
        m.StripLayerBatch: _strip_layer_batch,
        m.BlindedSelect: _blinded_select,
        m.BlindedSign: _blinded_sign,
        m.DecryptMaskedBit: _decrypt_masked_bit,
        m.DgkDecompose: _dgk_decompose,
        m.DgkAnyZero: _dgk_any_zero,
        m.SquareBlinded: _square_blinded,
        m.RecordShipment: _record_shipment,
        m.SortAffine: _sort_affine,
        m.SortGateBatch: _sort_gates,
        m.DedupBatch: _dedup,
        m.DedupSort: _dedup_sort,
        m.FilterBatch: _filter,
    }
