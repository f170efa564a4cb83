"""CHI-lite opcodes and the protocol-level message payload."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.fabric.message import MessageKind


class ChiOp(Enum):
    """The CHI subset used by the reproduction.

    Requests (RN -> HN):
        READ_SHARED / READ_UNIQUE: coherent load / store-intent miss.
        CLEAN_UNIQUE: upgrade S -> M without data transfer.
        WRITEBACK: copy-back of a dirty line.
        READ_NO_SNP / WRITE_NO_SNP: non-coherent access (cache-disabled
            latency experiments, DMA).

    Snoops (HN -> RN):
        SNP_SHARED: downgrade owner to S, forward data.
        SNP_UNIQUE: invalidate, forward data if dirty.

    Responses:
        COMP: completion without data.
        SNP_RESP: snoop response without data (carries found-state).
        COMP_ACK: requester's acknowledgement, closes the transaction.

    Data:
        COMP_DATA: data to the requester (from HN, owner-DCT, or SN-DMT).
        SNP_RESP_DATA: snoop response carrying dirty/clean data to HN.

    WRITEBACK and WRITE_NO_SNP carry their line payload in the same flit:
    Section 3.4.3 sets the transaction granularity at one cache line per
    flit, so a write transaction is a single data-class flit rather than
    CHI's separate REQ + DAT pair.
    """

    READ_SHARED = "ReadShared"
    READ_UNIQUE = "ReadUnique"
    CLEAN_UNIQUE = "CleanUnique"
    WRITEBACK = "WriteBack"
    READ_NO_SNP = "ReadNoSnp"
    WRITE_NO_SNP = "WriteNoSnp"
    SNP_SHARED = "SnpShared"
    SNP_UNIQUE = "SnpUnique"
    COMP = "Comp"
    SNP_RESP = "SnpResp"
    COMP_ACK = "CompAck"
    COMP_DATA = "CompData"
    SNP_RESP_DATA = "SnpRespData"

    @property
    def message_kind(self) -> MessageKind:
        """Transport class: data opcodes ride full-line DATA flits."""
        return _CHI_MESSAGE_KIND[self]

    @property
    def is_request(self) -> bool:
        return self.message_kind is MessageKind.REQUEST


#: Transport class of every opcode, looked up on every enqueue.
_CHI_MESSAGE_KIND = {
    ChiOp.READ_SHARED: MessageKind.REQUEST,
    ChiOp.READ_UNIQUE: MessageKind.REQUEST,
    ChiOp.CLEAN_UNIQUE: MessageKind.REQUEST,
    ChiOp.WRITEBACK: MessageKind.DATA,
    ChiOp.READ_NO_SNP: MessageKind.REQUEST,
    ChiOp.WRITE_NO_SNP: MessageKind.DATA,
    ChiOp.SNP_SHARED: MessageKind.SNOOP,
    ChiOp.SNP_UNIQUE: MessageKind.SNOOP,
    ChiOp.COMP: MessageKind.RESPONSE,
    ChiOp.SNP_RESP: MessageKind.RESPONSE,
    ChiOp.COMP_ACK: MessageKind.RESPONSE,
    ChiOp.COMP_DATA: MessageKind.DATA,
    ChiOp.SNP_RESP_DATA: MessageKind.DATA,
}


_txn_ids = itertools.count(1)


def next_txn_id() -> int:
    return next(_txn_ids)


@dataclass
class ChiMessage:
    """Protocol payload carried inside a fabric Message.

    Attributes:
        op: opcode.
        addr: cache-line address (already line-aligned).
        txn_id: id of the transaction this message belongs to.
        requester: node id of the original requester (DCT/DMT target).
        value: functional data payload (a write version number) — lets
            property tests check that reads observe coherence order.
        snoop_found: for SNP_RESP*, the state the snooped cache held.
        exclusive: for COMP_DATA, grants E (no other sharers) vs S.
        dirty: data payload is newer than memory.
        forward_data: for snoops, whether the owner should DCT the line
            to ``requester``.
        posted: for writes to memory, suppress the completion response.
    """

    op: ChiOp
    addr: int
    txn_id: int
    requester: int
    value: Optional[int] = None
    snoop_found: Optional[str] = None
    exclusive: bool = False
    dirty: bool = False
    forward_data: bool = True
    posted: bool = False

    @property
    def transport_kind(self) -> MessageKind:
        """Fabric transport class (ProtocolAgent sizes flits with this)."""
        return self.op.message_kind
