"""Message vocabulary of the AI processor's traffic (Figure 8B paths)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.fabric.message import MessageKind


class AiOp(Enum):
    """Operations on the AI fabric.

    Read path (Figure 8B paths 1-3): READ_REQ core->LLC, READ_FWD
    LLC->L2, READ_DATA L2->core.  Miss path (path 4): FILL_REQ LLC->HBM,
    FILL_DATA HBM->L2 (then READ_DATA to the core).  Write path:
    WRITE_DATA core->L2, WRITE_ACK L2->core, plus WRITE_NOTIFY L2->LLC
    keeping the directory current (the LLC processes every data
    request).  DMA: DMA_REQ engine->L2 or ->HBM, DMA_DATA L2->HBM or
    HBM->L2.
    """

    READ_REQ = "ReadReq"
    READ_FWD = "ReadFwd"
    READ_DATA = "ReadData"
    FILL_REQ = "FillReq"
    FILL_DATA = "FillData"
    WRITE_DATA = "WriteData"
    WRITE_ACK = "WriteAck"
    WRITE_NOTIFY = "WriteNotify"
    DMA_REQ = "DmaReq"
    DMA_DATA = "DmaData"
    DMA_ACK = "DmaAck"

    @property
    def message_kind(self) -> MessageKind:
        return _AI_MESSAGE_KIND[self]


#: Transport class of every opcode, looked up on every message built.
_AI_MESSAGE_KIND = {
    AiOp.READ_REQ: MessageKind.REQUEST,
    AiOp.READ_FWD: MessageKind.REQUEST,
    AiOp.READ_DATA: MessageKind.DATA,
    AiOp.FILL_REQ: MessageKind.REQUEST,
    AiOp.FILL_DATA: MessageKind.DATA,
    AiOp.WRITE_DATA: MessageKind.DATA,
    AiOp.WRITE_ACK: MessageKind.RESPONSE,
    AiOp.WRITE_NOTIFY: MessageKind.REQUEST,
    AiOp.DMA_REQ: MessageKind.REQUEST,
    AiOp.DMA_DATA: MessageKind.DATA,
    AiOp.DMA_ACK: MessageKind.RESPONSE,
}


_txn_ids = itertools.count(1)


def next_ai_txn() -> int:
    return next(_txn_ids)


@dataclass
class AiMessage:
    """Payload carried inside a fabric Message on the AI fabric."""

    op: AiOp
    addr: int
    txn_id: int
    requester: int
    #: For DMA: the final data destination (HBM node or L2 node).
    target: Optional[int] = None
    #: Burst size of DATA messages (AI traffic moves multi-line bursts).
    data_bytes: Optional[int] = None

    @property
    def transport_kind(self) -> MessageKind:
        return self.op.message_kind
