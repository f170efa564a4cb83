"""Every protocol opcode maps to a fixed fabric transport class.

The transport class sizes a message on the wire, so a changed mapping
changes every simulated result; these tables pin it opcode by opcode.
"""

import pytest

from repro.ai.messages import AiMessage, AiOp
from repro.coherence.messages import ChiMessage, ChiOp
from repro.fabric.message import MessageKind

REQ, SNP, RSP, DAT = (MessageKind.REQUEST, MessageKind.SNOOP,
                      MessageKind.RESPONSE, MessageKind.DATA)

AI_KINDS = {
    AiOp.READ_REQ: REQ,
    AiOp.READ_FWD: REQ,
    AiOp.READ_DATA: DAT,
    AiOp.FILL_REQ: REQ,
    AiOp.FILL_DATA: DAT,
    AiOp.WRITE_DATA: DAT,
    AiOp.WRITE_ACK: RSP,
    AiOp.WRITE_NOTIFY: REQ,
    AiOp.DMA_REQ: REQ,
    AiOp.DMA_DATA: DAT,
    AiOp.DMA_ACK: RSP,
}

CHI_KINDS = {
    ChiOp.READ_SHARED: REQ,
    ChiOp.READ_UNIQUE: REQ,
    ChiOp.CLEAN_UNIQUE: REQ,
    ChiOp.WRITEBACK: DAT,
    ChiOp.READ_NO_SNP: REQ,
    ChiOp.WRITE_NO_SNP: DAT,
    ChiOp.SNP_SHARED: SNP,
    ChiOp.SNP_UNIQUE: SNP,
    ChiOp.COMP: RSP,
    ChiOp.SNP_RESP: RSP,
    ChiOp.COMP_ACK: RSP,
    ChiOp.COMP_DATA: DAT,
    ChiOp.SNP_RESP_DATA: DAT,
}


def test_tables_cover_every_opcode():
    assert set(AI_KINDS) == set(AiOp)
    assert set(CHI_KINDS) == set(ChiOp)


@pytest.mark.parametrize("op", list(AiOp), ids=lambda op: op.name)
def test_ai_opcode_kind(op):
    assert op.message_kind is AI_KINDS[op]
    message = AiMessage(op, addr=0, txn_id=1, requester=0)
    assert message.transport_kind is AI_KINDS[op]


@pytest.mark.parametrize("op", list(ChiOp), ids=lambda op: op.name)
def test_chi_opcode_kind(op):
    assert op.message_kind is CHI_KINDS[op]
    assert op.is_request == (CHI_KINDS[op] is REQ)
    message = ChiMessage(op, addr=0, txn_id=1, requester=0)
    assert message.transport_kind is CHI_KINDS[op]
