"""AI-Processor system model (Section 4.3, Figure 8B).

The AI processor's NoC is a multi-ring mesh: AI cores ride the vertical
rings, the memory side (interleaved L2 slices, the LLC directory
front-end, HBM stacks, the system DMA) rides the horizontal rings, and
RBRG-L1s cross every intersection.  Any request changes ring at most
once (X-Y/Y-X routing).

Traffic follows Figure 8B's four paths: (1) AI core request to the LLC,
(2)+(3) data between L2 and the AI core, and (4) HBM refills into L2,
plus the system-DMA background that moves tensors between L2 and HBM.
"""

from repro.ai.messages import AiMessage, AiOp
from repro.ai.aicore import AiCore, AiCoreStats
from repro.ai.l2slice import L2Slice
from repro.ai.llc import LlcDirectory
from repro.ai.hbm import HbmStack
from repro.ai.dma import DmaEngine
from repro.ai.mesh_system import (
    REDUCED_AI_SIZING,
    AiProcessor,
    AiProcessorConfig,
)

__all__ = [
    "AiMessage",
    "AiOp",
    "AiCore",
    "AiCoreStats",
    "L2Slice",
    "LlcDirectory",
    "HbmStack",
    "DmaEngine",
    "AiProcessor",
    "AiProcessorConfig",
    "REDUCED_AI_SIZING",
]
