"""QuMA core: the paper's control microarchitecture (Section 5).

The machine is assembled from the same units as Figure 4/7:

* execution controller (classical pipeline + register file)
* physical microcode unit with the Q control store
* quantum microinstruction buffer (QMB)
* timing control unit (timing queue + event queues + timing controller)
* micro-operation units (one per AWG channel)
* analog-digital interface: CTPGs, digital-output/measurement path, MDUs,
  and the data collection unit
"""

from repro.core.config import MachineConfig
from repro.core.register_file import RegisterFile
from repro.core.events import PulseEvent, MpgEvent, MdEvent, TimePoint
from repro.core.micro_op import MicroOperationUnit
from repro.core.timing import EventQueue, TimingControlUnit
from repro.core.qmb import QuantumMicroinstructionBuffer
from repro.core.microcode import PhysicalMicrocodeUnit, QControlStore
from repro.core.execution_controller import ExecutionController
from repro.core.quma import QuMA
from repro.core.replay import ReplayPlan, ReplayReport, run_with_replay

__all__ = [
    "ReplayPlan",
    "ReplayReport",
    "run_with_replay",
    "MachineConfig",
    "RegisterFile",
    "PulseEvent",
    "MpgEvent",
    "MdEvent",
    "TimePoint",
    "MicroOperationUnit",
    "EventQueue",
    "TimingControlUnit",
    "QuantumMicroinstructionBuffer",
    "PhysicalMicrocodeUnit",
    "QControlStore",
    "ExecutionController",
    "QuMA",
]
