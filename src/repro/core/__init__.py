"""Operative layer of the Systolic Ring: Dnodes, switches, ring fabric.

The public surface re-exported here is what examples and kernels use to
build and run a fabric:

* :class:`~repro.core.isa.MicroWord` / :mod:`repro.core.isa` — the Dnode
  microinstruction set (opcodes, operand sources, binary encoding).
* :class:`~repro.core.dnode.Dnode` — the reconfigurable datapath cell.
* :class:`~repro.core.switch.Switch` — inter-layer interconnect with
  feedback pipelines.
* :class:`~repro.core.ring.Ring` — the full fabric plus clock engine.
"""

from repro.core.isa import (
    Flag,
    MicroWord,
    Opcode,
    Source,
    Dest,
    encode,
    decode,
)
from repro.core.alu import execute_op
from repro.core.regfile import RegisterFile
from repro.core.local_controller import LocalController
from repro.core.dnode import Dnode, DnodeMode
from repro.core.switch import PortSource, Switch, SwitchConfig
from repro.core.config_memory import ConfigMemory, ConfigPlane
from repro.core.address_map import AddressMap
from repro.core.snapshot import RingSnapshot, capture, restore
from repro.core.ring import Ring, RingGeometry
from repro.core.batchpath import BatchRing

__all__ = [
    "Flag",
    "MicroWord",
    "Opcode",
    "Source",
    "Dest",
    "encode",
    "decode",
    "execute_op",
    "RegisterFile",
    "LocalController",
    "Dnode",
    "DnodeMode",
    "PortSource",
    "Switch",
    "SwitchConfig",
    "ConfigMemory",
    "ConfigPlane",
    "AddressMap",
    "RingSnapshot",
    "capture",
    "restore",
    "Ring",
    "RingGeometry",
    "BatchRing",
]
