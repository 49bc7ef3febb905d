"""MAC/PHY timing model: slot kinds and slot durations for an 802.11b-like channel.

Time on the medium is divided into MAC slots.  A slot is either idle (one
fixed idle-slot time), a successful transmission (DIFS + idle slot + frame
header + payload + SIFS + ACK, repeated per packet when several packets are
sent back to back), or a failed transmission, i.e. a collision or a frame
error (no ACK, the medium recovers after a second DIFS).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import ClassVar


class SlotKind(IntEnum):
    """What happened on the medium during one MAC slot."""

    IDLE = 0
    SUCCESS = 1
    COLLISION = 2
    ERROR = 3


@dataclass(frozen=True)
class PhyParams:
    """Channel timing for one payload size on the paper's 802.11b channel.

    Rates are bits per second, header/payload sizes bytes, times microseconds.
    The rates, headers and interframe times are the fixed 11 Mbps 802.11b
    constants; only the payload varies: 1020 bytes in the analytic table,
    1000 in the simulation experiments.
    """

    data_rate: ClassVar[float] = 11e6
    basic_rate: ClassVar[float] = 11e6
    phy_header_bytes: ClassVar[int] = 24
    mac_header_bytes: ClassVar[int] = 32
    sifs_us: ClassVar[float] = 10.0
    difs_us: ClassVar[float] = 50.0
    sigma_us: ClassVar[float] = 20.0

    payload_bytes: int = 1020

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")

    def _us(self, bits: float, rate: float) -> float:
        return bits / rate * 1e6

    @property
    def header_us(self) -> float:
        """MAC header at the data rate plus PHY header at the basic rate."""
        return self._us(self.mac_header_bytes * 8, self.data_rate) + self._us(
            self.phy_header_bytes * 8, self.basic_rate
        )

    @property
    def ack_us(self) -> float:
        """ACK frame: MAC header plus a 14-byte body, both at the data rate."""
        return self._us(self.mac_header_bytes * 8, self.data_rate) + self._us(
            14 * 8, self.data_rate
        )

    @property
    def payload_us(self) -> float:
        """Airtime of the payload alone (E_p)."""
        return self._us(self.payload_bytes * 8, self.data_rate)

    @property
    def t_success(self) -> float:
        """Duration of a single-packet successful slot (T_S)."""
        return self.success_duration(1)

    @property
    def t_collision(self) -> float:
        """Duration of a collision or frame-error slot (T_C)."""
        return (
            self.difs_us
            + self.sigma_us
            + self.header_us
            + self.payload_us
            + self.difs_us
        )

    def success_duration(self, packets: int = 1) -> float:
        """Duration of a successful slot carrying ``packets`` packet/ACK pairs.

        Consecutive pairs are separated by a SIFS, so observers never see the
        medium go idle inside the slot.  Reduces to ``t_success`` at one packet.
        """
        if packets < 1:
            raise ValueError("a successful slot carries at least one packet")
        per_packet = self.header_us + self.payload_us + self.sifs_us + self.ack_us
        return self.difs_us + self.sigma_us + packets * per_packet


#: Analytic-model parameter set (1020-byte payload).
TABLE_PHY = PhyParams()

#: Parameter set used by the simulation experiments (1000-byte payload).
EXPERIMENT_PHY = PhyParams(payload_bytes=1000)

