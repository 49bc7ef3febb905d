"""Slot timing: values derived by hand from the 11 Mbps parameter set."""

import pytest

from macsim.phy import EXPERIMENT_PHY, TABLE_PHY, PhyParams

# Hand arithmetic, 11 Mbps / 24+32 byte headers / 1020 byte payload:
#   header = (32*8 + 24*8) / 11 us = 448/11
#   ack    = (32*8 + 14*8) / 11 us = 368/11
#   E_p    = 1020*8 / 11 us       = 8160/11
#   T_S    = 50 + 20 + 448/11 + 8160/11 + 10 + 368/11 = 80 + 8976/11 = 896.0
#   T_C    = 50 + 20 + 448/11 + 8160/11 + 50 = 120 + 8608/11
HEADER_US = 448 / 11
ACK_US = 368 / 11
EP_US = 8160 / 11
TS_US = 896.0
TC_US = 120 + 8608 / 11


def test_reference_durations():
    phy = TABLE_PHY
    assert phy.sigma_us == 20.0
    assert phy.header_us == pytest.approx(HEADER_US, abs=1e-9)
    assert phy.ack_us == pytest.approx(ACK_US, abs=1e-9)
    assert phy.payload_us == pytest.approx(EP_US, abs=1e-9)
    assert phy.t_success == pytest.approx(TS_US, abs=1e-9)
    assert phy.t_collision == pytest.approx(TC_US, abs=1e-9)


def test_two_packet_success_duration():
    # 896 + (448 + 8160 + 368)/11 + 10 = 1722.0
    assert TABLE_PHY.success_duration(2) == pytest.approx(1722.0, abs=1e-9)


def test_multi_packet_duration_is_affine():
    phy = TABLE_PHY
    per = phy.header_us + phy.payload_us + phy.sifs_us + phy.ack_us
    for m in (1, 2, 4, 8):
        expect = phy.difs_us + phy.sigma_us + m * per
        assert phy.success_duration(m) == pytest.approx(expect, abs=1e-9)


def test_zero_packet_success_rejected():
    with pytest.raises(ValueError):
        TABLE_PHY.success_duration(0)


def test_duration_ordering():
    for phy in (TABLE_PHY, EXPERIMENT_PHY):
        assert phy.t_collision > phy.t_success > phy.sigma_us


def test_experiment_payload_values():
    phy = EXPERIMENT_PHY
    assert phy.payload_us == pytest.approx(8000 / 11, abs=1e-9)
    assert phy.t_success == pytest.approx(80 + 8816 / 11, abs=1e-9)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        PhyParams(data_rate=0)
    with pytest.raises(ValueError):
        PhyParams(payload_bytes=0)
    with pytest.raises(ValueError):
        PhyParams(sifs_us=-1)
