"""Schedule-length control: announced scheme, doubling/halving, probes, tables."""

import importlib.resources

import numpy as np
import pytest

from macsim.adaptation import (
    AlmacAdapter,
    AlzcAdapter,
    FEntry,
    FTable,
    ap_adapt,
    build_f_table,
    run_ap_announced,
    txop_packets,
)
from macsim.cli import main
from macsim.config import SimConfig
from macsim.phy import SlotKind
from macsim.runner import default_f_table, run_simulation


# --- announced scheme --------------------------------------------------------


def test_ap_adapt_rules():
    assert ap_adapt(16, 0) == 17
    assert ap_adapt(16, 2) == 15
    assert ap_adapt(16, 1) == 16
    assert ap_adapt(1, 3) == 1  # floor
    with pytest.raises(ValueError):
        ap_adapt(0, 0)
    with pytest.raises(ValueError):
        ap_adapt(4, -1)


@pytest.mark.parametrize("start_len", [5, 64])
def test_ap_announced_reaches_one_spare_slot(start_len):
    for seed in range(5):
        traj = run_ap_announced(10, start_len, 0.5, seed, max_schedules=3000)
        hit = None
        for i, c in enumerate(traj):
            if c == 11 and all(v == 11 for v in traj[i : i + 100]):
                hit = i
                break
        assert hit is not None, f"seed {seed} never settled at 11"


# --- goodput compensation ------------------------------------------------------


def test_txop_packets_values():
    assert txop_packets(16, 16) == 1
    assert txop_packets(32, 16) == 2
    assert txop_packets(64, 16) == 4
    with pytest.raises(ValueError):
        txop_packets(24, 16)
    with pytest.raises(ValueError):
        txop_packets(48, 16)


# --- per-station doubling and halving -------------------------------------------


#: Length ceiling for the adapters below: the base times 2**10, as c_max_exp = 10.
CAP = 16 * 2**10


def plan(ad, c, idle, coll=False, own=True, probed=False):
    """``ad``'s plan after a window at the committed length ``c`` (half of it
    when ``probed``) with ``idle`` idle slots."""
    return ad.plan_next(c, probed, idle, coll, own)


def test_alzc_doubles_when_full():
    ad = AlzcAdapter(16, CAP)
    assert plan(ad, 16, idle=0) == (32, False)


def test_alzc_halves_only_after_stable_busy_count():
    ad = AlzcAdapter(16, CAP)
    # one quiet window (16 busy) is not enough
    assert plan(ad, 32, idle=16) == (32, False)
    # a second with the same busy count triggers the halving
    assert plan(ad, 32, idle=16) == (16, False)


def test_alzc_halving_needs_equal_busy_counts():
    ad = AlzcAdapter(16, CAP)
    assert plan(ad, 32, idle=16) == (32, False)  # 16 busy
    assert plan(ad, 32, idle=17) == (32, False)  # 15 busy: still churning
    assert plan(ad, 32, idle=17) == (16, False)


def test_alzc_ignores_moderate_idle():
    ad = AlzcAdapter(16, CAP)
    assert plan(ad, 16, idle=4) == (16, False)
    assert plan(ad, 16, idle=4) == (16, False)


def test_alzc_floors_at_base():
    ad = AlzcAdapter(16, CAP)
    assert plan(ad, 16, idle=9) == (16, False)
    assert plan(ad, 16, idle=9) == (16, False)


def test_alzc_respects_cap():
    ad = AlzcAdapter(16, max_len=32)
    assert plan(ad, 16, idle=0) == (32, False)
    assert plan(ad, 32, idle=0) == (32, False)


def stub_table(f=3):
    return FTable({c: FEntry(c, f, f, f) for c in (16, 32, 64)})


def test_almac_checkpoint_doubles_on_collision():
    ad = AlmacAdapter(16, stub_table(f=3), 10, CAP)
    assert plan(ad, 16, idle=2, coll=True) == (16, False)
    assert plan(ad, 16, idle=2, coll=True) == (16, False)
    # third window is the checkpoint
    assert plan(ad, 16, idle=2, coll=True) == (32, False)


def test_almac_clean_checkpoints_lead_to_probe_and_commit():
    ad = AlmacAdapter(16, stub_table(f=1), 3, CAP)
    assert plan(ad, 32, idle=16) == (32, False)
    assert plan(ad, 32, idle=16) == (32, False)
    # third clean checkpoint: probe at half length
    nxt, probe = plan(ad, 32, idle=16)
    assert (nxt, probe) == (16, True)
    # own transmission survived the probe: commit
    assert plan(ad, 32, idle=1, own=True, probed=True) == (16, False)


def test_almac_probe_failure_reverts():
    ad = AlmacAdapter(16, stub_table(f=1), 1, CAP)
    nxt, probe = plan(ad, 32, idle=20)
    assert (nxt, probe) == (16, True)
    assert plan(ad, 32, idle=0, own=False, probed=True) == (32, False)


def test_almac_stops_doubling_at_table_edge():
    ad = AlmacAdapter(16, stub_table(f=1), 100, CAP)
    assert plan(ad, 64, idle=0, coll=True) == (64, False)


def test_almac_requires_covered_base():
    with pytest.raises(ValueError):
        AlmacAdapter(8, stub_table(), 10, CAP)


# --- convergence-horizon table ----------------------------------------------------


def test_f_table_roundtrip(tmp_path):
    table = stub_table()
    path = tmp_path / "f.csv"
    table.save_csv(path)
    loaded = FTable.load_csv(path)
    assert loaded.lookup(32) == 3
    assert loaded.covers(64) and not loaded.covers(128)
    with pytest.raises(KeyError):
        loaded.lookup(128)


F_TABLE_FAULTS = {
    "repeated_length": ("16,32,30,34\n32,65,60,68\n16,40,38,42\n", "more than one row"),
    "f_outside_bounds": ("16,32,30,34\n32,70,60,68\n", "outside"),
}


@pytest.mark.parametrize("fault", sorted(F_TABLE_FAULTS))
def test_f_table_rejects_a_faulty_row(tmp_path, capsys, fault):
    rows, message = F_TABLE_FAULTS[fault]
    path = tmp_path / "f.csv"
    path.write_text("schedule_len,f,ci_low,ci_high\n" + rows)
    with pytest.raises(ValueError, match=message):
        FTable.load_csv(path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol = lmac\nn = 4\nb = 16\nadaptation = almac\n"
                   f"f_table = {path}\nhorizon_slots = 200\n")
    assert main(["sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "f_table" in capsys.readouterr().err


def test_build_f_table_trivial_length():
    table = build_f_table([2], reps=1000, seed=3)
    assert table.lookup(2) == 1  # a single station never collides


def test_build_f_table_monotone_small(tmp_path):
    table = build_f_table([4, 8], reps=1000, seed=4)
    assert table.lookup(8) > table.lookup(4) >= 1
    entry = table.entries[0]
    assert entry.ci_low <= entry.schedules_needed <= entry.ci_high
    table.save_csv(tmp_path / "f.csv")
    assert FTable.load_csv(tmp_path / "f.csv").entries == table.entries


def test_build_f_table_rejects_thin_sampling():
    with pytest.raises(ValueError):
        build_f_table([4], reps=100)


def test_packaged_table_is_monotone():
    table = default_f_table()
    values = [table.lookup(c) for c in (16, 32, 64)]
    assert values[0] >= 1
    assert values == sorted(values)


def test_packaged_table_bytes_are_what_save_csv_writes(tmp_path):
    # LF line endings, like every CSV the package writes
    table = default_f_table()
    table.save_csv(tmp_path / "ftable.csv")
    packaged = importlib.resources.files("macsim.data") / "ftable_b16.csv"
    assert packaged.read_bytes() == (tmp_path / "ftable.csv").read_bytes()


# --- engine integration --------------------------------------------------------


def test_alzc_lengths_stay_powers_of_two():
    cfg = SimConfig(protocol="lzc", adaptation="alzc", b=8, c=None, n=12,
                    gamma=0.5, horizon_slots=6000, seed=60)
    res = run_simulation(cfg)
    for st in res.stations:
        assert st.window_len % 8 == 0
        ratio = st.window_len // 8
        assert ratio & (ratio - 1) == 0


def test_alzc_converges_beyond_base_capacity():
    cfg = SimConfig(protocol="lzc", adaptation="alzc", b=16, c=None, n=24,
                    gamma=0.5, horizon_slots=8000, seed=61)
    res = run_simulation(cfg)
    assert all(st.window_len == 32 for st in res.stations)
    tail = res.trace.kinds[-1000:]
    assert all(k != int(SlotKind.COLLISION) for k in tail)


def test_almac_adapts_and_clears_collisions():
    cfg = SimConfig(protocol="lmac", adaptation="almac", b=16, c=None, n=24,
                    horizon_slots=12000, seed=62)
    res = run_simulation(cfg)
    assert all(st.window_len >= 32 for st in res.stations)
    tail = res.trace.kinds[-800:]
    assert sum(1 for k in tail if k == int(SlotKind.COLLISION)) == 0


def test_runner_uses_f_table_from_config(tmp_path):
    path = tmp_path / "table.csv"
    FTable({8: FEntry(8, 4, 4, 4), 16: FEntry(16, 8, 8, 8)}).save_csv(path)
    cfg = SimConfig(protocol="lmac", adaptation="almac", b=8, c=None, n=6,
                    f_table=str(path), horizon_slots=2000, seed=64)
    res = run_simulation(cfg)
    assert all(st.window_len % 8 == 0 for st in res.stations)


def test_configured_f_table_loads_once_per_path(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    FTable({8: FEntry(8, 4, 4, 4), 16: FEntry(16, 8, 8, 8)}).save_csv(path)
    loads = []
    load_csv = FTable.load_csv.__func__

    def counting(cls, table_path):
        loads.append(table_path)
        return load_csv(cls, table_path)

    monkeypatch.setattr(FTable, "load_csv", classmethod(counting))
    cfg = SimConfig(protocol="lmac", adaptation="almac", b=8, c=None, n=6,
                    f_table=str(path), horizon_slots=200, seed=65)
    for rep in range(2):
        run_simulation(cfg, rep_index=rep)
    assert loads == [str(path)]


def test_txop_goodput_equalised_after_adaptation():
    cfg = SimConfig(protocol="lzc", adaptation="alzc", b=16, c=None, n=24,
                    gamma=0.5, horizon_slots=10000, seed=63)
    res = run_simulation(cfg)
    # count deliveries over the aligned tail: 10 full 32-slot frames
    tail_start = len(res.trace.kinds) - (len(res.trace.kinds) % 32) - 320
    per_station = {st.sid: 0 for st in res.stations}
    for i in range(tail_start, tail_start + 320):
        if res.trace.kinds[i] == int(SlotKind.SUCCESS):
            per_station[res.trace.tx_station[i]] += res.trace.packets[i]
    counts = list(per_station.values())
    assert max(counts) - min(counts) <= 2  # one frame boundary of slack
