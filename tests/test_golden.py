"""Golden outputs: fixed-seed ``macsim sim`` runs hash to recorded digests.

Each case writes one small config, runs ``macsim sim`` on it and hashes every
file the command wrote (per-slot traces, event logs, metrics rows and the
config echo).  The digests were recorded from the slot engine that stepped
every station through every slot, so any change to the engine that moves a
single slot, event, delay or metric cell fails here.  A change that means to
alter outputs re-records them and says why.
"""

import hashlib

import pytest

from macsim.cli import main

CASES = {
    "lbeb": "protocol = lbeb\nn = 6\nc = 8\nhorizon_slots = 600\nseed = 11\n",
    "zc": "protocol = zc\nn = 6\nc = 8\nhorizon_slots = 600\nseed = 12\n",
    "lzc": "protocol = lzc\nn = 7\nc = 8\ngamma = 0.4\nhorizon_slots = 800\nseed = 13\n",
    "lmac": "protocol = lmac\nn = 8\nc = 8\nhorizon_slots = 1000\nseed = 14\n",
    "dcf": "protocol = dcf\nn = 5\nc = 16\nhorizon_slots = 1500\nseed = 15\n",
    "errors": (
        "protocol = lmac\nn = 6\nc = 8\nerror_rate = 0.1\nhorizon_slots = 800\n"
        "seed = 16\n"
    ),
    "alzc": (
        "protocol = lzc\nn = 10\nb = 4\nadaptation = alzc\nhorizon_slots = 1500\n"
        "seed = 17\n"
    ),
    "almac": (
        "protocol = lmac\nn = 20\nb = 16\nadaptation = almac\nprobe_period = 1\n"
        "horizon_slots = 4000\nseed = 18\n"
    ),
    "coexist": (
        "protocol = lmac\nn = 8\nc = 8\ncoexist_k = 3\ncoexist_protocol = dcf\n"
        "horizon_slots = 1200\nseed = 19\n"
    ),
    "poisson_overflow": (
        "protocol = lmac\nn = 3\nc = 8\ntraffic = poisson\nlambda_pps = 3000\n"
        "buffer = 3\nhorizon_slots = 1500\nseed = 20\n"
    ),
    "dcf_poisson_timed_join": (
        "protocol = dcf\nn = 4\ntraffic = poisson\nlambda_pps = 100\njoin_n = 2\n"
        "join_when = 0.03\nhorizon_slots = 6000\nseed = 21\n"
    ),
    "lzc_poisson_join_converged_seconds": (
        "protocol = lzc\nn = 3\nc = 8\ngamma = 0.5\ntraffic = poisson\n"
        "lambda_pps = 500\nbuffer = 3\njoin_n = 2\nhorizon_seconds = 0.15\n"
        "seed = 22\n"
    ),
    "lmac_join_converged": (
        "protocol = lmac\nn = 4\nc = 8\njoin_n = 2\nhorizon_slots = 1500\nseed = 23\n"
    ),
    "lzc_timed_join": (
        "protocol = lzc\nn = 3\nc = 8\ngamma = 0.5\njoin_n = 2\njoin_when = 0.01\n"
        "horizon_slots = 800\nseed = 24\n"
    ),
    "horizon_seconds": (
        "protocol = zc\nn = 4\nc = 8\nhorizon_seconds = 0.05\nseed = 25\n"
    ),
    "horizon_schedules": (
        "protocol = lmac\nn = 5\nc = 8\nhorizon_schedules = 60\nseed = 26\n"
    ),
}

GOLDEN = {
    "almac": (
        "272ca57348067a0bc9772773a46e165d2f7458fbbea3a427a5d70eedea989909"
    ),
    "alzc": (
        "4183d6f9012e7292f6e4522571bc7f49e8d5c5de6846a240ede247339c262900"
    ),
    "coexist": (
        "285dc2f9c5c5a87e4b838b33ac61808c24134e797d6acb1d5cd9aeadac80de4f"
    ),
    "dcf": (
        "b8daf03f3b36c4096e939b03ab98f06cfabd4362535f252cf862c10567e12001"
    ),
    "dcf_poisson_timed_join": (
        "813745fe0bf2aeec3bd99fb634796a9e47327a6c4ac234f1fdcb7fc50f329f90"
    ),
    "errors": (
        "ddf7582fe2c71d9423c1c63695f871d98d2cf494a127267ee601be639344be44"
    ),
    "horizon_schedules": (
        "0c4cb51e0abd548ad8dd044e9023b1c0a1a90ea6ec188617510f3ab906bd1339"
    ),
    "horizon_seconds": (
        "c41ff82e6071ef914635564212dea68c8a352ac3275268d67e35650a3143e994"
    ),
    "lbeb": (
        "1f4c975c6c5e49d031050b55f561f174092ab6ecfd409811715f06f6be818cf2"
    ),
    "lmac": (
        "2198bf901de490d6a64a4f59f4221ab03595dbcc9300ae0dc4180ef94342a25c"
    ),
    "lmac_join_converged": (
        "6c7ac884d4ad13488accc9c484a12edc02ee3c21b16bf2d8386c9ef53f3717c9"
    ),
    "lzc": (
        "2fabe4384afe1d9edaceefacd4c6103ebf793ea994a77ba023d0048c92ccccb5"
    ),
    "lzc_poisson_join_converged_seconds": (
        "7c592ce861c1ae372b60eda3348d026fc8f6ff68288383a6ae86175643ef6d2a"
    ),
    "lzc_timed_join": (
        "7bf104b1c037b3cc6d51727018a040ec27178e095d48d37f774c849efe7f0ae9"
    ),
    "poisson_overflow": (
        "cf70482c738022e5de41464b6a87daa8345b77f424a495463798c7e57cb894ed"
    ),
    "zc": (
        "fa0dae035e006c25a68569ce0c3f74d627a8da7370b421350bc45a25e78021ae"
    ),
}


def _digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_case(tmp_path, name: str) -> str:
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(CASES[name])
    out = tmp_path / name
    assert main(["sim", "--config", str(cfg), "--reps", "2", "--out", str(out)]) == 0
    return _digest(out)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sim_output_matches_golden_digest(tmp_path, name):
    assert run_case(tmp_path, name) == GOLDEN[name]
