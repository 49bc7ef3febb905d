"""Golden outputs: fixed-seed ``macsim sim``, ``scenario``, ``markov`` and
``ftable`` runs hash to recorded digests.

Each case writes one small config, runs the command on it and hashes every
file the command wrote (per-slot traces, event logs, metrics rows, scenario
rows and summaries, and the config echo).  The ``sim`` digests were recorded
from the slot engine that stepped every station through every slot, and the
scenario digests from the scenario layer that wrote one summary loop per
family, so any change that moves a single slot, event, delay, metric cell or
summary cell fails here.  The ``markov`` digest pins every printed chain
value to the bit, and the ``ftable`` digest the horizon and its bootstrap
bounds.  A change that means to alter outputs re-records
them and says why.
"""

import hashlib

import pytest

from macsim.cli import main
from macsim.scenarios import SCENARIOS

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
    # N > C: once no slot is idle the zc stations stay put, window after window
    "zc_frozen": "protocol = zc\nn = 20\nc = 16\nhorizon_slots = 6000\nseed = 27\n",
    # settled windows run 64 or more windows between errors, and the error
    # draws cross many blocks of read-ahead values
    "lzc_rare_errors": (
        "protocol = lzc\nn = 14\nc = 16\ngamma = 0.5\nerror_rate = 0.001\n"
        "horizon_slots = 40000\nseed = 28\n"
    ),
    # a station redraws more than 1,024 slots or counters in one run
    "lbeb_long": "protocol = lbeb\nn = 20\nc = 16\nhorizon_slots = 30000\nseed = 29\n",
    "dcf_long": "protocol = dcf\nn = 4\nc = 16\nhorizon_slots = 30000\nseed = 30\n",
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
    "dcf_long": (
        "0e9181d470549198f3da5104e0a2ec78ae0c6ecbebc46aaf92b89da0e3b5b070"
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
    "lbeb_long": (
        "9e662764ea86f90c10d5fd684eb7f721f850b536cd62af3fe0d515e9beb4fc4a"
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
    "lzc_rare_errors": (
        "102c87611efa02b4f6e18e96edc0edb4c37da3a4cb359ad2164850a91c2175bc"
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
    "zc_frozen": (
        "7a07517127b08ea7986ccc7f306effa94447d908fb6d81b857035e874ae6e6d1"
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


#: One small config per scenario kind, run with ``--reps 2``.
SCENARIO_CASES = {
    "converge-sweep": (
        "protocol = lzc\nn = 4\nc = 6\nsweep = gamma\nsweep_values = 0.3,0.6\nseed = 31\n"
    ),
    "throughput-vs-n": (
        "protocol = lmac\nn = 4\nc = 8\nn_values = 4,8\nhorizon_slots = 400\nseed = 32\n"
    ),
    "delay-vs-n": (
        "protocol = lmac\nn = 4\nc = 8\nlambda_pps = 300\nn_values = 4\n"
        "horizon_slots = 800\nseed = 33\n"
    ),
    "error-robustness": (
        "protocol = lmac\nn = 6\nc = 8\nn_values = 6\nerror_rates = 0.1\n"
        "horizon_slots = 400\nseed = 34\n"
    ),
    "new-entrants": (
        "protocol = lmac\nn = 4\nc = 8\nk_values = 2\nhorizon_slots = 3000\nseed = 35\n"
    ),
    "coexist": (
        "protocol = lzc\nn = 4\nc = 8\nk_values = 2,3\nhorizon_slots = 500\nseed = 36\n"
    ),
}

SCENARIO_GOLDEN = {
    "coexist": (
        "220f95b3a755d30d461f0177acdc5874d82ce40f0ad61fd231d012d3b4955832"
    ),
    "converge-sweep": (
        "c36a7bf043225e7562c0d181947e9b0e78fb3d792ddfd64abcbeff9b1bcd2921"
    ),
    "delay-vs-n": (
        "b18d6b57a0da71b75fed49c77a77a430815cf9fe63f399bebe5ebc462c380861"
    ),
    "error-robustness": (
        "8aa96a5cc87065d9afe1b31e566b91d627b6571db863635651a34e454f197d92"
    ),
    "new-entrants": (
        "a4a62e1f1d079a0dd2a1255bb37a3c45df28639bae8c8f9813cd4b7bcdeb49ab"
    ),
    "throughput-vs-n": (
        "9b03616ea7df0e4284f90a666f24a6ff0fb2cf2eaa83ccdc6e4dca8d1c1a5a2d"
    ),
}

#: ``reproduce-all --keys jain_fairness --reps 4`` on this seed leaves two of
#: the 30 (beta, m) summary groups without a value: every beta = 0.99 run
#: converges before it makes 9 * 16 successes, so m = 9 and 10 are empty.
JAIN_SEED = 37997357235
JAIN_GOLDEN = "823fcfa48eab0686b728c7f10b0f49571a5b5c76a45222ab5ba631fd32a18c8f"


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_scenario_output_matches_golden_digest(tmp_path, kind):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SCENARIO_CASES[kind])
    out = tmp_path / "out"
    assert main(["scenario", kind, "--config", str(cfg), "--reps", "2",
                 "--out", str(out)]) == 0
    assert _digest(out) == SCENARIO_GOLDEN[kind]


def test_jain_summary_without_empty_groups_matches_golden_digest(tmp_path):
    assert main(["reproduce-all", "--keys", "jain_fairness", "--reps", "4",
                 "--seed", str(JAIN_SEED), "--out", str(tmp_path)]) == 0
    summary = (tmp_path / "jain_fairness_summary.csv").read_text().splitlines()
    assert len(summary) - 1 == 28
    assert _digest(tmp_path) == JAIN_GOLDEN


#: Fixed-input ``markov`` and ``ftable`` commands; each writes one CSV.
COMMAND_CASES = {
    "markov": ["markov", "--c", "16", "--n", "14", "--gamma", "0.1:0.9:0.1"],
    "ftable": ["ftable", "--schedule-lengths", "8", "--reps", "1000", "--seed", "1"],
}

COMMAND_GOLDEN = {
    "ftable": (
        "a1e6666b63564ff28d79e3cad78804213927d9f60188e24e22ad949a3c92cb12"
    ),
    "markov": (
        "14538bae7a4533b285367790e2ee71a20ccea0f4e63fdb6a36f44a7a7ef0c646"
    ),
}


@pytest.mark.parametrize("name", sorted(COMMAND_CASES))
def test_command_output_matches_golden_digest(tmp_path, name):
    assert main([*COMMAND_CASES[name], "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert _digest(tmp_path) == COMMAND_GOLDEN[name]
