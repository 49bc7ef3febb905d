"""Config parsing, validation diagnostics, defaults, seeding."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from macsim.adaptation import FEntry, FTable
from macsim.config import (
    PARSERS,
    ConfigError,
    SimConfig,
    auto_gamma,
    derive_seed,
    resolve,
    validate_config,
)
from macsim.protocols import Lmac, Lzc
from macsim.runner import run_simulation


def parse(text):
    return validate_config(text)


def diag_keys(err):
    return {d.key for d in err.value.diagnostics}


def test_minimal_config_with_defaults():
    cfg = parse("protocol = lmac\nn = 16\nc = 16\n")
    assert cfg.beta == 0.95  # documented default
    assert cfg.gamma is None
    assert cfg.horizon_slots == 20000
    assert cfg.traffic == "saturated"


def test_gamma_auto_resolution():
    cfg = parse("protocol = lzc\nn = 14\nc = 16\n")
    assert cfg.gamma == pytest.approx(0.25)
    cfg2 = parse("protocol = lzc\nn = 16\nc = 16\ngamma = auto\n")
    assert cfg2.gamma == pytest.approx(0.5)


def test_lzc_partner_stay_probability():
    text = "protocol = lmac\nn = 4\nc = 8\ncoexist_k = 2\ncoexist_protocol = lzc\n"
    assert parse(text).gamma == pytest.approx(auto_gamma(8, 4))
    assert parse(text + "gamma = 0.3\n").gamma == pytest.approx(0.3)
    with pytest.raises(ConfigError) as err:
        parse(text.replace("n = 4", "n = 12"))
    assert "gamma" in diag_keys(err)


def test_gamma_auto_rejected_when_overloaded():
    with pytest.raises(ConfigError) as err:
        parse("protocol = lzc\nn = 20\nc = 16\n")
    assert "gamma" in diag_keys(err)


def test_beta_out_of_range_rejected():
    with pytest.raises(ConfigError) as err:
        parse("protocol = lmac\nn = 4\nc = 8\nbeta = 1.2\n")
    diags = [d for d in err.value.diagnostics if d.key == "beta"]
    assert diags and "(0, 1)" in diags[0].constraint


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse("protocol = lmac\nn = 4\nc = 8\nwhatever = 3\n")
    assert "whatever" in diag_keys(err)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse("protocol = lmac\nn = 4\nn = 5\nc = 8\n")
    assert "n" in diag_keys(err)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse("protocol lmac\n")
    assert any("line 1" in d.key for d in err.value.diagnostics)


def test_poisson_needs_rate():
    with pytest.raises(ConfigError) as err:
        parse("protocol = lmac\nn = 4\nc = 8\ntraffic = poisson\n")
    assert "lambda_pps" in diag_keys(err)


def test_param_protocol_compatibility():
    with pytest.raises(ConfigError) as err:
        parse("protocol = lbeb\nn = 4\nc = 8\nbeta = 0.9\n")
    assert "beta" in diag_keys(err)
    with pytest.raises(ConfigError) as err:
        parse("protocol = lmac\nn = 4\nc = 8\ngamma = 0.5\n")
    assert "gamma" in diag_keys(err)
    with pytest.raises(ConfigError) as err:
        parse("protocol = lmac\nn = 4\nc = 8\nsweep = gamma\n")
    assert "sweep" in diag_keys(err)


def test_adaptive_needs_base_length():
    with pytest.raises(ConfigError) as err:
        parse("protocol = lmac\nn = 4\nadaptation = almac\n")
    assert "b" in diag_keys(err)
    with pytest.raises(ConfigError) as err:
        parse("protocol = lbeb\nn = 4\nb = 16\nadaptation = alzc\n")
    assert "adaptation" in diag_keys(err)


def test_comments_and_blanks_ignored():
    cfg = parse("# a comment\n\nprotocol = zc\nn = 3\nc = 8  # inline\n")
    assert cfg.protocol == "zc" and cfg.c == 8


def test_join_when_forms():
    cfg = parse("protocol = lmac\nn = 4\nc = 8\njoin_n = 2\njoin_when = 1.5\n")
    assert cfg.join_when == "1.5"
    with pytest.raises(ConfigError):
        parse("protocol = lmac\nn = 4\nc = 8\njoin_when = soon\n")
    # DCF never converges, so it can only join at a time
    for text in ("protocol = dcf\nn = 4\nc = 8\njoin_n = 2\n",
                 "protocol = lmac\nn = 4\nc = 8\ncoexist_k = 1\ncoexist_protocol = dcf\n"
                 "join_n = 2\n"):
        with pytest.raises(ConfigError, match="join_when"):
            parse(text)
    assert parse("protocol = dcf\nn = 4\nc = 8\njoin_n = 2\njoin_when = 0.5\n").join_n == 2


def test_list_values():
    cfg = parse("protocol = lzc\nn = 8\nc = 16\nsweep = gamma\n"
                "sweep_values = 0.25, 0.5, 0.75\nn_values = 8,16\n")
    assert cfg.sweep_values == (0.25, 0.5, 0.75)
    assert cfg.n_values == (8, 16)


def test_echo_and_hash_stability():
    cfg = parse("protocol = lmac\nn = 16\nc = 16\n")
    echo = cfg.echo()
    assert "beta = 0.95" in echo
    assert cfg.config_hash() == cfg.config_hash()
    other = parse("protocol = lmac\nn = 16\nc = 16\nseed = 2\n")
    assert cfg.config_hash() != other.config_hash()


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 0) == derive_seed(1, 0)
    assert derive_seed(1, 0) != derive_seed(1, 1)
    assert derive_seed(1, "channel") != derive_seed(1, 0)


def test_auto_gamma_values():
    assert auto_gamma(16, 16) == pytest.approx(0.5)
    assert auto_gamma(16, 14) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        auto_gamma(16, 17)


def test_schedule_len_property():
    fixed = SimConfig(protocol="lmac", n=4, c=8)
    assert fixed.schedule_len == 8
    adaptive = SimConfig(protocol="lmac", n=4, c=None, b=16, adaptation="almac")
    assert adaptive.schedule_len == 16


@pytest.mark.parametrize("text, key", [
    ("protocol = lmac\nn = 4\nc = 8\nhorizon_seconds = inf\n", "horizon_seconds"),
    ("protocol = lmac\nn = 4\nc = 8\ntraffic = poisson\nlambda_pps = inf\n", "lambda_pps"),
    ("protocol = lmac\nn = 4\nc = 8\ntraffic = poisson\nlambda_pps = 1e300\n", "lambda_pps"),
    ("protocol = lmac\nn = 4\nc = 8\ntraffic = poisson\nlambda_pps = 1000001\n", "lambda_pps"),
    ("protocol = lmac\nn = 4\nc = 8\ncoexist_k = 2\n", "coexist_protocol"),
    ("protocol = lmac\nn = 1\nc = 1\n", "c"),
    ("protocol = lmac\nn = 4\nb = 1\nadaptation = almac\n", "b"),
    ("protocol = lmac\nn = 4\nc = 8\nhorizon_seconds = 0\n", "horizon_seconds"),
    ("protocol = lmac\nn = 4\nc = 8\nsweep = beta\nsweep_values = 1.5\n", "sweep_values"),
    ("protocol = lmac\nn = 4\nc = 8\ncoexist_k = 6\ncoexist_protocol = dcf\n", "coexist_k"),
    ("protocol =\nn = 4\nc = 8\n", "protocol"),
    ("protocol = lmac\nn = 4\nc = 8\nerror_rate = nan\n", "error_rate"),
    ("protocol = lmac\nn = 4\nc = 8\nn_values = 0\n", "n_values"),
    ("protocol = lmac\nn = 4\nc = 8\nk_values = -1\n", "k_values"),
    ("protocol = lmac\nn = 4\nc = 8\njoin_n = 2\njoin_when = inf\n", "join_when"),
    ("protocol = lmac\nn = 4\nb = 16\nadaptation = almac\nf_table = missing-ftable.csv\n",
     "f_table"),
])
def test_bad_values_rejected_before_running(text, key):
    with pytest.raises(ConfigError) as err:
        parse(text)
    assert key in diag_keys(err)


@pytest.mark.parametrize("text, key", [
    # an almac config's table must cover its b
    ("protocol = lmac\nn = 4\nb = 16\nadaptation = almac\nf_table = {table}\n", "f_table"),
    # delay-vs-n's almac rows run at base length 16 whatever the config's own runs
    ("protocol = lmac\nn = 4\nc = 8\nf_table = {table}\n", "f_table"),
    # without f_table the packaged table (16, 32, 64) must cover b
    ("protocol = lmac\nn = 4\nb = 8\nadaptation = almac\n", "b"),
])
def test_f_table_must_cover_the_base_length(tmp_path, text, key):
    table = tmp_path / "b8.csv"
    FTable({8: FEntry(8, 4, 4, 4)}).save_csv(table)
    with pytest.raises(ConfigError) as err:
        parse(text.format(table=table))
    assert [d.key for d in err.value.diagnostics] == [key]
    assert parse(f"protocol = lmac\nn = 4\nb = 8\nadaptation = almac\nf_table = {table}\n")


@pytest.mark.parametrize("extra, fits", [
    ("n = 64\n", True),
    ("n = 65\n", False),
    ("n = 60\njoin_n = 5\n", False),  # joiners hold slots too
    ("n = 70\ncoexist_k = 6\ncoexist_protocol = dcf\n", True),  # DCF partners do not
    ("n = 70\ncoexist_k = 6\ncoexist_protocol = lbeb\n", False),
    ("n = 33\nc_max_exp = 1\n", False),  # b * 2**c_max_exp = 32 stops the doubling
    ("n = 32\nc_max_exp = 1\n", True),
])
def test_almac_schedule_stations_must_fit_the_longest_window(extra, fits):
    # the packaged table has rows 16, 32 and 64, so from b = 16 almac
    # reaches at most 64 slots
    text = "protocol = lmac\nb = 16\nadaptation = almac\n" + extra
    if fits:
        parse(text)
        return
    with pytest.raises(ConfigError) as err:
        parse(text)
    assert [d.key for d in err.value.diagnostics] == ["n"]


@pytest.mark.parametrize("rate", ["62.5", "4000", "1e6"])
def test_arrival_rates_up_to_one_per_microsecond_parse(rate):
    cfg = parse(f"protocol = lmac\nn = 4\nc = 8\ntraffic = poisson\nlambda_pps = {rate}\n")
    assert cfg.lambda_pps == float(rate)


def test_parsers_cover_exactly_the_config_fields():
    assert list(PARSERS) == [f.name for f in fields(SimConfig)]


VALUES = ["inf", "-inf", "nan", "-1", "0", "", "1", "2", "4", "16", "0.5", "1.5", "1e400",
          "auto", "converged", "lmac", "lzc", "zc", "dcf", "almac", "alzc", "poisson",
          "beta", "2,4", "0.5, nan", "4,,8", "1,-1"]


@settings(max_examples=300, deadline=None)
@given(hst.dictionaries(hst.sampled_from([*PARSERS, "whatever"]), hst.sampled_from(VALUES),
                        max_size=8))
def test_random_configs_parse_finite_or_raise_config_error(entries):
    text = "".join(f"{key} = {value}\n" for key, value in entries.items())
    try:
        cfg = validate_config(text)
    except ConfigError:
        return
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            assert not isinstance(item, float) or math.isfinite(item), f.name
    assert cfg.join_when == "converged" or math.isfinite(float(cfg.join_when))


def accepted(key):
    """The values of ``VALUES`` that ``key``'s parser takes."""
    def parses(value):
        try:
            PARSERS[key](value)
        except ValueError:
            return False
        return value != ""
    return [value for value in VALUES if parses(value)]


def assert_stations_run_the_echoed_parameters(cfg):
    assert resolve(cfg) == cfg
    # every station is built at the start or, joining at time 0, in the first slot
    stations = run_simulation(replace(cfg, horizon_slots=50, join_when="0")).stations
    assert len(stations) == cfg.n + cfg.join_n
    for st in stations:
        if isinstance(st.protocol, Lmac):
            assert st.protocol.beta == cfg.beta
        if isinstance(st.protocol, Lzc):
            assert st.protocol.gamma == cfg.gamma


STATION_KEYS = ("protocol", "coexist_protocol", "coexist_k", "n", "c")
OTHER_KEYS = ("b", "adaptation", "beta", "gamma", "join_n", "error_rate", "lambda_pps")


@settings(max_examples=200, deadline=None)
@given(hst.fixed_dictionaries(
    {key: hst.sampled_from(accepted(key)) for key in STATION_KEYS},
    optional={key: hst.sampled_from(accepted(key)) for key in OTHER_KEYS}))
def test_stations_run_the_parameters_the_config_echoes(entries):
    text = "".join(f"{key} = {value}\n" for key, value in entries.items())
    try:
        cfg = validate_config(text)
    except ConfigError:
        return
    assert_stations_run_the_echoed_parameters(cfg)


def test_lmac_partner_of_an_lzc_base_takes_beta():
    text = "protocol = lzc\nn = 4\nc = 8\ncoexist_k = 2\ncoexist_protocol = lmac\n"
    cfg = parse(text + "beta = 0.5\n")
    assert (cfg.beta, cfg.gamma) == (0.5, auto_gamma(8, 4))
    assert_stations_run_the_echoed_parameters(cfg)
    assert parse(text).beta == 0.95


def test_an_all_partner_config_runs_no_base_protocol():
    cfg = parse("protocol = lzc\nn = 4\nc = 8\ncoexist_k = 4\ncoexist_protocol = dcf\n")
    assert cfg.kinds == ("dcf",) and cfg.gamma is None
    with pytest.raises(ConfigError) as err:
        parse("protocol = lmac\nn = 4\nc = 8\ncoexist_k = 4\ncoexist_protocol = dcf\n"
              "beta = 0.5\n")
    assert diag_keys(err) == {"beta"}
    assert parse("protocol = lmac\nn = 4\nc = 8\ncoexist_k = 4\ncoexist_protocol = dcf\n"
                 "join_n = 1\njoin_when = 0.1\n").kinds == ("lmac", "dcf")
