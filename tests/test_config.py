"""Config parsing, validation diagnostics, defaults, seeding."""

import pytest

from macsim.config import (
    ConfigError,
    SimConfig,
    auto_gamma,
    derive_seed,
    validate_config,
)


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
