"""Unit tests for SystemConfig (Table I) validation and derived values."""

import dataclasses

import pytest

from repro.core.config import SystemConfig


class TestDefaults:
    def test_paper_stream_rate(self):
        # Section V.A: "streamed at a bit rate of 768 Kbps"
        assert SystemConfig().stream_rate_bps == 768_000.0

    def test_paper_status_cadence(self):
        # Section V.A: status reports "sent out every 5 minutes"
        assert SystemConfig().status_report_period_s == 300.0

    def test_paper_server_fleet(self):
        # Section V.A: 24 dedicated servers with 100 Mbps
        cfg = SystemConfig()
        assert cfg.n_servers == 24
        assert cfg.server_upload_bps == 100_000_000.0

    def test_substream_rate(self):
        cfg = SystemConfig()
        assert cfg.substream_rate_bps == cfg.stream_rate_bps / cfg.n_substreams

    def test_block_is_one_second_of_substream(self):
        cfg = SystemConfig()
        assert cfg.block_bits == cfg.substream_rate_bps

    def test_upload_slots(self):
        cfg = SystemConfig()
        assert cfg.upload_slots(cfg.substream_rate_bps * 3) == pytest.approx(3.0)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("stream_rate_bps", 0.0),
        ("n_substreams", 0),
        ("buffer_seconds", 0.0),
        ("ts_seconds", 0.0),
        ("tp_seconds", -1.0),
        ("ta_seconds", -0.1),
        ("player_buffer_s", 0.0),
        ("nat_traversal_prob", 1.5),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            SystemConfig(**{field: value})

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(SystemConfig)
        if type(f.default) in (int, float)
    ])
    def test_nan_rejected_for_every_numeric_field(self, field):
        with pytest.raises(ValueError):
            SystemConfig().with_overrides(**{field: float("nan")})

    def test_target_partners_bounded_by_max(self):
        with pytest.raises(ValueError):
            SystemConfig(target_partners=10, max_partners=8)

    def test_mcache_must_hold_bootstrap_sample(self):
        with pytest.raises(ValueError):
            SystemConfig(mcache_size=4, bootstrap_sample=8)

    def test_cache_window_must_hold_one_block(self):
        # a node's cache window is int(buffer_seconds) blocks: 0.5 s passes
        # every other check but would leave the window empty
        with pytest.raises(ValueError):
            SystemConfig(buffer_seconds=0.5, tp_seconds=0.25)

    def test_tp_must_fit_in_buffer(self):
        with pytest.raises(ValueError):
            SystemConfig(tp_seconds=60.0, buffer_seconds=60.0)

    @pytest.mark.parametrize("mode", ["tp", "latest", "oldest"])
    def test_valid_offset_modes(self, mode):
        assert SystemConfig(initial_offset_mode=mode).initial_offset_mode == mode

    def test_invalid_offset_mode_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(initial_offset_mode="middle")

    def test_invalid_parent_choice_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(parent_choice="greedy")

    def test_invalid_mcache_replacement_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(mcache_replacement="lru")


class TestOverrides:
    def test_with_overrides_returns_new_object(self):
        a = SystemConfig()
        b = a.with_overrides(n_substreams=6)
        assert a.n_substreams == 4
        assert b.n_substreams == 6

    def test_with_overrides_revalidates(self):
        with pytest.raises(ValueError):
            SystemConfig().with_overrides(ts_seconds=-1.0)


class TestTable1:
    def test_has_all_seven_symbols(self):
        symbols = [row[0] for row in SystemConfig().table1()]
        assert symbols == ["R", "K", "B", "T_s", "T_p", "T_a", "D_p"]

    def test_values_reflect_config(self):
        cfg = SystemConfig(n_substreams=6)
        rows = {r[0]: r[2] for r in cfg.table1()}
        assert rows["K"] == "6"
        assert rows["R"] == "768 kbps"
