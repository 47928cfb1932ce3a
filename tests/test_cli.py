"""End-to-end tests of the command-line interface: every subcommand, config
error handling, manifest reproduction, and artifact layout.

All configs are built around a ten second trading window so full runs stay
fast; `main` is invoked in-process to keep exit-code checks cheap.
"""

import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
import yaml

import lobsim
from checkpoint_bytes import corrupt_first_network
from lobsim import (DDQLConfig, DDQLExecutionAgent, MomentumConfig, SyntheticFlowConfig,
                    lobster)
from lobsim.cli import (
    ConfigError,
    RealismConfig,
    _build,
    _fields,
    build_data_source,
    build_flow_config,
    build_setup,
    default_config,
    load_config,
    main,
    resolve_config,
)


def base_config() -> dict:
    return {
        "seed": 11,
        "data": {
            "kind": "synthetic",
            "synthetic": {
                "arrival_rate_per_side": 6.0,
                "size_gamma_shape": 2.0,
                "size_gamma_scale": 30.0,
                "initial_mid_ticks": 10_000,
                "session_start": "00:01:59",
                "session_end": "00:02:11",
            },
        },
        "kernel": {"warmup_seconds": 1.0, "post_margin_seconds": 1.0},
        "roster": {"momentum_count": 2},
        "ddql": {
            "episodes": 2,
            "num_periods": 5,
            "period_seconds": 2.0,
            "session_start": "00:02:00",
            "session_end": "00:02:10",
            "hidden_sizes": [8],
            "dropout_rate": 0.0,
            "min_experience": 4,
            "batch_size": 4,
            "train_every": 2,
            "target_sync_every": 2,
            "parent_quantity": 50,
        },
        "realism": {"window_seconds": 0.25, "bucket_minutes": 0.05},
    }


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def set_key(cfg: dict, dotted: str, value) -> None:
    *sections, key = dotted.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value


def read_jsonl(path):
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    trailer = json.loads(lines[-1])
    assert "final_states" in trailer
    return records, trailer


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["replay", "--config", str(tmp_path / "absent.yaml")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("data: [unclosed\n")
        assert main(["replay", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_mapping_root(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        assert main(["replay", "--config", str(path)]) == 2
        assert "mapping" in capsys.readouterr().err

    def test_unknown_section(self, tmp_path, capsys):
        cfg = base_config()
        cfg["mystery"] = {"x": 1}
        path = write_config(tmp_path, cfg)
        assert main(["replay", "--config", str(path)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_invalid_side(self, tmp_path, capsys):
        cfg = base_config()
        cfg["ddql"]["side"] = "hold"
        path = write_config(tmp_path, cfg)
        code = main(["train", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "side" in capsys.readouterr().err

    def test_unknown_data_kind(self, tmp_path, capsys):
        cfg = base_config()
        cfg["data"]["kind"] = "tape"
        path = write_config(tmp_path, cfg)
        assert main(["replay", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2

    def test_missing_lobster_file(self, tmp_path, capsys):
        cfg = base_config()
        cfg["data"] = {"kind": "lobster", "paths": [str(tmp_path / "gone.csv")]}
        path = write_config(tmp_path, cfg)
        assert main(["replay", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_seed_and_out_overrides(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "elsewhere"
        assert main(["gen-data", "--config", str(path), "--seed", "99",
                     "--out", str(out)]) == 0
        assert (out / "synthetic_99.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_output_directory_that_cannot_be_made_is_one_line(self, tmp_path, capsys):
        # mkdir under a regular file used to end in a NotADirectoryError traceback
        path = write_config(tmp_path, base_config())
        out = tmp_path / "file" / "sub"
        out.parent.write_text("not a directory")
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and str(out) in err

    def test_default_config_holds_no_deleted_key(self):
        # every run acts with the evaluation network, carries the TWAP twin,
        # picks from the paper's 24 actions and takes the reward unscaled
        defaults = default_config()
        assert "include_twap" not in defaults["roster"]
        for key in ("act_with_target_net", "multipliers", "reward_scale"):
            assert key not in defaults["ddql"]

    @pytest.mark.parametrize("dotted", ["ddql.epsilon_dacay",
                                        "roster.momentum.poll_intervall_seconds",
                                        "data.synthetic.foo",
                                        # deleted keys that older manifests hold
                                        "roster.include_twap",
                                        "ddql.act_with_target_net",
                                        "ddql.multipliers",
                                        "ddql.reward_scale"])
    def test_unknown_nested_key_names_its_path(self, tmp_path, capsys, dotted):
        cfg = base_config()
        *sections, key = dotted.split(".")
        node = cfg
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = 0.5
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and dotted in err

    def test_section_that_is_not_a_mapping(self, tmp_path, capsys):
        cfg = base_config()
        cfg["kernel"] = 5
        path = write_config(tmp_path, cfg)
        assert main(["replay", "--config", str(path)]) == 2
        assert "kernel must be a mapping" in capsys.readouterr().err

    def test_bad_value_names_its_key(self, tmp_path, capsys):
        cfg = base_config()
        cfg["ddql"]["episodes"] = "many"
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ddql.episodes" in err

    @pytest.mark.parametrize("dotted, value", [("realism.paired", "false"),
                                               ("realism.paired", 1),
                                               ("ddql.episodes", 2.9),
                                               ("ddql.episodes", True),
                                               ("kernel.latency_nanos", 1.5),
                                               ("ddql.hidden_sizes", [8.5]),
                                               ("ddql.session_start", 120_000_000_000.5),
                                               ("ddql.session_end", True),
                                               ("data.synthetic.session_start", 119e9),
                                               ("data.synthetic.session_end", False),
                                               ("data.paths", "/x/day.csv"),
                                               ("ddql.hidden_sizes", "64"),
                                               ("data.kind", 5),
                                               ("ddql.gamma", True),
                                               ("kernel.warmup_seconds", True),
                                               ("data.synthetic.cancel_probability", False)])
    def test_value_of_another_yaml_type_names_its_key(self, tmp_path, capsys, dotted, value):
        # coercing would read 'false' and 'no' as True, 2.9 as 2, a clock
        # time of True as 1 ns, a bool for a float or duration as 0 or 1,
        # and a string given for a list as its characters
        cfg = base_config()
        *sections, key = dotted.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
        path = write_config(tmp_path, cfg)
        command = "realism" if sections == ["realism"] else "train"  # train reads no other bool
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and dotted in err

    @pytest.mark.parametrize("key, value", [("batch_size", 0),
                                            ("batch_size", -3),
                                            ("dropout_rate", 1.0),
                                            ("max_experience", 3),
                                            ("hidden_sizes", [0]),
                                            ("learning_rate", -1.0),
                                            ("episodes", 0),
                                            ("episodes", -1)])
    def test_invalid_learner_setting_names_its_key(self, tmp_path, capsys, key, value):
        # each used to end mid-run in a traceback, learning_rate -1 to train
        # silently and episodes 0 or -1 to exit 0 with no learning curve or
        # checkpoint; max_experience 3 is below min_experience 4
        cfg = base_config()
        cfg["ddql"][key] = value
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and key in err

    @pytest.mark.parametrize("failure", ["raise", "sigkill"])
    def test_a_lost_flow_helper_exits_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                    failure):
        generate = lobster.generate_synthetic

        def failing(config, on_chunk):  # runs in the helper: the second chunk is never sent
            def send(flow):
                if len(flow) > lobster.CHUNK_ROWS:
                    if failure == "sigkill":
                        os.kill(os.getpid(), 9)
                    raise RuntimeError("helper fault")
                on_chunk(flow)
            return generate(config, on_chunk=send)

        monkeypatch.setattr(lobster, "generate_synthetic", failing)
        cfg = base_config()
        cfg["data"]["synthetic"]["arrival_rate_per_side"] = 600.0  # about 14k rows
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "synthetic-flow helper failed after 2048 rows" in err
        assert not (tmp_path / "out" / "checkpoints" / "episode_0000.ckpt").exists()

    @pytest.mark.parametrize("rate", [1e308, 1e150])
    def test_diverging_learner_exits_with_one_line(self, tmp_path, capsys, rate):
        # 1e308 used to end in a ValueError from the checkpoint save, and
        # 1e150 in an AgentFault wrapping the loss check's NumericalError
        cfg = base_config()
        cfg["ddql"]["learning_rate"] = rate
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "diverged" in err and "ddql.learning_rate" in err

    @pytest.mark.parametrize("hidden, refused", [([1_099_511_627_776], True),
                                                 ([322_580], True), ([322_579], False),
                                                 ([3000, 3000], False), ([3000, 3500], True)])
    def test_network_past_ten_million_parameters_names_its_key(self, tmp_path, hidden,
                                                               refused):
        # [2**40] used to end in a MemoryError (48 TiB).  Six inputs and 24
        # outputs: one hidden layer of h units has 31h + 24 parameters,
        # 9,999,973 at h = 322,579.  Only the config is built
        cfg = base_config()
        cfg["ddql"]["hidden_sizes"] = hidden
        resolved = resolve_config(cfg, out_dir=str(tmp_path / "out"))
        if refused:
            with pytest.raises(ConfigError, match="ddql: hidden_sizes: .* than the 10,000,000"):
                build_setup(resolved)
        else:
            assert build_setup(resolved).ddql.hidden_sizes == tuple(hidden)

    @pytest.mark.parametrize("mode, dotted, value", [
        ("train", "seed", -1),
        ("replay", "seed", -1),
        ("gen-data", "seed", -1),
        ("train", "kernel.latency_nanos", -1),
        ("paired-realism", "kernel.latency_nanos", -1),
        ("train", "kernel.computation_delay_nanos", -1),
        ("paired-realism", "kernel.computation_delay_nanos", -1),
        ("train", "kernel.warmup_seconds", -10),
        ("train", "kernel.post_margin_seconds", -10),
        ("train", "roster.momentum_count", -1),
    ])
    def test_negative_run_setting_names_its_key(self, tmp_path, capsys, mode, dotted, value):
        # each used to end in a traceback, or (post_margin_seconds,
        # momentum_count) to exit 0 with a cut episode or no traders
        cfg = base_config()
        if mode == "paired-realism":
            mode, cfg["realism"]["paired"] = "realism", True
        *sections, key = dotted.split(".")
        node = cfg
        for section in sections:
            node = node[section]
        node[key] = value
        path = write_config(tmp_path, cfg)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and dotted in err

    @pytest.mark.parametrize("delay, margin, least", [(0, 0.0039, "0.004"),
                                                      (1_000_000, 0.0079, "0.008")])
    def test_post_margin_shorter_than_the_closing_round_trip(self, tmp_path, capsys,
                                                              delay, margin, least):
        # with 1 ms latency this used to exit 0 with the parent order unfilled
        cfg = base_config()
        cfg["kernel"].update(computation_delay_nanos=delay, post_margin_seconds=margin)
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "kernel.post_margin_seconds" in err
        assert f"at least {least} " in err

    def test_post_margin_at_the_minimum_fills_the_parent_order(self, tmp_path):
        cfg = base_config()
        cfg["kernel"].update(computation_delay_nanos=1_000_000, post_margin_seconds=0.008)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in
                         (out / "learning_curve.csv").read_text().splitlines()]
        column = header.index("filled_quantity")
        assert [row[column] for row in rows] == ["50", "50"]

    @pytest.mark.parametrize("mode, dotted, value", [
        ("realism", "realism.window_seconds", 1e-10),
        ("realism", "realism.bucket_minutes", 1e-12),
        ("realism", "realism.window_seconds", float("nan")),
        ("realism", "realism.window_seconds", float("inf")),
        ("train", "kernel.warmup_seconds", float("inf")),
        ("train", "kernel.post_margin_seconds", float("inf")),
        ("train", "ddql.period_seconds", float("inf")),
        ("train", "roster.momentum.poll_interval_seconds", float("inf")),
        ("gen-data", "data.synthetic.arrival_rate_per_side", float("nan")),
        ("gen-data", "data.synthetic.size_gamma_scale", float("nan")),
        # a geometric price offset of about 9.2e18 ticks overflowed int64
        ("gen-data", "data.synthetic.placement_geometric_p", 1.0e-300),
        # so did the first ask above a mid at the int64 ceiling; 2**62 is
        # the first mid refused
        ("gen-data", "data.synthetic.initial_mid_ticks", 2**63 - 1),
        ("train", "data.synthetic.initial_mid_ticks", 2**63 - 1),
        ("gen-data", "data.synthetic.initial_mid_ticks", 2**62),
        # a window past sys.maxsize overflowed the trader's deque length
        ("train", "roster.momentum.long_window", 2**63),
        # widths of 2**63 ns or more overflowed the int64 binning
        ("realism", "realism.window_seconds", 2**40),
        ("realism", "realism.bucket_minutes", 2**40),
    ])
    def test_non_finite_or_sub_nanosecond_float_names_its_key(self, tmp_path, capsys,
                                                               mode, dotted, value):
        # each used to end in a traceback
        cfg = base_config()
        *sections, key = dotted.split(".")
        node = cfg
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
        path = write_config(tmp_path, cfg)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert ".".join(sections) in err and key in err

    @pytest.mark.parametrize("momentum_count", [2**40, 32_764])
    def test_roster_past_the_agent_limit_names_its_key(self, tmp_path, capsys, momentum_count):
        # 2**40 traders used to run until the process was killed.  The count
        # goes through build_setup first: a build that accepts it fails the
        # test before any run starts
        cfg = base_config()
        cfg["roster"]["momentum_count"] = momentum_count
        with pytest.raises(ConfigError, match="roster.momentum_count"):
            build_setup(resolve_config(cfg, out_dir=str(tmp_path / "out")))
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "roster.momentum_count" in err and "32767 agents" in err

    def test_roster_at_the_agent_limit_is_accepted(self, tmp_path):
        # with the exchange, the replay agent, the executor and its twin the
        # roster holds 32,767 agents
        cfg = base_config()
        cfg["roster"]["momentum_count"] = 32_763
        setup = build_setup(resolve_config(cfg, out_dir=str(tmp_path / "out")))
        assert setup.momentum_count == 32_763

    def test_infinite_arrival_rate_names_its_key(self, tmp_path):
        # gen-data used to loop forever: an exponential gap of 0 never
        # advances the clock
        cfg = resolve_config({"data": {"synthetic": {"arrival_rate_per_side": float("inf")}}},
                             out_dir=str(tmp_path))
        with pytest.raises(ConfigError, match="data.synthetic: arrival_rate_per_side"):
            build_flow_config(cfg)

    @pytest.mark.parametrize("rate", [2137, 1e12])
    def test_rate_past_1e8_events_names_its_key(self, tmp_path, capsys, rate):
        # over the default 23,400 s session 2137 per side expects 100,011,600
        # events and 1e12 expects 4.7e16; gen-data ran until it was killed.
        # The rate goes through build_flow_config first: a build that
        # accepts it fails the test before any run starts
        user = {"data": {"synthetic": {"arrival_rate_per_side": rate}}}
        with pytest.raises(ConfigError, match="data.synthetic: arrival_rate_per_side"):
            build_flow_config(resolve_config(user, out_dir=str(tmp_path)))
        path = write_config(tmp_path, user)
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "data.synthetic: arrival_rate_per_side" in err

    @pytest.mark.parametrize("shape, scale", [(2.0, 1e300), (1e300, 1.0), (2.0, 8.9e16)])
    def test_size_law_past_int64_names_its_key(self, tmp_path, capsys, shape, scale):
        # a scale of 1e300 used to end in an OverflowError at the size
        # column's append; 8.9e16 * (2 * 2 + 100) passes 2**63
        user = {"data": {"synthetic": {"size_gamma_shape": shape, "size_gamma_scale": scale}}}
        with pytest.raises(ConfigError, match="data.synthetic: size_gamma_scale"):
            build_flow_config(resolve_config(user, out_dir=str(tmp_path)))
        path = write_config(tmp_path, user)
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "data.synthetic: size_gamma_scale" in err and "int64" in err

    def test_size_law_below_int64_is_accepted(self, tmp_path):
        # 8.8e16 * 104 = 9.15e18 < 2**63; only the config is built
        user = {"data": {"synthetic": {"size_gamma_scale": 8.8e16}}}
        assert build_flow_config(resolve_config(user, out_dir=str(tmp_path))) \
            .size_gamma_scale == 8.8e16

    def test_rate_at_1e8_events_is_accepted(self, tmp_path):
        # 2 x 2136 x 23,400 s = 99,964,800 expected events; only the config is built
        cfg = resolve_config({"data": {"synthetic": {"arrival_rate_per_side": 2136}}},
                             out_dir=str(tmp_path))
        assert build_flow_config(cfg).arrival_rate_per_side == 2136

    @pytest.mark.parametrize("mode, dotted, settings", [
        ("gen-data", "data.synthetic.session_end", {"data.synthetic.session_end": "25:00:00"}),
        ("gen-data", "data.synthetic.session_end", {"data.synthetic.session_end": "24:00:00"}),
        ("gen-data", "data.synthetic.session_start", {"data.synthetic.session_start": -1}),
        ("train", "ddql.session_end", {"ddql.session_start": "23:59:55",
                                       "ddql.session_end": "24:00:05"}),
        ("train", "kernel.warmup_seconds", {"kernel.warmup_seconds": 120.5}),
        ("replay", "kernel.warmup_seconds", {"kernel.warmup_seconds": 1e12}),
        ("replay", "kernel.post_margin_seconds", {"kernel.post_margin_seconds": 86_270.0}),
        ("replay", "kernel.post_margin_seconds", {"kernel.post_margin_seconds": 1e12}),
    ])
    def test_time_outside_the_day_names_its_key(self, tmp_path, capsys, mode, dotted,
                                                settings):
        # each used to exit 0: gen-data stamped events past 86,400 s and the
        # kernel ran from before midnight or past the next one (the ddql
        # session starts at 00:02:00 and ends at 00:02:10)
        cfg = base_config()
        for key, value in settings.items():
            set_key(cfg, key, value)
        path = write_config(tmp_path, cfg)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and dotted in err

    @pytest.mark.parametrize("mode, dotted, value", [
        ("gen-data", "data.synthetic.session_end", "00:02:75"),
        ("gen-data", "data.synthetic.session_start", "00:01:60"),
        ("gen-data", "data.synthetic.session_end", "00:02:11.-5"),
        ("gen-data", "data.synthetic.session_end", "00:03:-49"),
        ("gen-data", "data.synthetic.session_end", "00:02:1_1"),
        ("train", "ddql.session_end", "00:02:+10"),
        ("train", "ddql.session_start", "00:02:-0"),
    ])
    def test_clock_field_out_of_range_or_signed_names_its_key(self, tmp_path, capsys, mode,
                                                              dotted, value):
        # each used to run: "00:02:75" meant 00:03:15, "00:02:11.-5"
        # 00:02:10.95 and "00:03:-49" 00:02:11
        cfg = base_config()
        set_key(cfg, dotted, value)
        path = write_config(tmp_path, cfg)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and dotted in err

    def test_day_ends_just_before_midnight(self, tmp_path):
        cfg = base_config()
        set_key(cfg, "data.synthetic.session_start", "23:59:50")
        set_key(cfg, "data.synthetic.session_end", "23:59:59.999999999")
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_negative_seed_flag_is_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed" in err

    @pytest.mark.parametrize("value", [None, 5, True, ["runs"], {"dir": "runs"}])
    def test_out_dir_that_is_not_a_string_is_one_line(self, tmp_path, capsys, value):
        # out_dir used to be read before any key was loaded, so each ended
        # in a TypeError traceback
        cfg = base_config()
        cfg["out_dir"] = value
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: out_dir: ")

    def test_int_for_a_float_key_is_accepted(self, tmp_path):
        # so is a numeric string: PyYAML reads 1e-3, which has no decimal
        # point, as a string
        learning_rate = yaml.safe_load("1e-3")
        assert learning_rate == "1e-3"
        cfg = resolve_config({"ddql": {"epsilon_start": 1, "learning_rate": learning_rate},
                              "data": {"synthetic": {"arrival_rate_per_side": 2}},
                              "kernel": {"warmup_seconds": 3, "post_margin_seconds": "2e1"}},
                             out_dir=str(tmp_path))
        setup = build_setup(cfg)
        assert setup.ddql.epsilon_start == 1.0
        assert setup.ddql.learning_rate == 0.001
        assert setup.data.synthetic.arrival_rate_per_side == 2.0
        assert setup.warmup == 3 * 10**9
        assert setup.post_margin == 20 * 10**9

    def test_defaults_are_the_dataclass_defaults(self, tmp_path):
        cfg = resolve_config({}, out_dir=str(tmp_path))
        assert cfg["data"]["synthetic"]["session_start"] == "09:30:00"
        assert cfg["ddql"]["period_seconds"] == 30.0
        assert cfg["roster"]["momentum"]["poll_interval_seconds"] == 1.0
        setup = build_setup(cfg)
        assert setup.ddql == DDQLConfig()
        assert setup.momentum == MomentumConfig()
        assert setup.data.synthetic == SyntheticFlowConfig()

    def test_missing_mode_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["replay", "--resume"],
                                      ["gen-data", "--checkpoint", "x"],
                                      ["evaluate", "--resume"],
                                      ["train", "--checkpoint", "x"]])
    def test_flag_of_another_subcommand_rejected_by_parser(self, tmp_path, capsys, argv):
        # each used to run and ignore the flag
        path = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def leaves(tree: dict, prefix: str = ""):
    """(dotted key, YAML default) for every leaf of a config tree."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def type_accepted(default, value) -> bool:
    """Whether the type rule of the `lobsim.cli` docstring takes `value` for
    a key whose YAML default is `default`.  A value it takes may still be
    refused for what it is, such as an unknown side."""
    if isinstance(default, list):
        item_default = default[0] if default else ""
        return type(value) is list and all(type_accepted(item_default, v) for v in value)
    if type(default) is float:
        if isinstance(value, bool):
            return False
        try:
            float(value)
        except (TypeError, ValueError):
            return False
        return True
    return type(value) is type(default)


WRONG_TYPES = [None, True, {"key": 1}, [], ["x"], "not a number"]
NUMBERS = [0, -1, 1e-300, 1e300, float("nan"), float("inf"), 2**40, 2**63]


def build_every_section(user: dict) -> None:
    """Build every section the way the commands do, but start no run."""
    resolved = resolve_config(user)
    _fields(resolved)
    build_setup(resolved)
    build_flow_config(resolved)
    _build(RealismConfig, resolved, "realism")


class TestSchemaWalk:
    @pytest.mark.parametrize("dotted", [dotted for dotted, _ in leaves(default_config())])
    def test_wrong_type_is_taken_by_the_rule_or_named(self, dotted):
        default = dict(leaves(default_config()))[dotted]
        section = dotted.rpartition(".")[0]
        for value in WRONG_TYPES:
            cfg = {}
            set_key(cfg, dotted, value)
            try:
                build_every_section(cfg)
            except ConfigError as exc:
                message = str(exc)
                if type_accepted(default, value):  # refused for its value
                    assert section in message and dotted.rpartition(".")[2] in message, \
                        (value, message)
                else:
                    assert message.startswith(f"{dotted}: "), (value, message)
            else:
                assert type_accepted(default, value), f"{dotted}: {value!r} taken"

    @pytest.mark.parametrize("dotted", [dotted for dotted, _ in leaves(default_config())])
    def test_extreme_number_is_taken_or_refused_in_its_section(self, dotted):
        # a value refused only once a command runs is a row of
        # TestConfigHandling.test_non_finite_or_sub_nanosecond_float_names_its_key
        for value in NUMBERS:
            cfg = {}
            set_key(cfg, dotted, value)
            try:
                build_every_section(cfg)
            except ConfigError as exc:  # any other exception fails the test
                message = str(exc)
                assert message.startswith(dotted.partition(".")[0]), (value, message)
                assert "\n" not in message, (value, message)


class TestGenData:
    def test_writes_stream_and_sidecar(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 0
        stream = out / "synthetic_11.csv"
        sidecar = json.loads((out / "synthetic_11.csv.meta.json").read_text())
        lines = stream.read_text().splitlines()
        assert sidecar["total_events"] == len(lines)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "gen-data"
        assert manifest["artifacts"]["synthetic_11.csv"] == sha256(stream)

    def test_deterministic_across_runs(self, tmp_path):
        path = write_config(tmp_path, base_config())
        for name in ("a", "b"):
            assert main(["gen-data", "--config", str(path),
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a/synthetic_11.csv").read_bytes() == \
            (tmp_path / "b/synthetic_11.csv").read_bytes()

    def test_identical_bytes_under_different_hash_seeds(self, tmp_path):
        path = write_config(tmp_path, base_config())
        src = Path(lobsim.__file__).resolve().parent.parent
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
            proc = subprocess.run(
                [sys.executable, "-m", "lobsim.cli", "gen-data", "--config", str(path),
                 "--out", str(tmp_path / hash_seed)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("synthetic_11.csv", "synthetic_11.csv.meta.json"):
            assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


class TestReplay:
    def test_log_counts_match_generated_flow(self, tmp_path):
        """Every generated event reaches the exchange and draws exactly one
        acknowledgement; nothing else appears in a replay-only roster."""
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["replay", "--config", str(path), "--out", str(out)]) == 0

        cfg = resolve_config(load_config(path))
        events = build_data_source(cfg).events_for_episode(0, cfg["seed"])
        records, _ = read_jsonl(out / "replay_log.jsonl")
        messages = [r for r in records if r["tag"] != "wakeup"]
        inbound = [r for r in messages
                   if r["tag"] in ("limit_order", "market_order", "cancel_order")]
        assert len(inbound) == len(events)
        assert len(messages) == 2 * len(events)
        assert all(0 in (r["sender"], r["recipient"]) for r in messages)
        assert (out / "book_final.csv").is_file()

    def test_same_seed_identical_logs(self, tmp_path):
        path = write_config(tmp_path, base_config())
        for name in ("a", "b"):
            assert main(["replay", "--config", str(path),
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a/replay_log.jsonl").read_bytes() == \
            (tmp_path / "b/replay_log.jsonl").read_bytes()
        assert (tmp_path / "a/book_final.csv").read_bytes() == \
            (tmp_path / "b/book_final.csv").read_bytes()

    def test_log_bytes_are_pinned(self, tmp_path):
        # the sha256 taken when the log kept one LogRecord tuple per delivery
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["replay", "--config", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "replay_log.jsonl").read_bytes()).hexdigest() == \
            "8116f832f1c13e4cae5a4c2f011704ba72b1f8c671570718e8240239aabccf79"

    def test_empty_data_file_runs_clean(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        cfg = base_config()
        cfg["data"] = {"kind": "lobster", "paths": [str(empty)]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["replay", "--config", str(path), "--out", str(out)]) == 0
        records, _ = read_jsonl(out / "replay_log.jsonl")
        assert records == []
        assert (out / "book_final.csv").is_file()


class TestDataErrors:
    def test_malformed_lobster_row_is_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("60.000000000,1,1,10,1000000,1\n61.0,1,2,ten,1000100,-1\n")
        cfg = base_config()
        cfg["data"] = {"kind": "lobster", "paths": [str(bad)]}
        path = write_config(tmp_path, cfg)
        assert main(["replay", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err and "line 2" in err

    @pytest.mark.parametrize("mode", ["replay", "realism", "train"])
    def test_lobster_file_that_is_not_utf8_is_one_line(self, tmp_path, capsys, mode):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"60.000000000,1,1,10,1000000,1\n61.0,1,2,\xff\xfe,1000100,-1\n")
        cfg = base_config()
        cfg["data"] = {"kind": "lobster", "paths": [str(bad)]}
        path = write_config(tmp_path, cfg)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err and "line 2" in err

    @pytest.mark.parametrize("mode", ["replay", "realism", "train"])
    @pytest.mark.parametrize("row", ["61.0,1,2,10,99999999999999999999,-1",
                                     "99999999999.0,1,2,10,1000100,-1"])
    def test_lobster_field_outside_int64_is_one_line(self, tmp_path, capsys, mode, row):
        # each used to end in an OverflowError traceback
        bad = tmp_path / "bad.csv"
        bad.write_text(f"60.000000000,1,1,10,1000000,1\n{row}\n")
        cfg = base_config()
        cfg["data"] = {"kind": "lobster", "paths": [str(bad)]}
        path = write_config(tmp_path, cfg)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err and "line 2" in err
        assert "outside the int64 range" in err


class TestTrain:
    def test_artifacts_for_two_episodes(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "checkpoints/episode_0000.ckpt").is_file()
        assert (out / "checkpoints/episode_0001.ckpt").is_file()
        assert (out / "checkpoints/latest.ckpt").is_file()
        curve = (out / "learning_curve.csv").read_text().splitlines()
        assert len(curve) == 3
        assert curve[0].startswith("episode,")
        assert (out / "traces/episode_0000_actions.csv").is_file()
        assert (out / "traces/episode_0001_actions.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "train"
        assert "learning_curve.csv" in manifest["artifacts"]

    def test_resume_matches_straight_run(self, tmp_path):
        two = write_config(tmp_path, base_config(), "two.yaml")
        four_cfg = base_config()
        four_cfg["ddql"]["episodes"] = 4
        four = write_config(tmp_path, four_cfg, "four.yaml")

        straight = tmp_path / "straight"
        assert main(["train", "--config", str(four), "--out", str(straight)]) == 0

        resumed = tmp_path / "resumed"
        assert main(["train", "--config", str(two), "--out", str(resumed)]) == 0
        assert main(["train", "--config", str(four), "--out", str(resumed),
                     "--resume"]) == 0

        final = "checkpoints/episode_0003.ckpt"
        assert (resumed / final).read_bytes() == (straight / final).read_bytes()
        assert (resumed / "learning_curve.csv").read_bytes() == \
            (straight / "learning_curve.csv").read_bytes()

    def test_manifest_rerun_reproduces_artifacts(self, tmp_path):
        """A manifest doubles as a config; replaying it into a fresh
        directory yields byte-identical artifacts."""
        path = write_config(tmp_path, base_config())
        first = tmp_path / "first"
        assert main(["train", "--config", str(path), "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())

        second = tmp_path / "second"
        assert main(["train", "--config", str(first / "manifest.json"),
                     "--out", str(second)]) == 0
        rerun = json.loads((second / "manifest.json").read_text())
        assert rerun["artifacts"] == manifest["artifacts"]

    def test_resume_under_another_dropout_rate_exits_2_naming_both(self, tmp_path, capsys):
        # the networks used to load at the saved rate while the learning rate
        # followed the config
        cfg = base_config()
        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        cfg["ddql"].update(episodes=3, dropout_rate=0.2)
        other = write_config(tmp_path, cfg, "other.yaml")
        capsys.readouterr()
        assert main(["train", "--config", str(other), "--out", str(out), "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "episode_0001.ckpt: dropout rate 0.0 does not match the config's 0.2" in err


def stop_in_episode(monkeypatch, episode: int, stop: BaseException) -> None:
    """The DDQL executor raises `stop` at its third period of `episode`,
    while the kernel runs and the day's helper may still be alive."""
    original = DDQLExecutionAgent._period_step

    def period_step(self, snapshot):
        if self.result.episode == episode and len(self.result.action_trace) == 2:
            raise stop
        original(self, snapshot)

    monkeypatch.setattr(DDQLExecutionAgent, "_period_step", period_step)


def tree_bytes(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


class TestInterruptedTrain:
    def four_episodes(self, tmp_path):
        cfg = base_config()
        cfg["ddql"]["episodes"] = 4
        return write_config(tmp_path, cfg)

    def test_resume_after_a_stop_in_episode_2_writes_every_trace(self, tmp_path,
                                                                 monkeypatch):
        # traces used to be written after train returned, and only for the
        # episodes of that invocation: the resumed run lacked episodes 0 and 1
        config = self.four_episodes(tmp_path)
        straight = tmp_path / "straight"
        assert main(["train", "--config", str(config), "--out", str(straight)]) == 0
        resumed = tmp_path / "resumed"
        with monkeypatch.context() as patch:
            stop_in_episode(patch, 2, SystemExit("stopped"))
            with pytest.raises(SystemExit):
                main(["train", "--config", str(config), "--out", str(resumed)])
        assert sorted(p.name for p in (resumed / "traces").iterdir()) == \
            ["episode_0000_actions.csv", "episode_0001_actions.csv"]
        assert main(["train", "--config", str(config), "--out", str(resumed),
                     "--resume"]) == 0
        assert tree_bytes(resumed) == tree_bytes(straight)
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (straight, resumed)]
        assert manifests[0]["artifacts"] == manifests[1]["artifacts"]

    def test_resume_after_sigkill_writes_the_straight_run(self, tmp_path):
        # the kill takes the synthetic day's helper with it: both are in the
        # new session's process group
        cfg = base_config()
        cfg["ddql"].update(episodes=8, num_periods=100, session_end="00:05:20")
        cfg["data"]["synthetic"].update(session_end="00:05:21", arrival_rate_per_side=20.0)
        config = write_config(tmp_path, cfg)
        straight = tmp_path / "straight"
        assert main(["train", "--config", str(config), "--out", str(straight)]) == 0
        killed = tmp_path / "killed"
        src = str(Path(lobsim.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "lobsim.cli", "train", "--config", str(config),
             "--out", str(killed)],
            env={**os.environ, "PYTHONPATH": src}, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while not (killed / "checkpoints" / "episode_0001.ckpt").exists():
                assert proc.poll() is None, "train ended before its second checkpoint"
                assert time.monotonic() < deadline, "no second checkpoint in time"
                time.sleep(0.001)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        assert proc.returncode == -signal.SIGKILL
        assert not (killed / "checkpoints" / "episode_0007.ckpt").exists()
        assert main(["train", "--config", str(config), "--out", str(killed),
                     "--resume"]) == 0
        assert tree_bytes(killed) == tree_bytes(straight)

    @pytest.mark.parametrize("episode, named", [(2, "episode_0001.ckpt"), (0, None)])
    def test_ctrl_c_exits_130_with_one_line(self, tmp_path, monkeypatch, capsys, episode,
                                            named):
        # used to end in a KeyboardInterrupt traceback; the no_child_left
        # fixture checks that the day's helper was reaped
        config = self.four_episodes(tmp_path)
        out = tmp_path / "run"
        stop_in_episode(monkeypatch, episode, KeyboardInterrupt())
        assert main(["train", "--config", str(config), "--out", str(out)]) == 130
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("interrupted; ")
        if named:
            assert f"last good checkpoint: {out / 'checkpoints' / named}" in err
        else:
            assert "no checkpoint yet" in err
        assert not (out / "manifest.json").exists()


class TestEvaluate:
    def train_once(self, tmp_path, episodes=1):
        cfg = base_config()
        cfg["ddql"]["episodes"] = episodes
        path = write_config(tmp_path, cfg)
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        return path, out

    def test_requires_a_checkpoint(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "fresh"
        assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_artifacts_and_read_only_checkpoint(self, tmp_path):
        path, out = self.train_once(tmp_path)
        ckpt = out / "checkpoints/episode_0000.ckpt"
        digest = sha256(ckpt)
        assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 0
        assert sha256(ckpt) == digest

        body = json.loads((out / "evaluation.json").read_text())
        comparison = body["comparison"]
        assert set(comparison) == {"candidate", "baseline", "action_trace_distance"}
        assert comparison["candidate"]["filled_quantity"] >= 0
        ddql_rows = (out / "ddql_actions.csv").read_text().splitlines()
        twap_rows = (out / "twap_actions.csv").read_text().splitlines()
        assert len(ddql_rows) == len(twap_rows) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "evaluate"

    def test_report_bytes_are_pinned(self, tmp_path):
        # the sha256 taken when ExecutionComparison had a hand-written to_dict
        path, out = self.train_once(tmp_path, episodes=2)  # base_config() as it is
        assert main(["evaluate", "--config", str(path), "--out", str(out)]) == 0
        assert sha256(out / "evaluation.json") == \
            "fd287f588699f141010db37fda3f3d4d087c3888bceb4a056b1a63b7812b6b94"

    def test_truncated_checkpoint_is_one_line(self, tmp_path, capsys):
        path, out = self.train_once(tmp_path)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes((out / "checkpoints/latest.ckpt").read_bytes()[:200])
        code = main(["evaluate", "--config", str(path), "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(cut)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(cut) in err

    @pytest.mark.parametrize("how", ["header_cut", "huge_layer_count"])
    def test_corrupt_network_blob_is_one_line(self, tmp_path, capsys, how):
        path, out = self.train_once(tmp_path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(corrupt_first_network((out / "checkpoints/latest.ckpt").read_bytes(),
                                              how))
        code = main(["evaluate", "--config", str(path), "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err

    def test_truncated_checkpoint_on_resume_is_one_line(self, tmp_path, capsys):
        path, out = self.train_once(tmp_path)
        ckpt = out / "checkpoints/episode_0000.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-30])
        capsys.readouterr()
        assert main(["train", "--config", str(path), "--out", str(out), "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(ckpt) in err

    def test_checkpoint_write_failure_is_one_line(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        (out / "checkpoints/episode_0000.ckpt").mkdir(parents=True)  # blocks the write
        assert main(["train", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "last good: None" in err

    def test_explicit_checkpoint_path(self, tmp_path):
        path, out = self.train_once(tmp_path)
        elsewhere = tmp_path / "eval"
        code = main(["evaluate", "--config", str(path), "--out", str(elsewhere),
                     "--checkpoint", str(out / "checkpoints/latest.ckpt")])
        assert code == 0
        assert (elsewhere / "evaluation.json").is_file()


class TestRealism:
    def test_single_synthetic_report(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["realism", "--config", str(path), "--out", str(out)]) == 0
        body = json.loads((out / "realism.json").read_text())
        assert body["windowed_volume"]["gamma"]["distribution"] == "gamma"
        assert "params" in body["windowed_volume"]["gamma"]
        assert "rate" in body["interarrival"]["exponential"]["params"]
        assert "u_shape" in body["intraday"]
        assert (out / "volume_samples.csv").is_file()
        assert (out / "interarrival_samples.csv").is_file()

    def test_paired_runs_report_deltas(self, tmp_path):
        cfg = base_config()
        cfg["realism"]["paired"] = True
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["realism", "--config", str(path), "--out", str(out)]) == 0
        body = json.loads((out / "realism.json").read_text())
        assert set(body) == {"with_agent", "without_agent", "deltas"}
        assert "windowed_volume" in body["with_agent"]
        assert "interarrival_exponential.rate" in body["deltas"]
        rate_delta = body["deltas"]["interarrival_exponential.rate"]
        assert rate_delta is None or rate_delta >= 0.0

    def test_paired_report_bytes_are_pinned(self, tmp_path):
        # the sha256 taken when FlowSeries.from_log read LogRecord tuples
        cfg = base_config()
        cfg["realism"]["paired"] = True
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["realism", "--config", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "realism.json").read_bytes()).hexdigest() == \
            "41083e8405263967e0c9f0cc645b5ef97b6f989e6a68f28601c17dea9a9a12e8"

    @pytest.mark.parametrize("paired, refusals, digest", [
        (False, 2, "b992cfaa6f53f1ba7eb1c8867cd35d60910ec34e0fe0bfa4715621f4a1e4f349"),
        (True, 4, "efbf48a9038a9af569241109e26391d3746b24cb1e5347439918c9b853d10c59"),
    ], ids=["unpaired", "paired"])
    def test_report_with_refused_fits_bytes_are_pinned(self, tmp_path, paired, refusals,
                                                       digest):
        # the sha256 taken when each report type had a hand-written to_dict;
        # a 300 s window leaves too few nonzero windows for the volume fits
        cfg = base_config()
        cfg["realism"].update(window_seconds=300, paired=paired)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["realism", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "realism.json").read_text().count('"refused"') == refusals
        assert sha256(out / "realism.json") == digest

    def test_paired_runs_make_one_flow(self, tmp_path, flows_made):
        cfg = base_config()
        cfg["realism"]["paired"] = True
        path = write_config(tmp_path, cfg)
        assert main(["realism", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(flows_made) == 1

    def test_paired_report_keeps_a_refused_fit(self, tmp_path):
        cfg = base_config()
        cfg["realism"].update(paired=True, bucket_minutes=15.0)  # one bucket: refused
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["realism", "--config", str(path), "--out", str(out)]) == 0
        body = json.loads((out / "realism.json").read_text())
        assert "refused" in body["with_agent"]["intraday"]
        assert "gamma" in body["without_agent"]["windowed_volume"]

    def test_paired_with_missing_checkpoint_is_one_line(self, tmp_path, capsys):
        cfg = base_config()
        cfg["realism"]["paired"] = True
        path = write_config(tmp_path, cfg)
        missing = tmp_path / "absent.ckpt"
        assert main(["realism", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--checkpoint", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(missing) in err

    def test_non_positive_window_rejected(self, tmp_path, capsys):
        cfg = base_config()
        cfg["realism"]["window_seconds"] = 0
        path = write_config(tmp_path, cfg)
        assert main(["realism", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "realism" in capsys.readouterr().err

    def test_tiny_input_refuses_gracefully(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text(
            "60.000000000,1,1,10,1000000,1\n"
            "61.000000000,1,2,10,1000100,-1\n"
            "62.000000000,1,3,10,1000000,1\n"
        )
        cfg = base_config()
        cfg["data"] = {"kind": "lobster", "paths": [str(tiny)]}
        cfg["realism"] = {"window_seconds": 60.0, "bucket_minutes": 15.0}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["realism", "--config", str(path), "--out", str(out)]) == 0
        assert "warning" in capsys.readouterr().err
        body = json.loads((out / "realism.json").read_text())
        assert "refused" in body["windowed_volume"]["gamma"]
        assert body["intraday"] == {"refused": "flow spans 1 buckets; need >= 3"}
        # The exponential fit still ran on the two gaps.
        assert body["interarrival"]["exponential"]["params"]["rate"] == 1.0
        assert (out / "manifest.json").is_file()


    def test_limit_orders_out_of_time_order_are_one_line(self, tmp_path, capsys):
        bad = tmp_path / "backwards.csv"
        bad.write_text(
            "60.000000000,1,1,10,1000000,1\n"
            "62.000000000,1,2,10,1000100,-1\n"
            "61.000000000,1,3,10,1000000,1\n"
            "63.000000000,1,4,10,1000100,-1\n"
        )
        cfg = base_config()
        cfg["data"] = {"kind": "lobster", "paths": [str(bad)]}
        path = write_config(tmp_path, cfg)
        with pytest.warns(UserWarning, match="backwards"):
            code = main(["realism", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(bad) in err and "time-ordered" in err

    def test_out_of_order_delete_is_analyzed(self, tmp_path):
        day = tmp_path / "late_delete.csv"
        day.write_text(
            "60.000000000,1,1,10,1000000,1\n"
            "61.000000000,1,2,10,1000100,-1\n"
            "62.000000000,1,3,10,1000000,1\n"
            "61.500000000,3,1,10,1000000,1\n"
        )
        cfg = base_config()
        cfg["data"] = {"kind": "lobster", "paths": [str(day)]}
        cfg["realism"] = {"window_seconds": 60.0, "bucket_minutes": 15.0}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="backwards"):
            assert main(["realism", "--config", str(path), "--out", str(out)]) == 0
        body = json.loads((out / "realism.json").read_text())
        assert body["interarrival"]["exponential"]["params"]["rate"] == 1.0


class TestModuleEntryPoint:
    def test_runs_as_module(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "lobsim.cli", "gen-data",
             "--config", str(path), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout
