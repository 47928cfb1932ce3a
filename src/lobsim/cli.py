"""Command-line front end.

Subcommands share one YAML config format.  Every run resolves the config
against built-in defaults, executes, then writes a manifest holding the
resolved config, the seed, and a sha256 of every artifact; feeding that
manifest back in as --config reproduces the run byte for byte.

The format and its defaults are derived from the config dataclasses (see
SCHEMA): a key is its field's name and its value is coerced to the type of
the field's default, lists to tuples, except that bool and int keys accept
only YAML values of their own type.  The few keys that differ are listed in
SPECIAL_KEYS: `*_seconds` durations, "HH:MM:SS" or integer-nanosecond clock
times, buy/sell sides.
An unknown key at any depth is an error that names its dotted path.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional

import yaml

from .agents import DDQLConfig, DDQLExecutionAgent, LearnerState, MomentumConfig
from .book import Side
from .kernel import MAX_AGENTS, NANOS_PER_SECOND, seconds, time_from_str, time_to_str
from .lobster import LobsterParseError, SyntheticFlowConfig, generate_to_file
from .metrics import (
    FitRefusal,
    FlowSeries,
    InsufficientDataError,
    UnorderedFlowError,
    fit_deltas,
    interarrival_fit,
    intraday_profile,
    report_to_json,
    samples_to_csv,
    windowed_volume,
)
from .mlp import CheckpointError
from .rl import ActionSpace
from .training import (
    CheckpointWriteError,
    DataSource,
    RunSetup,
    evaluate,
    latest_checkpoint,
    run_episode,
    train,
    write_action_trace,
)


class ConfigError(Exception):
    pass


@dataclass
class RealismConfig:
    window_seconds: float = 60.0
    bucket_minutes: float = 15.0
    paired: bool = False

    def validate(self) -> None:
        # the fits bin on whole nanoseconds, so each width must be finite and
        # round to at least one; nan fails every comparison
        for key, nanos in (("window_seconds", self.window_seconds * NANOS_PER_SECOND),
                           ("bucket_minutes", self.bucket_minutes * 60 * NANOS_PER_SECOND)):
            if not 0.5 < nanos < math.inf:
                raise ValueError(f"{key} must be finite and at least 1 ns, "
                                 f"got {getattr(self, key)!r}")


def _side(name) -> Side:
    if name not in ("buy", "sell"):
        raise ValueError(f"must be 'buy' or 'sell', got {name!r}")
    return Side.BID if name == "buy" else Side.ASK


DAY = 24 * 3600 * NANOS_PER_SECOND  # simulated time stays inside one day


def _clock(value) -> int:
    """A clock time is "HH:MM:SS[.f]" or integer nanoseconds, never a float
    or bool, and lies inside the day."""
    t = time_from_str(value) if isinstance(value, str) else _coerce(int)(value)
    if not 0 <= t < DAY:
        raise ValueError(f"must lie in [00:00:00, 24:00:00), got {value!r}")
    return t


# (load, dump): YAML value -> field value, field default -> YAML value
SECONDS = (lambda value: seconds(float(value)), lambda t: t / NANOS_PER_SECOND)
CLOCK = (_clock, lambda t: time_to_str(t).removesuffix(".000000000"))
SIDE = (_side, lambda side: "buy" if side is Side.BID else "sell")

# The keys that are not their field's name with its default's type:
# (dataclass, YAML key) -> (field, (load, dump), or None to coerce as usual)
SPECIAL_KEYS = {
    (RunSetup, "out_dir"): ("out_dir", (Path, str)),
    (RunSetup, "warmup_seconds"): ("warmup", SECONDS),
    (RunSetup, "post_margin_seconds"): ("post_margin", SECONDS),
    (RunSetup, "include_twap"): ("include_twap_twin", None),
    (MomentumConfig, "poll_interval_seconds"): ("poll_interval", SECONDS),
    (SyntheticFlowConfig, "session_start"): ("session_start_ns", CLOCK),
    (SyntheticFlowConfig, "session_end"): ("session_end_ns", CLOCK),
    (DDQLConfig, "period_seconds"): ("period", SECONDS),
    (DDQLConfig, "session_start"): ("session_start", CLOCK),
    (DDQLConfig, "session_end"): ("session_end", CLOCK),
    (DDQLConfig, "side"): ("side", SIDE),
}


def _coerce(kind: type):
    """The load for a field whose default has type `kind`.  Bool and int
    keys take only a YAML value of their own type (a bool is not an int):
    coercing would read the string 'false' as True and truncate 2.9 to 2.
    Other types coerce, so a float key takes an int."""
    if kind not in (bool, int):
        return kind

    def load(value):
        if type(value) is not kind:
            raise TypeError(f"expected {'a boolean' if kind is bool else 'an integer'}, "
                            f"got {value!r}")
        return value
    return load


def _keys(cls, only: Optional[tuple] = None, skip: tuple = ()) -> dict:
    """YAML key -> (field, load, YAML default) for the fields of `cls`."""
    special = {field: (key, conversion) for (owner, key), (field, conversion)
               in SPECIAL_KEYS.items() if owner is cls}
    keys = {}
    for f in fields(cls):
        if f.name in skip or (only is not None and f.name not in only):
            continue
        default = f.default if f.default is not MISSING else f.default_factory()
        key, conversion = special.get(f.name, (f.name, None))
        if conversion is None and isinstance(default, tuple):
            item = _coerce(type(default[0]))
            conversion = (lambda value, item=item: tuple(item(v) for v in value), list)
        load, dump = conversion or (_coerce(type(default)), lambda value: value)
        keys[key] = (f.name, load, dump(default))
    return keys


def _non_negative(keys: dict) -> dict:
    """`keys` with every load refusing a value below zero, which would fail
    mid-run, cut the episode short or be read as zero."""
    def checked(load):
        def check(value):
            loaded = load(value)
            if loaded < 0:
                raise ValueError(f"must not be negative, got {value!r}")
            return loaded
        return check
    return {key: (name, checked(load), default) for key, (name, load, default) in keys.items()}


# The config tree: each mapping holds the keys of one dataclass; RunSetup's
# own fields are split over the top level, `kernel` and `roster`.
SCHEMA = {
    **_non_negative(_keys(RunSetup, only=("seed",))),
    **_keys(RunSetup, only=("out_dir",)),
    "data": {
        **_keys(DataSource, only=("kind", "paths")),
        "synthetic": _keys(SyntheticFlowConfig, skip=("seed",)),  # the run seed
    },
    "kernel": _non_negative(_keys(RunSetup, only=("latency_nanos", "computation_delay_nanos",
                                                  "warmup", "post_margin"))),
    "roster": {
        **_non_negative(_keys(RunSetup, only=("momentum_count",))),
        **_keys(RunSetup, only=("include_twap_twin",)),
        "momentum": _keys(MomentumConfig),
    },
    "ddql": _keys(DDQLConfig),
    "realism": _keys(RealismConfig),
}


def default_config(schema: dict = SCHEMA) -> dict:
    return {name: default_config(node) if isinstance(node, dict) else copy.copy(node[2])
            for name, node in schema.items()}


def deep_merge(base: dict, override: dict, prefix: str = "") -> dict:
    """`override` laid over `base`, whose keys are the only ones allowed."""
    merged = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {prefix}{key}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key} must be a mapping, "
                                  f"got {type(value).__name__}")
            value = deep_merge(base[key], value, f"{prefix}{key}.")
        merged[key] = value
    return merged


def load_config(path) -> dict:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    # a manifest is itself a valid config: unwrap the resolved copy inside
    if "artifacts" in raw and "config" in raw:
        raw = raw["config"]
    return raw


def resolve_config(user: dict, seed: Optional[int] = None,
                   out_dir: Optional[str] = None) -> dict:
    cfg = deep_merge(default_config(), user)
    if seed is not None:
        cfg["seed"] = seed
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)
    return cfg


def _fields(cfg: dict, path: str = "") -> dict:
    """Field values from the keys of the mapping at dotted `path`."""
    schema, values = SCHEMA, cfg
    for part in filter(None, path.split(".")):
        schema, values = schema[part], values[part]
    loaded = {}
    for name, node in schema.items():
        if not isinstance(node, dict):
            try:
                loaded[node[0]] = node[1](values[name])
            except (TypeError, ValueError, OverflowError) as exc:  # inf seconds overflow int
                raise ConfigError(f"{path}.{name}: {exc}".lstrip(".")) from None
    return loaded


def _build(cls, cfg: dict, path: str, **given):
    """A validated `cls` from the mapping at `path`; `given` sets the fields
    the mapping does not hold."""
    config = cls(**_fields(cfg, path), **given)
    try:
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config


def build_flow_config(cfg: dict) -> SyntheticFlowConfig:
    return _build(SyntheticFlowConfig, cfg, "data.synthetic", seed=_fields(cfg)["seed"])


def build_data_source(cfg: dict) -> DataSource:
    synthetic = build_flow_config(cfg) if cfg["data"]["kind"] == "synthetic" else None
    source = _build(DataSource, cfg, "data", synthetic=synthetic)
    missing = [p for p in source.paths if not Path(p).is_file()] if source.kind == "lobster" else []
    if missing:
        raise ConfigError(f"data files not found: {missing}")
    return source


# Message hops after session_end before an episode is settled: the terminal
# snapshot query, its reply, the closing market order, then its fills and the
# last reply.  Each hop takes one latency plus one computation delay.
CLOSING_HOPS = 4


def build_setup(cfg: dict) -> RunSetup:
    setup = RunSetup(ddql=_build(DDQLConfig, cfg, "ddql"), data=build_data_source(cfg),
                     momentum=_build(MomentumConfig, cfg, "roster.momentum"),
                     **_fields(cfg), **_fields(cfg, "kernel"), **_fields(cfg, "roster"))
    kernel = setup.kernel_config(0)
    if kernel.start_time < 0:
        raise ConfigError("kernel.warmup_seconds: puts the kernel's start before 00:00:00, "
                          f"got {setup.warmup / NANOS_PER_SECOND:g}")
    if kernel.stop_time >= DAY:
        raise ConfigError("kernel.post_margin_seconds: puts the kernel's stop at or past "
                          f"24:00:00, got {setup.post_margin / NANOS_PER_SECOND:g}")
    least = CLOSING_HOPS * (setup.latency_nanos + setup.computation_delay_nanos)
    if setup.post_margin < least:
        # the kernel would stop before the closing order fills
        raise ConfigError(f"kernel.post_margin_seconds: must be at least "
                          f"{least / NANOS_PER_SECOND:g} ({CLOSING_HOPS} x (latency + "
                          f"computation delay)), got {setup.post_margin / NANOS_PER_SECOND:g}")
    # beside the traders: the exchange, the replay agent, the executor and its twin
    most = MAX_AGENTS - 3 - setup.include_twap_twin
    if setup.momentum_count > most:
        raise ConfigError(f"roster.momentum_count: must be at most {most}, so the roster stays "
                          f"within {MAX_AGENTS} agents, got {setup.momentum_count}")
    return setup


# -- manifest ----------------------------------------------------------------


def hash_artifacts(out_dir: Path) -> dict:
    hashes = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            rel = path.relative_to(out_dir).as_posix()
            hashes[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def write_manifest(mode: str, cfg: dict, out_dir: Path) -> Path:
    manifest = {"mode": mode, "seed": cfg["seed"], "config": cfg,
                "artifacts": hash_artifacts(out_dir)}
    path = Path(out_dir) / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- subcommands ---------------------------------------------------------------


def cmd_gen_data(cfg: dict, args: argparse.Namespace, out_dir: Path) -> int:
    flow = build_flow_config(cfg)
    path = out_dir / f"synthetic_{cfg['seed']}.csv"
    sidecar = generate_to_file(flow, path)
    print(f"wrote {sidecar['total_events']} events to {path}")
    return 0


def cmd_replay(cfg: dict, args: argparse.Namespace, out_dir: Path) -> int:
    setup = build_setup(cfg)
    setup.momentum_count = 0
    outcome = run_episode(setup, 0)
    outcome.log.to_jsonl(out_dir / "replay_log.jsonl")
    with open(out_dir / "book_final.csv", "w") as fh:
        fh.write(outcome.exchange.book.depth_csv())
    print(f"replayed {len(outcome.log)} deliveries; "
          f"book dump at {out_dir / 'book_final.csv'}")
    return 0


def cmd_train(cfg: dict, args: argparse.Namespace, out_dir: Path) -> int:
    setup = build_setup(cfg)
    outcome = train(setup, resume=bool(args.resume))
    traces = out_dir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    space = ActionSpace(setup.ddql.multipliers)
    for result in outcome.results:
        write_action_trace(result, traces / f"episode_{result.episode:04d}_actions.csv",
                           space)
    print(f"trained {len(outcome.results)} episodes; "
          f"learning curve at {outcome.learning_curve_path}")
    return 0


def cmd_evaluate(cfg: dict, args: argparse.Namespace, out_dir: Path) -> int:
    setup = build_setup(cfg)
    checkpoint = Path(args.checkpoint) if args.checkpoint else latest_checkpoint(out_dir)
    if checkpoint is None or not checkpoint.is_file():
        print("no checkpoint found; pass --checkpoint or train first", file=sys.stderr)
        return 2
    outcome = evaluate(setup, checkpoint)
    report_to_json({"comparison": outcome.comparison}, out_dir / "evaluation.json")
    space = ActionSpace(setup.ddql.multipliers)
    write_action_trace(outcome.candidate.result, out_dir / "ddql_actions.csv", space)
    write_action_trace(outcome.baseline.result, out_dir / "twap_actions.csv", space)
    print(f"action-trace distance {outcome.comparison.action_trace_distance:.4f}; "
          f"report at {out_dir / 'evaluation.json'}")
    return 0


def _fit_sections(flow: FlowSeries, realism: RealismConfig) -> tuple[dict, dict]:
    """All stylized-fact fits for one flow; returns (report sections, flat
    fits).  A metric short on data is recorded as refused and the rest
    still run."""
    sections: dict = {}
    fits: dict = {}
    for section, run, section_fits in (
        ("windowed_volume", lambda: windowed_volume(flow, realism.window_seconds),
         {"volume_gamma": "gamma", "volume_lognormal": "lognormal"}),
        ("interarrival", lambda: interarrival_fit(flow),
         {"interarrival_exponential": "exponential", "interarrival_weibull": "weibull"}),
        ("intraday", lambda: intraday_profile(flow, realism.bucket_minutes), {}),
    ):
        try:
            sections[section] = report = run()
            fits.update({name: getattr(report, dist) for name, dist in section_fits.items()})
        except InsufficientDataError as exc:
            print(f"warning: {section} skipped: {exc}", file=sys.stderr)
            sections[section] = {"refused": str(exc)}
            fits.update({name: FitRefusal(dist, str(exc), 0)
                         for name, dist in section_fits.items()})
    return sections, fits


def cmd_realism(cfg: dict, args: argparse.Namespace, out_dir: Path) -> int:
    realism = _build(RealismConfig, cfg, "realism")
    if not realism.paired:
        source = build_data_source(cfg)
        events = source.events_for_episode(0, cfg["seed"])
        if not events:
            print("no events to analyze", file=sys.stderr)
            return 2
        try:
            flow = FlowSeries.from_events(events)
        except UnorderedFlowError as exc:
            raise ConfigError(f"{source.paths[0]}: {exc}") from None
        sections, _ = _fit_sections(flow, realism)
        report_to_json(sections, out_dir / "realism.json")
        volume = sections["windowed_volume"]
        if hasattr(volume, "samples"):
            samples_to_csv(volume.samples, out_dir / "volume_samples.csv", "volume")
        inter = sections["interarrival"]
        if hasattr(inter, "gaps_seconds"):
            samples_to_csv(inter.gaps_seconds,
                           out_dir / "interarrival_samples.csv", "gap_seconds")
        print(f"report at {out_dir / 'realism.json'}")
        return 0

    # paired mode: identical roster and seeds, with and without the learning
    # agent, then per-parameter deltas
    setup = build_setup(cfg)
    if args.checkpoint:
        learner = LearnerState.load(Path(args.checkpoint), setup.ddql, setup.seed)
        learner.epsilon = 0.0
    else:
        learner = LearnerState(setup.ddql, setup.seed)  # acts at epsilon_start
    with_agent = run_episode(setup, 0, DDQLExecutionAgent(setup.ddql, learner,
                                                          train_enabled=False))
    without_agent = run_episode(setup, 0)
    session = (setup.ddql.session_start, setup.ddql.session_end)
    flow_with = FlowSeries.from_log(with_agent.log, session=session)
    flow_without = FlowSeries.from_log(without_agent.log, session=session)
    sections_with, fits_with = _fit_sections(flow_with, realism)
    sections_without, fits_without = _fit_sections(flow_without, realism)
    report_to_json({"with_agent": sections_with, "without_agent": sections_without,
                    "deltas": fit_deltas(fits_without, fits_with)}, out_dir / "realism.json")
    print(f"paired report at {out_dir / 'realism.json'}")
    return 0


COMMANDS = {
    "replay": cmd_replay,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "realism": cmd_realism,
    "gen-data": cmd_gen_data,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobsim", description="Order book simulation and execution-agent experiments.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="YAML config or a manifest.json")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--out", default=None, help="override output directory")
        if name == "train":
            cmd.add_argument("--resume", action="store_true",
                             help="continue training from the latest checkpoint")
        if name in ("evaluate", "realism"):
            cmd.add_argument("--checkpoint", default=None, help="checkpoint to load")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(load_config(args.config), args.seed, args.out)
    except (OSError, yaml.YAMLError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        status = COMMANDS[args.mode](cfg, args, out_dir)
    except (ConfigError, LobsterParseError, CheckpointError, CheckpointWriteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if status == 0:
        write_manifest(args.mode, cfg, out_dir)
    return status


if __name__ == "__main__":
    sys.exit(main())
