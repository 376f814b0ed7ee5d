"""Command-line front end: scenario configs in, CSV/JSON results out.

Subcommands: pathloss (channel model point query), localize (one
localization round), sweep (error rates over a transmit-power grid,
written as CSV plus a metadata sidecar), roc (analytic ROC curve).

Exit codes: 0 success, 2 usage or config error, 3 numerical-accuracy
failure. stdout carries only the machine-readable payload; everything
else goes to stderr. All randomness flows from the config's seed key;
there is no fallback seed, so every emitted number is reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import jsonschema
import numpy as np

from .channel import ChannelParams, absorption_db_per_km, pathloss_db
from .errors import AccuracyError, DomainError, GeometryError
from .experiment import (
    MAX_ROC_POINTS,
    SweepRow,
    SweepSpec,
    default_thresholds,
    roc_curve,
    run_sweep,
)
from .localization import (
    AnchorArray,
    Scenario,
    build_system,
    consistency_gap,
    sample_noisy_squared_distances,
    solve_position,
)

__all__ = ["main", "CONFIG_SCHEMA"]

CSV_HEADER = ("power_db,threshold,p_fa_analytic,p_md_analytic,"
              "p_fa_emp,p_md_emp,stderr_fa,stderr_md")

_POINT = {
    "type": "array", "items": {"type": "number"},
    "minItems": 2, "maxItems": 2,
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["region", "anchors", "alice", "eve", "channel",
                 "sweep", "trials", "seed"],
    "properties": {
        "region": {
            "type": "object",
            "additionalProperties": False,
            "required": ["width_m", "height_m"],
            "properties": {
                "width_m": {"type": "number", "exclusiveMinimum": 0},
                "height_m": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "anchors": {"type": "array", "items": _POINT, "minItems": 3},
        "alice": _POINT,
        "eve": {"oneOf": [_POINT, {"const": "uniform"}]},
        "channel": {
            "type": "object",
            "additionalProperties": False,
            "required": ["frequency_khz", "sound_speed_mps",
                         "spreading_factor", "signal_design_gain"],
            "properties": {
                "frequency_khz": {"type": "number"},
                "sound_speed_mps": {"type": "number"},
                "spreading_factor": {"type": "number"},
                "signal_design_gain": {"type": "number"},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["power_db", "thresholds"],
            "properties": {
                "power_db": {
                    "type": "array", "items": {"type": "number"},
                    "minItems": 3, "maxItems": 3,
                },
                "thresholds": {
                    "oneOf": [
                        {"type": "array", "minItems": 1,
                         "items": {"type": "number", "minimum": 0}},
                        {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["h0_quantiles"],
                            "properties": {
                                "h0_quantiles": {
                                    "type": "array", "minItems": 1,
                                    "items": {"type": "number",
                                              "exclusiveMinimum": 0,
                                              "exclusiveMaximum": 1},
                                },
                                "at_power_db": {"type": "number"},
                            },
                        },
                    ],
                },
                "analytic_eve_count": {"type": "integer", "minimum": 1},
            },
        },
        "trials": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer"},
    },
}


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy failure: {exc} (achieved {exc.achieved}, "
              f"target {exc.target})", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwauth",
        description="Position-based transmitter authentication toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pathloss",
                       help="print absorption and pathloss for one link")
    p.add_argument("-f", "--frequency-khz", type=float, default=10.0)
    p.add_argument("-d", "--distance-m", type=float, default=1000.0)
    p.add_argument("-v", "--spreading-factor", type=float, default=1.5)
    p.set_defaults(handler=_cmd_pathloss)

    p = sub.add_parser("localize",
                       help="run one localization round on a config")
    p.add_argument("config", help="scenario config JSON path")
    p.add_argument("--noise", choices=("on", "off"), default="on")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--power", type=float, default=None,
                   help="transmit power in dB (default: sweep grid midpoint)")
    p.set_defaults(handler=_cmd_localize)

    p = sub.add_parser("sweep",
                       help="evaluate error rates over the power grid")
    p.add_argument("config", help="scenario config JSON path")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("roc", help="print the analytic ROC curve as CSV")
    p.add_argument("config", help="scenario config JSON path")
    p.add_argument("--power", type=float, default=None,
                   help="transmit power in dB (default: sweep grid midpoint)")
    p.add_argument("--points", type=int, default=101,
                   help=f"ROC points, 2 to {MAX_ROC_POINTS} (default 101)")
    p.set_defaults(handler=_cmd_roc)
    return parser


def _cmd_pathloss(args) -> int:
    params = ChannelParams(frequency_khz=args.frequency_khz,
                           spreading_factor=args.spreading_factor)
    alpha = absorption_db_per_km(params.frequency_khz)
    pl = pathloss_db(args.distance_m, params)
    print(f"alpha={alpha:.6g} dB/km, PL={pl:.6g} dB")
    return 0


def _cmd_localize(args) -> int:
    cfg = _load_config(args.config)
    scen = _scenario_from(cfg, power_db=_pick_power(cfg, args.power))
    seed = cfg["seed"] if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    override = 0.0 if args.noise == "off" else None
    obs = sample_noisy_squared_distances(
        scen.alice, scen.anchors, scen.channel, rng,
        noise_std_override=override)
    estimate = solve_position(*build_system(scen.anchors, obs.observed_sq_m2))
    payload = {
        "x_m": estimate[0],
        "y_m": estimate[1],
        "consistency_gap_m2": consistency_gap(estimate),
        "noise_std_m": list(obs.noise_std_m),
    }
    print(json.dumps(payload))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    grid = _power_grid(cfg)
    scen = _scenario_from(cfg, power_db=float(grid[0]))
    thresholds, provenance = _thresholds_from(cfg, scen)
    spec_kwargs = dict(
        scenario=scen,
        power_grid_db=grid,
        thresholds=thresholds,
        trials_per_point=cfg["trials"],
        master_seed=cfg["seed"],
        eve_mode="uniform" if cfg["eve"] == "uniform" else "fixed",
    )
    count = cfg["sweep"].get("analytic_eve_count")
    if count is not None:
        spec_kwargs["analytic_eve_count"] = count
    spec = SweepSpec(**spec_kwargs)
    rows = run_sweep(spec, workers=args.workers)

    with open(args.out, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(_format_row(row) + "\n")
    meta = {
        "seed": cfg["seed"],
        "trials_per_point": cfg["trials"],
        "eve_mode": spec.eve_mode,
        "analytic_eve_count": spec.analytic_eve_count,
        "power_grid_db": [float(p) for p in grid],
        "thresholds": [float(t) for t in thresholds],
        "threshold_source": provenance,
    }
    with open(args.out + ".meta.json", "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(rows)} rows "
          f"({len(grid)} powers x {len(thresholds)} thresholds) "
          f"to {args.out}", file=sys.stderr)
    return 0


def _cmd_roc(args) -> int:
    cfg = _load_config(args.config)
    if cfg["eve"] == "uniform":
        raise ConfigError("roc requires a fixed eve position, not \"uniform\"")
    scen = _scenario_from(cfg, power_db=_pick_power(cfg, args.power))
    p_fa, p_d = roc_curve(scen, points=args.points)
    print("p_fa,p_d")
    for fa, pd in zip(p_fa, p_d):
        print(f"{float(fa)!r},{float(pd)!r}")
    return 0


def _load_config(path: str) -> dict:
    # json reads Infinity, NaN and out-of-range literals such as 1e999 as
    # non-finite floats, and the schema's "number" lets them through.
    def finite(token: str) -> float:
        value = float(token)
        if not math.isfinite(value):
            raise ConfigError(f"{path}: number {token} is not finite")
        return value

    # int() refuses literals over Python's digit limit (4300 by default).
    def integer(token: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ConfigError(f"{path}: integer literal of {len(token)} "
                              f"digits is too long") from None

    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_float=finite, parse_int=integer,
                            parse_constant=finite)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        field = "/".join(str(p) for p in err.absolute_path) or "(top level)"
        raise ConfigError(f"{path}: field {field}: {err.message}")
    # Integers stay exact Python ints, which the numeric code turns into
    # floats; the seed alone is used as an integer, of any size.
    for field, value in _leaves(cfg):
        if field != "seed" and isinstance(value, int):
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"{path}: field {field}: integer is too "
                                  f"large for a float") from None
    return cfg


def _leaves(node, prefix: str = ""):
    """(field, value) for every scalar in a parsed JSON tree, the field as
    the slash-joined path that schema errors report."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield prefix, node
        return
    for key, child in items:
        yield from _leaves(child, f"{prefix}/{key}" if prefix else str(key))


def _scenario_from(cfg: dict, *, power_db: float) -> Scenario:
    channel = ChannelParams(transmit_power_db=power_db, **cfg["channel"])
    eve = None if cfg["eve"] == "uniform" else np.asarray(cfg["eve"], float)
    return Scenario(
        anchors=AnchorArray(np.asarray(cfg["anchors"], dtype=float)),
        alice=np.asarray(cfg["alice"], dtype=float),
        eve=eve,
        channel=channel,
        region=(cfg["region"]["width_m"], cfg["region"]["height_m"]),
    )


def _power_grid(cfg: dict) -> np.ndarray:
    start, stop, step = cfg["sweep"]["power_db"]
    if step <= 0:
        raise ConfigError("sweep.power_db step must be positive")
    if stop < start:
        raise ConfigError("sweep.power_db stop must not precede start")
    return np.arange(start, stop + step / 2.0, step, dtype=float)


def _pick_power(cfg: dict, flag_value) -> float:
    if flag_value is not None:
        return float(flag_value)
    grid = _power_grid(cfg)
    return float(grid[len(grid) // 2])


def _thresholds_from(cfg: dict, scen: Scenario) -> tuple[np.ndarray, dict]:
    raw = cfg["sweep"]["thresholds"]
    if isinstance(raw, list):
        return np.asarray(raw, dtype=float), {"explicit": raw}
    quantiles = raw["h0_quantiles"]
    at_power = raw.get("at_power_db", 50.0)
    ths = default_thresholds(scen, at_power_db=at_power,
                             h0_quantiles=quantiles)
    return ths, {"h0_quantiles": quantiles, "at_power_db": at_power}


def _format_row(row: SweepRow) -> str:
    cells = [repr(row.power_db), repr(row.threshold),
             repr(row.p_fa_analytic), repr(row.p_md_analytic)]
    if row.p_fa_emp is None:
        cells += ["", "", "", ""]
    else:
        cells += [repr(row.p_fa_emp), repr(row.p_md_emp),
                  repr(row.stderr_fa), repr(row.stderr_md)]
    return ",".join(cells)


if __name__ == "__main__":
    sys.exit(main())
