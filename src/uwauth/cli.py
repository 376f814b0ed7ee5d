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
import dataclasses
import functools
import json
import math
import os
import sys

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
    NoisySquaredDistances,
    Scenario,
    build_system,
    consistency_gap,
    sample_noisy_squared_distances,
    solve_position,
)

__all__ = ["main"]


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # OSError: an output file that cannot be written.
    except (DomainError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy failure: {exc} (achieved {exc.achieved}, "
              f"target {exc.target})", file=sys.stderr)
        return 3


# Built on the first main call, not at import, and kept: it holds only
# constants, parse_args returns a fresh Namespace each call, and the
# handlers look their helpers up as module globals when they run.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwauth",
        description="Position-based transmitter authentication toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pathloss",
                       help="print absorption and pathloss for one link")
    p.add_argument("-f", "--frequency-khz", type=float,
                   default=ChannelParams.frequency_khz)
    p.add_argument("-d", "--distance-m", type=float, default=1000.0)
    p.add_argument("-v", "--spreading-factor", type=float,
                   default=ChannelParams.spreading_factor)
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
    p.add_argument("--workers", type=int, default=1,
                   help="Monte Carlo threads, at most one per usable core; "
                        "the output does not depend on it (default 1)")
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
    if args.seed is not None and args.seed < 0:
        raise DomainError("--seed must be nonnegative")
    seed = cfg["seed"] if args.seed is None else args.seed
    if args.noise == "off":
        d = scen.alice_distances()
        obs = NoisySquaredDistances(d, np.zeros_like(d), d * d)
    else:
        obs = sample_noisy_squared_distances(
            scen.alice, scen.anchors, scen.channel,
            np.random.default_rng(seed))
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
    # Checked here, without creating the file, so a bad path wastes no sweep.
    directory = os.path.dirname(args.out) or "."
    if not os.path.isdir(directory):
        raise OSError(f"cannot write {args.out}: {directory} is not a "
                      f"directory")
    grid = _power_grid(cfg)
    scen = _scenario_from(cfg, power_db=float(grid[0]))
    thresholds, provenance = _thresholds_from(cfg, scen)
    spec = SweepSpec(
        scenario=scen, power_grid_db=grid, thresholds=thresholds,
        trials_per_point=cfg["trials"], master_seed=cfg["seed"],
        **{k: v for k, v in cfg["sweep"].items() if k == "analytic_eve_count"})
    rows = run_sweep(spec, workers=args.workers)

    columns = [f.name for f in dataclasses.fields(SweepRow)]
    with open(args.out, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            # getattr, not dataclasses.astuple, which deep-copies each row.
            values = (getattr(row, name) for name in columns)
            fh.write(",".join("" if v is None else repr(v) for v in values)
                     + "\n")
    meta = {
        "seed": cfg["seed"],
        "trials_per_point": cfg["trials"],
        "eve_mode": "uniform" if scen.eve is None else "fixed",
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
    scen = _scenario_from(cfg, power_db=_pick_power(cfg, args.power))
    p_fa, p_d = roc_curve(scen, points=args.points)
    print("p_fa,p_d")
    for fa, pd in zip(p_fa, p_d):
        print(f"{float(fa)!r},{float(pd)!r}")
    return 0


def _load_config(path: str) -> dict:
    # json reads Infinity, NaN and out-of-range literals such as 1e999 as
    # non-finite floats; they are refused here, where the literal is seen.
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
    _check_config(cfg, path)
    return cfg


def _check_config(cfg, path: str) -> None:
    """Refuse a parsed config unless it has the documented shape, naming
    the first offending field by its slash-joined path. Converts nothing.

    Numbers are ints or floats that fit a float, never booleans. trials,
    seed and analytic_eve_count are integer literals; the seed, used only
    as an integer, is nonnegative and may have any size.
    """
    def fail(at, reason):
        field = "/".join(str(part) for part in at) or "(top level)"
        raise ConfigError(f"{path}: field {field}: {reason}")

    def fields(node, at, required, optional=()):
        if not isinstance(node, dict):
            fail(at, "must be an object")
        for key in [*node, *required]:
            if key not in required and key not in optional:
                fail((*at, key), "unknown field")
            if key not in node:
                fail((*at, key), "required field is missing")

    def number(value, at, ok=lambda x: True, reason=None):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(at, "must be a number")
        try:
            float(value)
        except OverflowError:
            fail(at, "integer is too large for a float")
        if not ok(value):
            fail(at, reason)

    def integer(value, at, low, high=math.inf):
        if isinstance(value, bool) or not isinstance(value, int):
            fail(at, "must be an integer literal")
        if value < low:
            fail(at, f"must be at least {low}")
        if value > high:
            fail(at, f"integer is too large (at most {high})")

    def array(value, at, size, item, exact=True):
        if not isinstance(value, list):
            fail(at, "must be an array")
        if len(value) < size or exact and len(value) > size:
            fail(at, f"must hold {'' if exact else 'at least '}{size} items")
        for i, element in enumerate(value):
            item(element, (*at, i))

    def point(value, at):
        array(value, at, 2, number)

    fields(cfg, (), ("region", "anchors", "alice", "eve", "channel", "sweep",
                     "trials", "seed"))
    fields(cfg["region"], ("region",), ("width_m", "height_m"))
    for key, size in cfg["region"].items():
        number(size, ("region", key), lambda x: x > 0, "must be positive")
    array(cfg["anchors"], ("anchors",), 3, point, exact=False)
    point(cfg["alice"], ("alice",))
    if cfg["eve"] != "uniform":
        if not isinstance(cfg["eve"], list):
            fail(("eve",), 'must be a coordinate pair or "uniform"')
        point(cfg["eve"], ("eve",))
    fields(cfg["channel"], ("channel",), ("frequency_khz", "sound_speed_mps",
                                          "spreading_factor",
                                          "signal_design_gain"))
    for key, value in cfg["channel"].items():
        number(value, ("channel", key))
    sweep = cfg["sweep"]
    fields(sweep, ("sweep",), ("power_db", "thresholds"),
           ("analytic_eve_count",))
    array(sweep["power_db"], ("sweep", "power_db"), 3, number)
    raw, at = sweep["thresholds"], ("sweep", "thresholds")
    if isinstance(raw, dict):
        fields(raw, at, ("h0_quantiles",), ("at_power_db",))
        array(raw["h0_quantiles"], (*at, "h0_quantiles"), 1, exact=False,
              item=lambda q, a: number(q, a, lambda x: 0 < x < 1,
                                       "must lie strictly between 0 and 1"))
        number(raw.get("at_power_db", 0), (*at, "at_power_db"))
    elif isinstance(raw, list):
        array(raw, at, 1, exact=False, item=lambda t, a: number(
            t, a, lambda x: x >= 0, "must not be negative"))
    else:
        fail(at, "must be an array of thresholds or an object")
    # Each region point is one form per grid power and threshold.
    integer(sweep.get("analytic_eve_count", 1),
            ("sweep", "analytic_eve_count"), 1, 100_000)
    # 10^7 trials hold 160 MB of statistics per grid power.
    integer(cfg["trials"], ("trials",), 0, 10_000_000)
    integer(cfg["seed"], ("seed",), 0)


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
    # np.arange makes ceil(count) powers: at most as many as ROC points.
    count = (stop + step / 2.0 - start) / step
    if not count <= MAX_ROC_POINTS:
        raise ConfigError(f"sweep.power_db holds over {MAX_ROC_POINTS} powers")
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


if __name__ == "__main__":
    sys.exit(main())
