"""The benchmark's workloads: derived inputs, one request, output checks.

Every workload is a closed loop with one caller in one process: the next
request starts when the previous one has returned. A CLI workload's
request is one `uwauth.cli.main` call; an operation is one CSV cell or
ROC point. The packet-auth request authenticates a seeded stream of
packets back to back; an operation is one packet.

The checks use the benchmark's own numpy code wherever the program's
answer can be recomputed cheaply (the channel noise model, seeded Monte
Carlo, per-packet residuals and least-squares positions). Analytic
probabilities are compared with `reference.json`, recorded from the
program by `record_reference.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Derived from the shipped configs; none of configs/ is edited. Sizes keep
# one request within about two seconds so a run holds several of them.
CLI_WORKLOADS = {
    "sweep-uniform": {
        "config": "configs/baseline.json",
        "sweep": {"analytic_eve_count": 20},
        "argv": ["sweep"],
    },
    "roc-fixed": {
        "config": "configs/fixed-eve.json",
        "argv": ["roc", "--points", "11"],
    },
}
PACKET_CONFIG = "configs/baseline.json"
PACKETS = 10_000
PACKET_POWER_DB = 50.0
PACKET_TARGET_PFA = 0.01

ANALYTIC_ABS_TOL = 1e-6  # the accuracy cdf/sf state for themselves
THRESHOLD_REL_TOL = 1e-6
PACKET_REL_TOL = 1e-9
MC_BLOCK = 4096  # trials per seeded block: the program's documented stream
PARALLEL_EFF_TRIALS = 500_000

NAMES = (*CLI_WORKLOADS, "packet-auth")


def derive_config(root: Path, name: str, seed: int) -> dict:
    spec = CLI_WORKLOADS[name]
    cfg = json.loads((root / spec["config"]).read_text())
    cfg["seed"] = seed
    cfg["sweep"].update(spec.get("sweep", {}))
    return cfg


def make(name: str, root: Path, work: Path, seed: int):
    if name == "packet-auth":
        return PacketAuth(root, seed)
    if CLI_WORKLOADS[name]["argv"][0] == "roc":
        return CliRoc(name, work)
    return CliSweep(name, work)


# ---------------------------------------------------------------------------
# Independent model code (mirrors the published channel and MC contracts)


def noise_std(d, channel: dict, power_db: float):
    """ToA range noise std (m): Thorp absorption, log-distance pathloss."""
    import numpy as np

    f2 = channel["frequency_khz"] ** 2
    alpha = (0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2)
             + 2.75e-4 * f2 + 0.003)
    pl = channel["spreading_factor"] * 10.0 * np.log10(d) + (d / 1000.0) * alpha
    c = channel["sound_speed_mps"]
    var = c * c * 10.0 ** (pl / 10.0) / (
        4.0 * 10.0 ** (power_db / 10.0) * channel["signal_design_gain"])
    return np.sqrt(var)


def _geometry(cfg: dict):
    import numpy as np

    xy = np.asarray(cfg["anchors"], dtype=float)
    A = np.column_stack([-2.0 * xy[:, 0], -2.0 * xy[:, 1], np.ones(len(xy))])
    alice = np.asarray(cfg["alice"], dtype=float)
    chi = np.array([alice[0], alice[1], alice @ alice])
    return xy, A, (xy ** 2).sum(axis=1), chi


def simulate_counts(cfg: dict, power_db: float, index: int, thresholds):
    """Uniform-Eve Monte Carlo (false alarms, misses) per threshold at one
    grid index, drawn from the same seeded blocks the program documents."""
    import numpy as np

    xy, A, anchor_sq, chi = _geometry(cfg)
    model = A @ chi
    ch = cfg["channel"]
    alice = np.asarray(cfg["alice"], dtype=float)
    d_a = np.hypot(xy[:, 0] - alice[0], xy[:, 1] - alice[1])
    s_a = noise_std(d_a, ch, power_db)
    w, h = cfg["region"]["width_m"], cfg["region"]["height_m"]
    th = np.asarray(thresholds, dtype=float)
    fa = np.zeros(th.size, dtype=np.int64)
    md = np.zeros(th.size, dtype=np.int64)
    trials = cfg["trials"]
    for g in range((trials + MC_BLOCK - 1) // MC_BLOCK):
        n = min(MC_BLOCK, trials - g * MC_BLOCK)
        rng = np.random.default_rng((cfg["seed"], index, g))
        z0 = rng.standard_normal((n, len(xy)))
        ts0 = (((d_a ** 2 + 2.0 * (z0 * s_a) * d_a) - anchor_sq - model) ** 2
               ).sum(axis=1)
        pos = rng.uniform([-w / 2, -h / 2], [w / 2, h / 2], size=(n, 2))
        d_e = np.hypot(pos[:, 0, None] - xy[:, 0], pos[:, 1, None] - xy[:, 1])
        s_e = noise_std(d_e, ch, power_db)
        z1 = rng.standard_normal((n, len(xy)))
        ts1 = (((d_e ** 2 + 2.0 * (z1 * s_e) * d_e) - anchor_sq - model) ** 2
               ).sum(axis=1)
        fa += (ts0[:, None] > th).sum(axis=0)
        md += (ts1[:, None] <= th).sum(axis=0)
    return fa, md


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def _close(a: float, b: float, abs_tol: float = 0.0, rel_tol: float = 0.0):
    return abs(a - b) <= abs_tol + rel_tol * abs(b)


# ---------------------------------------------------------------------------
# CLI workloads


class _Cli:
    def __init__(self, name: str, work: Path):
        self.name = name
        self.config_path = work / "config.json"
        self.out_path = work / "out.csv"
        self.argv = list(CLI_WORKLOADS[name]["argv"])
        self.argv.insert(1, str(self.config_path))
        self.stderr = io.StringIO()

    def setup(self) -> None:
        """Import the CLI and read the derived config."""
        from uwauth import cli

        self.cli = cli
        self.cfg = json.loads(self.config_path.read_text())
        self.reference = load_reference()[self.name]
        self.ops = len(self.reference)

    def call(self) -> int:
        with contextlib.redirect_stderr(self.stderr):
            return self.cli.main(self.argv)


class CliSweep(_Cli):
    def __init__(self, name: str, work: Path):
        super().__init__(name, work)
        self.argv[2:2] = ["--out", str(self.out_path)]
        self._checked: dict[str, int] = {}

    def collect(self):
        """Output of the request just made: (CSV text, bytes written)."""
        csv = self.out_path.read_text()
        meta = Path(str(self.out_path) + ".meta.json").stat().st_size
        return csv, len(csv.encode()) + meta

    @staticmethod
    def parse(csv: str) -> list:
        return [[float(v) if v else None for v in line.split(",")]
                for line in csv.splitlines()[1:]]

    def failed_ops(self, csv: str) -> int:
        if csv not in self._checked:
            self._checked[csv] = self._check(csv)
        return self._checked[csv]

    def _check(self, csv: str) -> int:
        import numpy as np

        ref = self.reference
        rows = self.parse(csv)
        if len(rows) != len(ref):
            return len(ref)
        per_power = len({r[1] for r in ref})
        n = self.cfg["trials"]
        bad = np.zeros(len(ref), dtype=bool)
        for k, (row, exp) in enumerate(zip(rows, ref)):
            power, th, fa_a, md_a, fa, md, se_fa, se_md = row
            bad[k] = not (
                power == exp[0]
                and _close(th, exp[1], rel_tol=THRESHOLD_REL_TOL)
                and _close(fa_a, exp[2], abs_tol=ANALYTIC_ABS_TOL)
                and _close(md_a, exp[3], abs_tol=ANALYTIC_ABS_TOL)
                and fa is not None and md is not None
                and se_fa == float(np.sqrt(fa * (1.0 - fa) / n))
                and se_md == float(np.sqrt(md * (1.0 - md) / n)))
        for i in range(len(ref) // per_power):
            cells = range(i * per_power, (i + 1) * per_power)
            fa, md = simulate_counts(self.cfg, rows[i * per_power][0], int(i),
                                     [rows[k][1] for k in cells])
            for j, k in enumerate(cells):
                if rows[k][4] != fa[j] / n or rows[k][5] != md[j] / n:
                    bad[k] = True
        return int(bad.sum())


class CliRoc(_Cli):
    def call(self) -> int:
        self.stdout = io.StringIO()
        with contextlib.redirect_stdout(self.stdout):
            return super().call()

    def collect(self):
        text = self.stdout.getvalue()
        return text, len(text.encode())

    @staticmethod
    def parse(text: str) -> list:
        lines = text.splitlines()
        if lines[:1] != ["p_fa,p_d"]:
            return []
        return [[float(v) for v in line.split(",")] for line in lines[1:]]

    def failed_ops(self, text: str) -> int:
        ref = self.reference
        rows = self.parse(text)
        if len(rows) != len(ref):
            return len(ref)
        bad = 0
        for (fa, pd), (fa_ref, pd_ref) in zip(rows, ref):
            if not (_close(fa, fa_ref, abs_tol=ANALYTIC_ABS_TOL)
                    and _close(pd, pd_ref, abs_tol=ANALYTIC_ABS_TOL)):
                bad += 1
        return bad


# ---------------------------------------------------------------------------
# Library workload: the fusion centre's per-packet path


class PacketAuth:
    """Calibrate a 1 % false-alarm threshold at one power, then
    authenticate a seeded stream of packets, half from the claimed
    (legitimate) position and half from uniformly placed impersonators."""

    name = "packet-auth"
    ops = PACKETS

    def __init__(self, root: Path, seed: int):
        self.cfg = json.loads((root / PACKET_CONFIG).read_text())
        self.seed = seed

    def setup(self) -> None:
        """Import the library, build the scenario, calibrate the threshold."""
        import numpy as np
        import uwauth
        from uwauth import authentication

        cfg = self.cfg
        self.authentication = authentication
        self.localization = uwauth.localization
        self.scenario = uwauth.Scenario(
            anchors=uwauth.AnchorArray(np.asarray(cfg["anchors"], float)),
            alice=np.asarray(cfg["alice"], float),
            eve=None,
            channel=uwauth.ChannelParams(transmit_power_db=PACKET_POWER_DB,
                                         **cfg["channel"]),
            region=(cfg["region"]["width_m"], cfg["region"]["height_m"]))
        self.calibrate()

    def calibrate(self) -> None:
        self.decision = self.authentication.calibrate_threshold(
            self.scenario, PACKET_TARGET_PFA)

    def generate(self) -> None:
        """Draw the packet stream from the seed (untimed)."""
        import numpy as np
        from uwauth import NoisySquaredDistances

        cfg = self.cfg
        rng = np.random.default_rng(self.seed)
        xy, self.A, self.anchor_sq, self.chi = _geometry(cfg)
        w, h = cfg["region"]["width_m"], cfg["region"]["height_m"]
        from_eve = rng.permutation(PACKETS) < PACKETS // 2
        tx = np.where(from_eve[:, None],
                      rng.uniform([-w / 2, -h / 2], [w / 2, h / 2],
                                  size=(PACKETS, 2)),
                      np.asarray(cfg["alice"], float))
        d = np.hypot(tx[:, 0, None] - xy[:, 0], tx[:, 1, None] - xy[:, 1])
        sigma = noise_std(d, cfg["channel"], PACKET_POWER_DB)
        self.observed = d * d + 2.0 * (rng.standard_normal(d.shape) * sigma) * d
        self.packets = [NoisySquaredDistances(d[k], sigma[k], self.observed[k])
                        for k in range(PACKETS)]

    def call(self):
        """Authenticate every packet; returns (per-packet ns, outputs)."""
        residual_vector = self.authentication.residual_vector
        test_statistic = self.authentication.test_statistic
        decide = self.authentication.decide
        build_system = self.localization.build_system
        solve_position = self.localization.solve_position
        anchors = self.scenario.anchors
        claim = self.scenario.alice
        decision = self.decision
        clock = time.perf_counter_ns
        lat, stats, verdicts, positions = [], [], [], []
        for pkt in self.packets:
            t0 = clock()
            ts = test_statistic(residual_vector(pkt, anchors, claim))
            verdict = decide(ts, decision)
            position = solve_position(*build_system(anchors, pkt.observed_sq_m2))
            lat.append(clock() - t0)
            stats.append(ts)
            verdicts.append(verdict)
            positions.append(position)
        return lat, (stats, verdicts, positions)

    def failed_ops(self, outputs) -> int:
        import numpy as np
        from uwauth import Hypothesis

        stats, verdicts, positions = outputs
        ts = np.asarray(stats)
        b = self.observed - self.anchor_sq
        ts_ref = ((b - self.A @ self.chi) ** 2).sum(axis=1)
        q, r = np.linalg.qr(self.A)
        pos_ref = np.linalg.solve(r, q.T @ b.T).T
        pos = np.asarray(positions)
        thr = self.decision.threshold
        h1 = np.array([v is Hypothesis.H1_IMPERSONATION for v in verdicts])
        ok = ((np.abs(ts - ts_ref) <= PACKET_REL_TOL * ts_ref)
              & (np.linalg.norm(pos - pos_ref, axis=1)
                 <= PACKET_REL_TOL * np.linalg.norm(pos_ref, axis=1))
              & (h1 == (ts > thr)))
        return int(PACKETS - np.count_nonzero(ok))

    def threshold_ok(self) -> bool:
        """The calibrated threshold matches the reference and its analytic
        false-alarm rate is the 1 % target."""
        from uwauth import h0_distribution

        thr = self.decision.threshold
        return (_close(thr, load_reference()[self.name]["threshold"],
                       rel_tol=THRESHOLD_REL_TOL)
                and _close(h0_distribution(self.scenario).sf(thr),
                           PACKET_TARGET_PFA, abs_tol=ANALYTIC_ABS_TOL))


# The host's cores are shared with other tenants, whose load makes the
# code here up to ~1.8x slower for stretches of seconds to minutes. Times
# are therefore scaled by PROBE_NOMINAL_S over the time of a host_probe()
# run next to them, which expresses them at the host's uncontended speed.
# The probe mixes interpreter work and small numpy calls (see README.md).
PROBE_NOMINAL_S = 0.040


def host_probe() -> float:
    """Seconds taken by a fixed piece of work that does not involve uwauth."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for k in range(200_000):
        acc += k * k
    a = np.arange(3.0)
    for _ in range(20_000):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def thread_caps(nproc: int) -> dict:
    """BLAS/OpenMP thread caps for the measured interpreter."""
    return {var: str(nproc) for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def nproc() -> int:
    return len(os.sched_getaffinity(0))
