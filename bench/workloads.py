"""The four workloads: the CLI operations of one round, made from a seed.

A run repeats whole rounds.  Round k uses environment seed
``env_seeds(seed)[k % ENV_SEEDS]``, so the inputs are a pure function of the
workload seed and the round index.  Every operation is one ``sharptail``
subcommand with a JSON config; the configs are written to files because the
CLI reads its config from a path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ENV_SEEDS = 3

BERNOULLI = {"kind": "binomial", "m": 1, "p": 0.5}
UNIFORM01 = {"kind": "uniform", "c": 0.0, "d": 1.0}

APPROX_N = 100_000
FCLT_N = 10_000
FCLT_REPLICAS = 100
FCLT_GRID = 3
TILTED_N = 10_000
TILTED_DRAWS = 50_000
A = 0.3
THETA_STAR = 1.2

TCELL_N = 1_000_000
# z_f * w_f / n = 0.01 moves the threshold far beyond the checks' tolerance,
# so a record computed at the unshifted threshold fails
TCELL = {"n": TCELL_N, "z_f": 40_000, "w_f": 0.25,
         "tau": {"kind": "exponential", "rate": 1.0},
         "z": {"kind": "binomial", "m": 10, "p": 0.1},
         "a": 0.27, "theta_star": 1.0}
PORTFOLIO = {
    "blocks": [
        {"q": 400_000, "w": {"kind": "two_point", "values": [0.0, 1.0], "probs": [0.5, 0.5]},
         "z": BERNOULLI},
        {"q": 300_000, "w": UNIFORM01, "z": {"kind": "binomial", "m": 3, "p": 0.2}},
        {"q": 200_000, "w": {"kind": "uniform", "c": 0.5, "d": 2.0},
         "z": {"kind": "gaussian", "sigma2": 1.0}},
        {"q": 100_000, "w": {"kind": "tcell_exponential", "rate": 1.0},
         "z": {"kind": "binomial", "m": 10, "p": 0.1}},
    ],
    "a": 0.3, "theta_star": 1.0,
}

WORKLOADS = ("cf-diagnostic", "fclt-replicas", "tilted-mc", "scenarios-wide-range")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand, its config and the extra flags."""

    kind: str
    config: dict
    flags: tuple[str, ...] = ()

    def argv(self, config_path: Path) -> list[str]:
        return [self.kind, "--config", str(config_path), *self.flags]


def env_seeds(seed: int) -> list[int]:
    return [seed * ENV_SEEDS + k for k in range(ENV_SEEDS)]


def _run_config(n: int, env_seed: int, **extra) -> dict:
    return {"z": BERNOULLI, "w": UNIFORM01, "n": n, "theta_star": THETA_STAR,
            "seed": env_seed, **extra}


def round_ops(workload: str, env_seed: int) -> list[Op]:
    """The operations of one round against one environment seed."""
    if workload == "cf-diagnostic":
        return [Op("approx", _run_config(APPROX_N, env_seed, a=A))]
    if workload == "fclt-replicas":
        return [Op("fclt", _run_config(FCLT_N, env_seed),
                   ("--replicas", str(FCLT_REPLICAS), "--grid", str(FCLT_GRID)))]
    if workload == "tilted-mc":
        return [Op("sample", _run_config(TILTED_N, env_seed, a=A),
                   ("--mode", "tilted", "--draws", str(TILTED_DRAWS)))]
    if workload == "scenarios-wide-range":
        return [Op("tcell", {**TCELL, "seed": env_seed}),
                Op("portfolio", {**PORTFOLIO, "seed": env_seed})]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_config(op: Op, directory: Path, index: int) -> Path:
    path = directory / f"op{index}-{op.kind}.json"
    path.write_text(json.dumps(op.config, indent=1), encoding="utf-8")
    return path
