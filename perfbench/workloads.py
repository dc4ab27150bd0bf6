"""The benchmark's workloads: the CLI invocations each one runs and the
inputs it makes from the seed.

This module imports only the standard library.  A child inherits the peak
RSS of the process that spawns it (the kernel folds the parent's high
water mark into the child's at exec), so the process that times the CLI
stays small until its children have exited.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

MODES = ("actual", "edp1", "edp2")

MC_TRIALS = 30_000_000
MC_THREADS = 2
MC_ATTACKS = (
    {"kind": "depolarize", "p": 0.05},
    {"kind": "coincidence_injection", "n_photons": 8, "c": 3},
)

LADDER_TRIALS = 2_000_000
LADDER_NMAX = 12
LADDER_MEAN_PHOTONS = 1.5


@dataclass(frozen=True)
class Simulate:
    """What a simulate invocation asks for."""

    protocol: str
    mode: str
    attack: dict
    trials: int
    seed: int


@dataclass(frozen=True)
class Invocation:
    """One `python -m squashkit ...` call."""

    args: tuple
    threads: Optional[int] = None  # SQUASHKIT_THREADS; None leaves it unset
    simulate: Optional[Simulate] = None


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple
    #: Traced layers that must record calls here: the layers this workload
    #: is chosen to exercise.
    uses: tuple

    @property
    def simulations(self) -> list:
        return [inv.simulate for inv in self.invocations if inv.simulate is not None]


NAMES = ("verify-n40", "mc-bb84", "ladder-bbm92")


def ladder_attack(seed: int) -> dict:
    """Seeded BBM92 attack: a random pure state on every block (m, n) with
    0 <= m, n <= 12.

    Block weights are a product of two thermal distributions with mean
    1.5 photons, cut at 12 and renormalized; vacuum blocks are included.
    """
    rng = random.Random(seed)
    ratio = LADDER_MEAN_PHOTONS / (1.0 + LADDER_MEAN_PHOTONS)
    thermal = [ratio**k for k in range(LADDER_NMAX + 1)]
    total = math.fsum(thermal)
    thermal = [t / total for t in thermal]
    blocks = []
    for m in range(LADDER_NMAX + 1):
        for n in range(LADDER_NMAX + 1):
            amps = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                    for _ in range((m + 1) * (n + 1))]
            norm = math.sqrt(math.fsum(abs(a) ** 2 for a in amps))
            blocks.append({
                "m": m,
                "n": n,
                "weight": thermal[m] * thermal[n],
                "amps": [[a.real / norm, a.imag / norm] for a in amps],
            })
    return {"kind": "custom", "blocks": blocks}


def _simulate(protocol, mode, attack, attack_args, trials, seed, threads=None):
    return Invocation(
        ("simulate", "--protocol", protocol, "--mode", mode, *attack_args,
         "--trials", str(trials), "--seed", str(seed), "--format", "json"),
        threads=threads,
        simulate=Simulate(protocol, mode, attack, trials, seed),
    )


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload `name`, with its inputs made from `seed` in `workdir`."""
    if name == "verify-n40":
        return Workload(
            name,
            (Invocation(("verify", "--nmax", "40", "--format", "json")),),
            uses=(
                "symfock.lift_gate",
                "symfock.lift_gate_oracle",
                "squash.apply_channel",
                "squash.build_squash",
                "squash.verify_completeness",
                "squash.verify_hadamard_invariance",
                "povm.virtual_povm",
                "povm.verify_povm_equivalence",
                "cli",
            ),
        )
    if name == "mc-bb84":
        return Workload(
            name,
            tuple(
                _simulate("bb84", "actual", attack, ("--attack", json.dumps(attack)),
                          MC_TRIALS, seed, MC_THREADS)
                for attack in MC_ATTACKS
            ),
            uses=("protocol.run_simulation", "cli"),
        )
    if name == "ladder-bbm92":
        attack = ladder_attack(seed)
        path = workdir / f"ladder-attack-seed{seed}.json"
        path.write_text(json.dumps(attack), encoding="utf-8")
        return Workload(
            name,
            tuple(
                _simulate("bbm92", mode, attack, ("--attack-file", str(path)),
                          LADDER_TRIALS, seed)
                for mode in MODES
            ),
            uses=("protocol.attack_from_dict", "protocol.eve_state",
                  "protocol.run_simulation", "squash.build_squash", "cli"),
        )
    raise ValueError(f"unknown workload {name!r}; choose one of {NAMES}")
