"""JSON experiment configuration.

A config file resolves to a RunPlan: client objectives, diversity rates,
learning-rate schedule, defense policy, rounds, and the master seed.  Every
field, and every field of the defense object (DefensePolicy's), is first
checked against its annotated type; the range checks then run on well-typed
fields.  Each stage reports all its failures together.
Overrides (command-line values, a command's needs) are checked with the file,
and errors raised while building objects from a checked config are mapped too.

Named presets carry the diversity-rate defaults used for the four benchmark
settings (mnist 0.025, fmnist 0.25, cifar10 0.15, svhn 1.1), applied here
to synthetic objectives.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from . import seeds
from .convergence import ConvergenceConfig
from .federation import ClientState, DefensePolicy, RunPlan
from .mutation import DiversityRates
from .objectives import (ClassifierObjective, LrSchedule, QuadraticObjective,
                         constants_for)

PRESETS = {"mnist": 0.025, "fmnist": 0.25, "cifar10": 0.15, "svhn": 1.1}
ATTACK_TAGS = ("lia", "mia", "ir")

VERSION = "0.1.0"


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# field annotation -> (accepts a value, what the value must be)
_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: math.isfinite(v) if isinstance(v, float)
              else _is_int(v) and abs(v) <= sys.float_info.max, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


class ConfigError(ValueError):
    """One or more configuration violations; lists every one."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.violations))


def _checked(cls, d: dict, prefix: str = "") -> tuple[Any, list[str]]:
    """(the dataclass cls built from d's entries that name its fields, floats as float;
    a violation per unknown key).  Values that their field's annotation, e.g. "float |
    None", refuses, or a ValueError from cls itself, raise a ConfigError that lists
    them after the unknown keys."""
    types = {f.name: f.type for f in fields(cls)}
    values, wrong = {}, []
    for k, v in d.items():
        if k in types:
            kind, _, optional = types[k].partition(" | ")
            accepts, want = _TYPES[kind]
            if not (accepts(v) or optional and v is None):
                wrong.append(f"{prefix}{k} must be {want}{' or null' if optional else ''}, "
                             f"got {v!r}")
            values[k] = float(v) if kind == "float" and accepts(v) else v
    unknown = [f"{prefix}unknown key {k!r}" for k in d if k not in types]
    if wrong:
        raise ConfigError(unknown + wrong)
    try:
        return cls(**values), unknown
    except ValueError as e:   # e.g. DefensePolicy's range checks
        raise ConfigError(unknown + [f"{prefix}{e}"]) from e


@dataclass
class FederationConfig:
    """Raw, JSON-mirroring experiment description."""

    experiment: str = "run"
    objective: dict = field(default_factory=dict)
    K: int = 1
    n_k: list[int] | None = None
    E: int = 1
    batch_size: int = 1
    beta: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    alpha: float | None = None
    mu: float | None = None
    gamma_override: float | None = None
    rounds: int = 0
    defense: dict = field(default_factory=lambda: {"tag": "none"})
    seed: int = 0
    out_dir: str = "out"
    tie_gradients: bool = False
    n_seeds: int = 32
    checkpoint_every: int = 0
    preset: str | None = None
    check_bounds: bool = False
    attack: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FederationConfig":
        cfg, errs = _checked(cls, d)

        if cfg.preset is not None:
            if cfg.preset not in PRESETS:
                errs.append(f"unknown preset {cfg.preset!r}; valid: {sorted(PRESETS)}")
            elif cfg.beta is None and cfg.beta1 is None:
                cfg.beta = PRESETS[cfg.preset]
        for name, lo in (("K", 1), ("rounds", 0), ("E", 1), ("batch_size", 1), ("n_seeds", 1),
                         ("checkpoint_every", 0), ("beta", 0), ("beta1", 0), ("beta2", 0)):
            if getattr(cfg, name) is not None and getattr(cfg, name) < lo:
                errs.append(f"{name} must be >= {lo}")
        for name in ("alpha", "mu", "gamma_override"):
            if getattr(cfg, name) is not None and getattr(cfg, name) <= 0:
                errs.append(f"{name} must be > 0")
        if not 0 <= cfg.seed < 2 ** 64:
            errs.append(f"seed must be an unsigned 64-bit integer, in [0, 2**64); got {cfg.seed}")
        if cfg.n_k is not None and (len(cfg.n_k) != cfg.K or any(n < 1 for n in cfg.n_k)):
            errs.append("n_k must list one positive sample count per client")
        if cfg.beta is None and cfg.beta1 is None:
            cfg.beta = 0.0
        if cfg.beta1 is not None and cfg.beta2 is None:
            try:
                cfg.beta1 ** 2      # the default beta2
            except OverflowError:
                errs.append("beta1 ** 2, the default beta2, overflows; set beta2")
        if cfg.check_bounds and not (cfg.alpha is not None and 0.0 < cfg.alpha < 0.5):
            errs.append(f"bound checks need 0 < alpha < 1/2 (1 - 4*alpha^2 must stay "
                        f"positive); got alpha = {cfg.alpha}")
        if "kind" not in cfg.objective:
            errs.append("objective spec must be an object with a 'kind'")
        try:
            errs += _checked(DefensePolicy, cfg.defense, "defense: ")[1]
        except ConfigError as e:
            errs += e.violations
        if errs:
            raise ConfigError(errs)
        return cfg

    @classmethod
    def from_file(cls, path, overrides: dict[str, Any] | None = None) -> "FederationConfig":
        """The config at path; overrides (e.g. command-line values) replace file
        keys and are checked with the file, after the file is checked alone."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as e:
            raise ConfigError([f"cannot read config: {e}"])
        except json.JSONDecodeError as e:
            raise ConfigError([f"config is not valid JSON: {e}"])
        if not isinstance(data, dict):
            raise ConfigError(["top-level config must be a JSON object"])
        cfg = cls.from_dict(data)
        return cls.from_dict({**data, **overrides}) if overrides else cfg

    # -- resolution -------------------------------------------------------

    def rates(self) -> DiversityRates:
        if self.beta1 is not None:
            b2 = self.beta2 if self.beta2 is not None else self.beta1 ** 2
            return DiversityRates(self.beta1, b2)
        return DiversityRates.from_beta(self.beta)

    def build_plan(self) -> RunPlan:
        with _construction_errors():
            objs = build_objectives(self.objective, self.K, self.seed)
            schedule = self.build_schedule(objs)
        n_k = self.n_k or [1] * self.K
        clients = tuple(ClientState(id=k, n_k=n_k[k], objective=objs[k],
                                    E=self.E, batch_size=self.batch_size)
                        for k in range(self.K))
        with _construction_errors():    # RunPlan admits the clients
            return RunPlan(clients=clients, rates=self.rates(), schedule=schedule,
                           policy=_checked(DefensePolicy, self.defense)[0], rounds=self.rounds,
                           seed=self.seed, w_init=objs[0].template(),
                           alpha=self.alpha, tie_gradients=self.tie_gradients)

    def build_schedule(self, objs) -> LrSchedule:
        if all(isinstance(o, QuadraticObjective) for o in objs):
            c = constants_for(objs, self.E, max(o.radius for o in objs))
            mu = self.mu if self.mu is not None else c.mu
            gamma = self.gamma_override if self.gamma_override is not None else c.gamma
        else:
            if self.mu is None:
                raise ConfigError(["classifier runs need an explicit 'mu'"])
            mu = self.mu
            gamma = self.gamma_override if self.gamma_override is not None else max(8.0, self.E)
        schedule = LrSchedule(mu=mu, gamma=gamma)
        # eta_t falls with t: positive and finite at the first and last step is at every step
        if not (mu * gamma > 0.0 and schedule.lr_at(0) < math.inf
                and schedule.lr_at(max(self.rounds * self.E - 1, 0)) > 0.0):
            raise ConfigError([f"learning rate 2/(mu*(t+gamma)) leaves the positive float "
                               f"range for mu = {mu}, gamma = {gamma}"])
        return schedule

    def attack_tag(self, given: str | None = None) -> str:
        """The attack run-attack runs: the given tag, else the config's."""
        tag = given or self.attack.get("tag")
        if tag not in ATTACK_TAGS:
            raise ConfigError([f"unknown attack tag {tag!r}; valid tags: "
                               f"{{{', '.join(ATTACK_TAGS)}}}"])
        return tag

    def build_convergence(self) -> ConvergenceConfig:
        """The Monte-Carlo convergence experiment on this config's plan; alpha
        is the one check_bounds validated."""
        if self.rounds < 1:
            raise ConfigError(["convergence runs need rounds >= 1"])
        plan = self.build_plan()
        with _construction_errors():    # e.g. classifier clients
            return ConvergenceConfig(plan=plan, alpha=self.alpha, n_seeds=self.n_seeds)

    def manifest(self) -> dict:
        rates = self.rates()
        return {
            "version": VERSION,
            "experiment": self.experiment,
            "seed": self.seed,
            "beta1": rates.beta1,
            "beta2": rates.beta2,
            "config": {f.name: getattr(self, f.name) for f in fields(self)},
        }


@contextmanager
def _construction_errors():
    """Report an error raised while building objects from a checked config as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, IndexError, OverflowError, MemoryError) as e:
        raise ConfigError([f"objective: {e}"]) from e


def build_objectives(spec: dict, K: int, seed: int) -> list:
    kind = spec.get("kind")
    if kind == "quadratic":
        return _quadratic_explicit(spec, K)
    if kind == "quadratic_random":
        return _quadratic_random(spec, K, seed)
    if kind == "classifier":
        return _classifier(spec, K, seed)
    raise ConfigError([f"unknown objective kind {kind!r}"])


def _quadratic_explicit(spec: dict, K: int) -> list[QuadraticObjective]:
    clients = spec.get("clients")
    if not isinstance(clients, list) or len(clients) != K:
        raise ConfigError([f"quadratic objective needs a 'clients' list of length {K}"])
    radius = float(spec.get("radius", 1.0))
    out = []
    for k, c in enumerate(clients):
        center = np.asarray(c["center"], dtype=np.float64).ravel()
        d = center.size
        matrix = np.asarray(c["matrix"], dtype=np.float64).reshape(d, d)  # row-major
        out.append(QuadraticObjective(matrix=matrix, center=center,
                                      noise_sigma=float(c.get("sigma", 0.0)),
                                      radius=radius,
                                      layout=spec.get("layout")))
    return out


def _quadratic_random(spec: dict, K: int, seed: int) -> list[QuadraticObjective]:
    """A random strongly convex suite: eigenvalues in eig_range, centers in
    a ball of center_spread around the origin, common radius."""
    dim = int(spec.get("dim", 4))
    lo, hi = spec.get("eig_range", [1.0, 1.0])
    spread = float(spec.get("center_spread", 0.0))
    radius = float(spec.get("radius", 1.0))
    sigma = spec.get("sigma", 0.0)
    sigmas = [float(sigma)] * K if np.isscalar(sigma) else [float(s) for s in sigma]
    if len(sigmas) != K:
        raise ConfigError(["sigma list must have one entry per client"])
    shared = bool(spec.get("shared_matrix", False))
    layout = spec.get("layout")
    out = []
    for k in range(K):
        if k == 0 or not shared:   # a shared matrix is client 0's
            rng = seeds.stream(seed, "objective", k)
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            eigs = rng.uniform(float(lo), float(hi), size=dim)
            A = q @ np.diag(eigs) @ q.T
            A = 0.5 * (A + A.T)
        c_rng = seeds.stream(seed, "center", k)
        direction = c_rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        center = spread * float(c_rng.uniform(0.0, 1.0)) * direction
        out.append(QuadraticObjective(matrix=A, center=center, noise_sigma=sigmas[k],
                                      radius=radius, layout=layout))
    return out


def _classifier(spec: dict, K: int, seed: int) -> list[ClassifierObjective]:
    from .attacks import BlobDataset

    arch = tuple((int(i), int(o), str(a)) for i, o, a in spec.get("architecture", ()))
    if not arch:
        raise ConfigError(["classifier objective needs an 'architecture'"])
    ds = spec.get("dataset", {})
    if not isinstance(ds, dict):
        raise ConfigError(["dataset must be an object"])
    n = int(ds.get("n", 32))
    spread = float(ds.get("spread", 0.15))
    n_c = arch[-1][1]
    dim = arch[0][0]
    blobs = BlobDataset.make(n_c, dim, seeds.stream(seed, "blobs"), spread=spread)
    out = []
    for k in range(K):
        x, y = blobs.sample(n, seeds.stream(seed, "dataset", k))
        out.append(ClassifierObjective(architecture=arch, data_x=x, data_y=y))
    return out
