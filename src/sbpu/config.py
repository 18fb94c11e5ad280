"""JSON experiment configuration.

A config file resolves to a RunPlan: client objectives, diversity rates,
learning-rate schedule, defense policy, rounds, and the master seed.  Every
config object goes through the one check, _checked, against the annotated
parameters of what it builds: the top level, defense and attack objects
(FederationConfig, DefensePolicy, _attack), the objective spec (its kind's
builder), an explicit quadratic's clients and a classifier's dataset.  Range
checks then run on well-typed values; each stage reports all its failures.
Overrides (command-line values, a command's needs) are checked with the file,
and errors raised while building objects from a checked config are mapped too.

Named presets carry the diversity-rate defaults used for the four benchmark
settings (mnist 0.025, fmnist 0.25, cifar10 0.15, svhn 1.1), applied here
to synthetic objectives.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from types import UnionType
from typing import Any, get_args, get_origin

import numpy as np

from . import seeds
from .convergence import ConvergenceConfig
from .federation import ClientState, DefensePolicy, RunPlan
from .mutation import DiversityRates
from .objectives import (BlobDataset, ClassifierObjective, LrSchedule, QuadraticObjective,
                         constants_for)

PRESETS = {"mnist": 0.025, "fmnist": 0.25, "cifar10": 0.15, "svhn": 1.1}
ATTACK_TAGS = ("lia", "mia", "ir")

VERSION = "0.1.0"
_WRONG = object()   # what _conform returns for a value its annotation refuses


def _conform(t, v):
    """v as the annotation t (float | list[float], say) takes it, ints as floats, or _WRONG."""
    if get_origin(t) is UnionType:
        return next((w for w in map(partial(_conform, v=v), get_args(t)) if w is not _WRONG),
                    _WRONG)
    if get_origin(t) is list:
        out = [_conform(get_args(t)[0], x) for x in v] if isinstance(v, list) else [_WRONG]
        return _WRONG if _WRONG in out else out
    if t is float and type(v) is int and abs(v) <= sys.float_info.max:
        return float(v)
    return v if type(v) is t and (t is not float or math.isfinite(v)) else _WRONG


class ConfigError(ValueError):
    """One or more configuration violations; lists every one."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(self.violations))


def _checked(fn, d: dict, prefix: str = "", errs: list[str] | None = None, build=True) -> Any:
    """fn(**d) once each key of the config object d names a parameter of fn (anything
    inspect.signature reads) whose annotation takes its value, and none without a default is
    missing; else, or on fn's ValueError, a ConfigError names each violation after prefix.
    Given errs, unknown keys go there instead, and fn still runs.  build False only checks."""
    params = inspect.signature(fn, eval_str=True).parameters
    values = {k: _conform(params[k].annotation, v) for k, v in d.items() if k in params}
    unknown = [f"{prefix}unknown key {k!r}" for k in d if k not in params]
    wrong = [f"{prefix}missing key {k!r}" for k, p in params.items()
             if p.default is p.empty and k not in d]
    wrong += [f"{prefix}{k} must be {inspect.formatannotation(params[k].annotation)}, "
              f"got {d[k]!r}" for k, v in values.items() if v is _WRONG]
    if errs is not None:
        errs += unknown
    if wrong or unknown and errs is None:
        raise ConfigError(unknown + wrong)
    if not build:
        return None
    try:
        return fn(**values)
    except ValueError as e:   # e.g. DefensePolicy's range checks, or a nested _checked's
        raise ConfigError(unknown + [prefix + v for v in getattr(e, "violations", [str(e)])]) from e


def _gathered(errs: list[str], fn, *args, **kwargs) -> Any:
    """fn(*args, **kwargs), or None once the violations of its ConfigError join errs."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as e:
        errs += e.violations


def _attack(tag: str | None = None) -> str | None:
    """The attack object: run-attack runs its tag when --attack names none."""
    return tag


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
        errs = []
        cfg = _checked(cls, d, errs=errs)

        if cfg.preset is not None and cfg.preset not in PRESETS:
            errs.append(f"unknown preset {cfg.preset!r}; valid: {sorted(PRESETS)}")
        if cfg.beta is None and cfg.beta1 is None:
            cfg.beta = PRESETS.get(cfg.preset, 0.0)
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
        try:
            cfg.rates()
        except (ValueError, OverflowError) as e:   # e.g. beta ** 2, the default beta2, is inf
            if not any(b is not None and b < 0 for b in (cfg.beta, cfg.beta1, cfg.beta2)):
                errs.append(f"beta = {cfg.beta}, beta1 = {cfg.beta1}, beta2 = {cfg.beta2}: {e}")
        if cfg.check_bounds and not (cfg.alpha is not None and 0.0 < cfg.alpha < 0.5):
            errs.append(f"bound checks need 0 < alpha < 1/2 (1 - 4*alpha^2 must stay "
                        f"positive); got alpha = {cfg.alpha}")
        # the objective spec against its builder's signature; build_plan builds it
        _gathered(errs, lambda: _checked(*_builder(cfg.objective, cfg.K, cfg.seed),
                                         "objective: ", build=False))
        for schema, obj, prefix in ((DefensePolicy, cfg.defense, "defense: "),
                                    (_attack, cfg.attack, "attack: ")):
            _gathered(errs, _checked, schema, obj, prefix)
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
        with _construction_errors("objective: "):
            objs = build_objectives(self.objective, self.K, self.seed)
            schedule = self.build_schedule(objs)
        n_k = self.n_k or [1] * self.K
        clients = tuple(ClientState(id=k, n_k=n_k[k], objective=objs[k],
                                    E=self.E, batch_size=self.batch_size)
                        for k in range(self.K))
        with _construction_errors():    # RunPlan admits the clients
            return RunPlan(clients=clients, rates=self.rates(), schedule=schedule,
                           policy=_checked(DefensePolicy, self.defense), rounds=self.rounds,
                           seed=self.seed, w_init=objs[0].template(),
                           alpha=self.alpha, tie_gradients=self.tie_gradients)

    def build_schedule(self, objs) -> LrSchedule:
        if all(isinstance(o, QuadraticObjective) for o in objs):
            c = constants_for(objs, self.E, max(o.radius for o in objs))
            mu, gamma = c.mu, c.gamma
        elif self.mu is None:
            raise ConfigError(["classifier runs need an explicit 'mu'"])
        else:
            mu, gamma = self.mu, max(8.0, self.E)
        mu = mu if self.mu is None else self.mu
        gamma = gamma if self.gamma_override is None else self.gamma_override
        schedule = LrSchedule(mu=mu, gamma=gamma)
        # eta_t falls with t: positive and finite at the first and last step is at every step
        if not (mu * gamma > 0.0 and schedule.lr_at(0) < math.inf
                and schedule.lr_at(max(self.rounds * self.E - 1, 0)) > 0.0):
            raise ConfigError([f"learning rate 2/(mu*(t+gamma)) leaves the positive float "
                               f"range for mu = {mu}, gamma = {gamma}"])
        return schedule

    def attack_tag(self, given: str | None = None) -> str:
        """The attack run-attack runs: the given tag, else the attack object's."""
        tag = given or _checked(_attack, self.attack)
        if tag not in ATTACK_TAGS:
            raise ConfigError([f"unknown attack tag {tag!r}; valid tags: "
                               f"{{{', '.join(ATTACK_TAGS)}}}"])
        return tag

    def build_convergence(self) -> ConvergenceConfig:
        """The Monte-Carlo convergence experiment on this config's plan; alpha
        is the one check_bounds validated."""
        if self.rounds < 1:
            raise ConfigError(["convergence runs need rounds >= 1"])
        if self.rounds * self.E > np.iinfo(np.intp).max // 8:   # its per-step float64 series
            raise ConfigError([f"rounds * E = {self.rounds * self.E}: too many steps to record"])
        plan = self.build_plan()
        with _construction_errors("objective: "):    # e.g. classifier clients, or a moved schedule
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
def _construction_errors(prefix: str = ""):
    """Report an error raised while building objects from a checked config as a ConfigError,
    its message after prefix."""
    try:
        yield
    except (ValueError, TypeError, KeyError, IndexError, OverflowError, MemoryError) as e:
        raise ConfigError(getattr(e, "violations", [f"{prefix}{e}"])) from e


def build_objectives(spec: dict, K: int, seed: int) -> list:
    """The K client objectives of an objective spec: its kind names the builder, whose
    keyword parameters are the spec's other keys."""
    return _checked(*_builder(spec, K, seed), "objective: ")


def _builder(spec: dict, K: int, seed: int) -> tuple:
    """(the builder of the spec's kind for K clients and seed, the spec's other keys)."""
    builders = {"quadratic": _quadratic, "quadratic_random": _quadratic_random,
                "classifier": _classifier}
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in builders:
        raise ConfigError([f"objective: kind must be one of {sorted(builders)}, got {kind!r}"])
    return partial(builders[kind], K, seed), {k: v for k, v in spec.items() if k != "kind"}


def _quadratic(K: int, seed: int, *, clients: list[dict], radius: float = 1.0,
               layout: list[list[int]] | None = None) -> list[QuadraticObjective]:
    def client(*, center: list[float], matrix: list[float] | list[list[float]],
               sigma: float = 0.0) -> QuadraticObjective:
        """0.5 (w - center)^T A (w - center) with noise sigma; A is d x d, row-major if flat."""
        return QuadraticObjective(matrix=np.reshape(matrix, (len(center),) * 2), center=center,
                                  noise_sigma=sigma, radius=radius, layout=layout)

    if len(clients) != K:
        raise ValueError(f"clients must list {K} entries, one per client")
    errs = []   # every entry's violations, not just the first's
    objs = [_gathered(errs, _checked, client, c, f"clients[{k}]: ") for k, c in enumerate(clients)]
    if errs:
        raise ConfigError(errs)
    return objs


def _quadratic_random(K: int, seed: int, *, dim: int = 4, eig_range: list[float] = (1.0, 1.0),
                      center_spread: float = 0.0, radius: float = 1.0,
                      sigma: float | list[float] = 0.0, shared_matrix: bool = False,
                      layout: list[list[int]] | None = None) -> list[QuadraticObjective]:
    """A random strongly convex suite: eigenvalues in eig_range, centers in
    a ball of center_spread around the origin, common radius."""
    sigmas = [sigma] * K if isinstance(sigma, float) else sigma
    if len(eig_range) != 2:
        raise ValueError("eig_range must be [low, high]")
    if len(sigmas) != K:
        raise ValueError("sigma list must have one entry per client")
    out = []
    for k in range(K):
        if k == 0 or not shared_matrix:   # a shared matrix is client 0's
            rng = seeds.stream(seed, "objective", k)
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            A = q @ np.diag(rng.uniform(*eig_range, size=dim)) @ q.T
            A = 0.5 * (A + A.T)
        c_rng = seeds.stream(seed, "center", k)
        direction = c_rng.standard_normal(dim)
        center = center_spread * c_rng.uniform(0.0, 1.0) * (direction / np.linalg.norm(direction))
        out.append(QuadraticObjective(matrix=A, center=center, noise_sigma=sigmas[k],
                                      radius=radius, layout=layout))
    return out


def _classifier(K: int, seed: int, *, architecture: list[list[int | str]],
                dataset: dict = {}) -> list[ClassifierObjective]:
    arch = ClassifierObjective(architecture=architecture).architecture
    return [ClassifierObjective(architecture=arch, data_x=x, data_y=y)
            for x, y in _checked(partial(_dataset, K, seed, arch), dataset, "dataset: ")]


def _dataset(K: int, seed: int, arch, *, n: int = 32, spread: float = 0.15) -> list:
    """K samples of n labeled points each from one set of Gaussian blobs of this spread."""
    blobs = BlobDataset.make(arch[-1][1], arch[0][0], seeds.stream(seed, "blobs"), spread=spread)
    return [blobs.sample(n, seeds.stream(seed, "dataset", k)) for k in range(K)]
