"""Desk-scale privacy attacks against shared classifier parameters.

Three attacks are implemented against the tiny softmax classifiers from the
objectives module:

* label inference -- invert the final-layer bias gradient, whose j-th entry
  equals mean predicted probability minus count_j / batch_size, to recover
  the per-class label counts of a training batch;
* membership inference -- a shadow-model attack: feed disjoint shadow data
  through a copy of the victim model and through the aggregate of the other
  clients, label the prediction vectors in/out, train a small inference
  network on them, and score a suspect set of hidden origin;
* input reconstruction -- gradient matching: descend on the squared
  distance between the gradient produced by a dummy input and the gradient
  shared by the victim.

Attacks are read-only over frozen models; every run owns its RNG stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import params as P
from . import seeds
from .mutation import DiversityRates, GlobalHistory, generate_diverse_models
from .objectives import BlobDataset, ClassifierObjective, softmax
from .params import LayeredParams


# ---------------------------------------------------------------------------
# reports and metric helpers

@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float

    def __post_init__(self):
        for v in (self.precision, self.recall, self.f1):
            if not (0.0 <= v <= 1.0):
                raise ValueError("scores must lie in [0, 1]")


@dataclass(frozen=True)
class AttackReport:
    attack: str
    setting: str = ""
    member: ClassScores | None = None
    nonmember: ClassScores | None = None
    accuracy: float | None = None
    label_count_error: int | None = None


def _prf(tp: int, fp: int, fn: int) -> ClassScores:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClassScores(precision, recall, f1)


def confusion_scores(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[ClassScores, ClassScores, float]:
    """(member scores, nonmember scores, accuracy) for binary labels (1 = member)."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    acc = (tp + tn) / max(len(y_true), 1)
    return _prf(tp, fp, fn), _prf(tn, fn, fp), acc


# ---------------------------------------------------------------------------
# label inference

def lia_infer_counts(bias_grad: np.ndarray, mean_pred: np.ndarray, bs: int) -> np.ndarray:
    """Per-class label counts from the final-layer bias gradient.

    The mean-loss bias gradient is mean(y') - counts/bs, so
    counts = round(bs * (mean_pred - bias_grad)), clamped to [0, bs].
    """
    bias_grad = np.asarray(bias_grad, dtype=np.float64).ravel()
    mean_pred = np.asarray(mean_pred, dtype=np.float64).ravel()
    if bias_grad.size != mean_pred.size:
        raise ValueError("vectors must share the class dimension")
    if bs < 1:
        raise ValueError("batch size must be >= 1")
    counts = np.rint(bs * (mean_pred - bias_grad)).astype(np.int64)
    return np.clip(counts, 0, bs)


def final_bias_gradient(grad: LayeredParams) -> np.ndarray:
    """The uploaded gradient's final-layer bias row (what the attacker reads)."""
    last = grad.layers[-1]
    if last.kind != "bias":
        raise ValueError("final layer of the gradient is not a bias layer")
    return last.filters.ravel().copy()


def estimate_mean_predictions(obj: ClassifierObjective, w: LayeredParams,
                              n_probes: int, rng: np.random.Generator) -> np.ndarray:
    """Average softmax output over uniform probes from the unit hypercube."""
    if n_probes < 1:
        raise ValueError("need at least one probe")
    d = obj.architecture[0][0]
    probes = rng.uniform(0.0, 1.0, size=(n_probes, d))
    return np.mean(obj.predict(w, probes), axis=0)


# ---------------------------------------------------------------------------
# tiny Adam trainer for the inference network

@dataclass(frozen=True)
class MiaTrainConfig:
    epochs: int = 100
    lr: float = 0.005
    hidden: int = 128
    seed: int = 0


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_train(obj: ClassifierObjective, w: LayeredParams, epochs: int,
               lr: float) -> LayeredParams:
    """Full-batch Adam on the objective's embedded dataset."""
    v = w.vector
    m = np.zeros_like(v)
    s = np.zeros_like(v)
    for t in range(1, epochs + 1):
        g = obj.grad(P.from_vector(v, w)).vector
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        s = ADAM_BETA2 * s + (1.0 - ADAM_BETA2) * g * g
        mh = m / (1.0 - ADAM_BETA1 ** t)
        sh = s / (1.0 - ADAM_BETA2 ** t)
        v = v - lr * mh / (np.sqrt(sh) + ADAM_EPS)
    return P.from_vector(v, w)


# ---------------------------------------------------------------------------
# membership inference

@dataclass(frozen=True)
class ShadowSetup:
    """Frozen models plus disjoint shadow halves for the inference attack."""

    model: ClassifierObjective          # architecture for forward passes
    victim_params: LayeredParams
    others_params: LayeredParams
    shadow_victim_x: np.ndarray
    shadow_others_x: np.ndarray

    def __post_init__(self):
        sv = np.asarray(self.shadow_victim_x, dtype=np.float64)
        so = np.asarray(self.shadow_others_x, dtype=np.float64)
        if sv.shape[0] == 0 or so.shape[0] == 0:
            raise ValueError("degenerate shadow split: one side is empty")
        overlap = {r.tobytes() for r in sv} & {r.tobytes() for r in so}
        if overlap:
            raise ValueError("shadow halves must be disjoint")
        object.__setattr__(self, "shadow_victim_x", sv)
        object.__setattr__(self, "shadow_others_x", so)


def mia_run(setup: ShadowSetup, suspect_members: np.ndarray,
            suspect_nonmembers: np.ndarray,
            train_cfg: MiaTrainConfig = MiaTrainConfig()) -> AttackReport:
    """Train the inference network on shadow predictions and score suspects.

    Member suspects are observed through the victim copy, non-member
    suspects through the others model, mirroring how the shadow halves were
    labeled; the origin labels are used only for scoring.
    """
    model = setup.model
    n_c = model.n_c
    feats_in = model.predict(setup.victim_params, setup.shadow_victim_x)
    feats_out = model.predict(setup.others_params, setup.shadow_others_x)
    X = np.vstack([feats_in, feats_out])
    y = np.concatenate([np.ones(len(feats_in), dtype=np.int64),
                        np.zeros(len(feats_out), dtype=np.int64)])

    attack_net = ClassifierObjective(
        architecture=((n_c, train_cfg.hidden, "relu"), (train_cfg.hidden, 2, "linear")),
        data_x=X, data_y=y)
    w0 = attack_net.init_params(seeds.stream(train_cfg.seed, "mia-attack-init"))
    w = adam_train(attack_net, w0, epochs=train_cfg.epochs, lr=train_cfg.lr)

    sus_feats = np.vstack([model.predict(setup.victim_params, suspect_members),
                           model.predict(setup.others_params, suspect_nonmembers)])
    truth = np.concatenate([np.ones(len(suspect_members), dtype=np.int64),
                            np.zeros(len(suspect_nonmembers), dtype=np.int64)])
    pred = np.argmax(attack_net.predict(w, sus_feats), axis=1)
    member, nonmember, acc = confusion_scores(truth, pred)
    return AttackReport(attack="mia", member=member, nonmember=nonmember, accuracy=acc)


# ---------------------------------------------------------------------------
# input reconstruction

def ir_reconstruct(target_grad: LayeredParams, obj: ClassifierObjective,
                   model_w: LayeredParams, y_dummy: np.ndarray,
                   iters: int = 2000, step: float = 0.1,
                   rng: np.random.Generator | None = None,
                   x_init: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Gradient matching for a single-layer linear softmax model.

    Plain gradient descent over the dummy input x on
    ||dL(x, y_dummy; w)/dw - target||^2 with analytic gradients and
    best-iterate memory.  Returns (best x, best objective value).
    """
    if len(obj.architecture) != 1:
        raise ValueError("input reconstruction supports single linear-layer models")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    d, n_c, _ = obj.architecture[0]
    W = model_w.layers[0].filters
    b = model_w.layers[1].filters.ravel()
    Gw = target_grad.layers[0].filters
    Gb = target_grad.layers[1].filters.ravel()
    y = np.asarray(y_dummy, dtype=np.float64).ravel()
    if y.size != n_c:
        raise ValueError("y_dummy length must equal the class count")

    def objective_and_grad(x: np.ndarray):
        p = softmax(W @ x + b)
        r = p - y
        M = np.multiply.outer(r, x) - Gw
        v = r - Gb
        J = float(np.add.reduce(M * M, axis=None) + np.add.reduce(v * v, axis=None))
        # softmax Jacobian wrt logits (-outer(p, p) plus a diagonal can flip a zero's sign)
        S = np.diag(p) - np.multiply.outer(p, p)
        dJ_dr = 2.0 * (M @ x) + 2.0 * v
        grad = 2.0 * (M.T @ r) + W.T @ (S @ dJ_dr)
        return J, grad

    if x_init is not None:
        x = np.asarray(x_init, dtype=np.float64).ravel().copy()
    else:
        if rng is None:
            raise ValueError("need rng or x_init")
        x = rng.uniform(0.0, 1.0, size=d)
    best_obj, _ = objective_and_grad(x)
    best_x = x.copy()
    for i in range(iters):
        J, g = objective_and_grad(x)
        if not math.isfinite(J):
            raise RuntimeError(f"non-finite reconstruction objective at iteration {i}")
        if J < best_obj:
            best_obj, best_x = J, x.copy()
        x = x - step * g
    J, _ = objective_and_grad(x)
    if math.isfinite(J) and J < best_obj:
        best_obj, best_x = J, x.copy()
    return best_x, best_obj


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for unit-range signals."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    for v in (a, b):
        if np.min(v) < -1e-12 or np.max(v) > 1.0 + 1e-12:
            raise ValueError("values must lie in [0, 1]")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


# ---------------------------------------------------------------------------
# end-to-end experiment harnesses (used by the CLI and the test suite)

LIA_N_C, LIA_DIM = 4, 16                                 # lia_experiment's classifier
IR_DIM, IR_N_C, IR_ITERS, IR_STEP = 64, 10, 20000, 0.5   # ir_experiment's model and descent


def lia_experiment(seed: int, bs: int = 32, n_probes: int = 1000) -> AttackReport:
    """Probe-based label inference against an untrained LIA_DIM-16-LIA_N_C sigmoid classifier."""
    rng = seeds.stream(seed, "lia")
    obj = ClassifierObjective(architecture=((LIA_DIM, 16, "sigmoid"), (16, LIA_N_C, "linear")))
    w = obj.init_params(rng, scale=0.1)
    x = rng.uniform(0.0, 1.0, size=(bs, LIA_DIM))
    y = rng.integers(0, LIA_N_C, size=bs)
    bias_grad = final_bias_gradient(obj.grad(w, (x, y)))
    mean_pred = estimate_mean_predictions(obj, w, n_probes, rng)
    counts = lia_infer_counts(bias_grad, mean_pred, bs)
    truth = np.bincount(y, minlength=LIA_N_C)
    return AttackReport(attack="lia",
                        label_count_error=int(np.sum(np.abs(counts - truth))))


def mia_experiment(setting: str, seed: int) -> AttackReport:
    """Overfit-victim membership-inference testbed.

    settings: "shared" (classifier parameters visible to the attacker),
    "no_sharing" (attacker falls back to untrained stand-in models), and
    "chance" (victim and others models identical; control).  The attack
    network trains with MiaTrainConfig's defaults, seeded from seed.
    """
    if setting not in ("shared", "no_sharing", "chance"):
        raise ValueError(f"unknown MIA setting {setting!r}")
    rng = seeds.stream(seed, "mia", setting)
    n_c, dim = 4, 8
    blobs = BlobDataset.make(n_c, dim, rng)
    model = ClassifierObjective(architecture=((dim, 16, "relu"), (16, n_c, "linear")))

    member_x, member_y = blobs.sample(24, rng)
    shadow_x, _ = blobs.sample(120, rng)

    init = model.init_params(seeds.stream(seed, "mia", "init"), scale=0.3)
    victim_obj = ClassifierObjective(architecture=model.architecture,
                                     data_x=member_x, data_y=member_y)
    victim_w = adam_train(victim_obj, init, epochs=800, lr=0.01)   # memorizes members

    # others model: aggregate of three separately trained non-victim clients
    other_ws = []
    for k in range(3):
        ox, oy = blobs.sample(60, rng)
        other_obj = ClassifierObjective(architecture=model.architecture,
                                        data_x=ox, data_y=oy)
        other_ws.append(adam_train(other_obj, init, epochs=60, lr=0.01))
    others_w = other_ws[0]
    for ow in other_ws[1:]:
        others_w = P.add_scaled(others_w, 1.0, ow)
    others_w = P.scale(others_w, 1.0 / len(other_ws))

    if setting == "shared":
        v_params, o_params = victim_w, others_w
    elif setting == "no_sharing":
        v_params = o_params = init   # nothing shared: untrained stand-in
    else:
        v_params = o_params = others_w

    suspects_m = member_x
    suspects_n, _ = blobs.sample(len(member_x), rng)
    setup = ShadowSetup(model=model, victim_params=v_params, others_params=o_params,
                        shadow_victim_x=shadow_x[:60], shadow_others_x=shadow_x[60:])
    cfg = MiaTrainConfig(seed=seeds.child_seed(seed, "mia", "attack"))
    return replace(mia_run(setup, suspects_m, suspects_n, cfg), setting=setting)


def ir_experiment(seed: int) -> dict:
    """Matched vs SBPU-mismatched gradient matching on an IR_DIM-IR_N_C linear model."""
    rng = seeds.stream(seed, "ir")
    obj = ClassifierObjective(architecture=((IR_DIM, IR_N_C, "linear"),))
    w = obj.init_params(rng, scale=0.1)
    x_true = rng.uniform(0.0, 1.0, size=IR_DIM)
    label = int(rng.integers(0, IR_N_C))
    y_onehot = np.zeros(IR_N_C)
    y_onehot[label] = 1.0
    target = obj.grad(w, (x_true[None, :], np.array([label])))

    x_rec, obj_matched = ir_reconstruct(target, obj, w, y_onehot, iters=IR_ITERS,
                                        step=IR_STEP, rng=seeds.stream(seed, "ir", "init"))

    # the attacker holds the un-mutated aggregate while the gradient came
    # from a mutated dispatch
    prev = P.add_scaled(w, -0.05, target)
    hist = GlobalHistory(w_glb=w, w_prev=prev, w_prev2=prev, round=3)
    mutated = generate_diverse_models(hist, 1, DiversityRates(0.8, 0.64),
                                      seed=seeds.child_seed(seed, "ir", "sbpu"))[0]
    target_mut = obj.grad(mutated, (x_true[None, :], np.array([label])))
    _, obj_mismatched = ir_reconstruct(target_mut, obj, w, y_onehot, iters=IR_ITERS,
                                       step=IR_STEP, rng=seeds.stream(seed, "ir", "init"))

    return {
        "x_true": x_true,
        "x_rec": x_rec,
        "max_error": float(np.max(np.abs(x_rec - x_true))),
        "psnr_db": psnr(np.clip(x_rec, 0.0, 1.0), x_true),
        "objective_matched": obj_matched,
        "objective_mismatched": obj_mismatched,
    }
