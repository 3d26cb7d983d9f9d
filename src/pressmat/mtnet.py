"""Deep multitask network: shared tanh trunk, parallel identity and BMI heads.

The trunk is five dense layers (64, 128, 256, 256, 256) with tanh; the
identity head is softmax over the training subjects, the BMI head a single
affine unit. Training minimizes the mean of per-sample cross-entropy (exact,
with no floor on small probabilities) plus half-squared BMI error, with an
L2 penalty on weight matrices (biases excluded), by full-batch L-BFGS.

Inputs are z-scored per feature with statistics fit on the training data and
stored in the model; an extra multinomial logistic head over the fifth-layer
activations converts the regression model into a 5-way BMI classifier.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import lbfgs
from .baselines import check_finite, class_counts, zscore_fit
from .dataset import check_keys, check_mask, read_json, write_json

HIDDEN_SIZES = (64, 128, 256, 256, 256)
WEIGHT_DECAY = 1e-4  # L2 coefficient on weight matrices, trunk and class head alike
LBFGS_MEMORY = 10
GRAD_TOL = 1e-6      # gradient max-norm stop, trunk and class head
LOSS_TOL = 1e-10     # relative loss-change stop of the trunk fit


@dataclass(frozen=True)
class TrainConfig:
    max_iterations: int = 14500
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("iteration cap must be positive")


@dataclass(frozen=True)
class MultitaskOutput:
    identity_probs: np.ndarray      # (n, M), rows on the simplex
    bmi_estimate: np.ndarray        # (n,)
    bmi_class: np.ndarray | None    # (n,) class head argmax; None without a head


@dataclass
class BmiClassHead:
    """Multinomial logistic head over fifth-layer activations."""

    weight: np.ndarray  # (256, n_classes)
    bias: np.ndarray    # (n_classes,)
    train_result: lbfgs.MinimizeResult | None = field(default=None, repr=False)


@dataclass
class MultitaskModel:
    weights: list[np.ndarray]      # trunk weights, then identity head, then BMI head
    biases: list[np.ndarray]
    subject_ids: tuple[str, ...]   # identity class order
    norm_mean: np.ndarray          # (F,) statistics of the training fold
    norm_std: np.ndarray
    feature_mask: tuple[bool, ...]
    config: TrainConfig
    class_head: BmiClassHead | None = None
    train_result: lbfgs.MinimizeResult | None = field(default=None, repr=False)

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)


def _layer_dims(n_features: int, n_subjects: int) -> list[tuple[int, int]]:
    dims = []
    prev = n_features
    for h in HIDDEN_SIZES:
        dims.append((prev, h))
        prev = h
    dims.append((prev, n_subjects))  # identity head
    dims.append((prev, 1))           # BMI head
    return dims


def _init_params(dims, rng: np.random.Generator):
    weights, biases = [], []
    for fan_in, fan_out in dims:
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _pack(weights, biases) -> np.ndarray:
    return np.concatenate([w.ravel() for w in weights] + [b.ravel() for b in biases])


def _unpack(theta: np.ndarray, dims):
    """Views into theta shaped as (weights, biases); no copies."""
    weights, biases = [], []
    off = 0
    for fan_in, fan_out in dims:
        weights.append(theta[off:off + fan_in * fan_out].reshape(fan_in, fan_out))
        off += fan_in * fan_out
    for _, fan_out in dims:
        biases.append(theta[off:off + fan_out])
        off += fan_out
    return weights, biases


def _softmax_log(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def _forward_hidden(weights, biases, xn: np.ndarray) -> list[np.ndarray]:
    """Activations per trunk layer; index 0 is the (normalized) input."""
    hs = [xn]
    h = xn
    for w, b in zip(weights[:len(HIDDEN_SIZES)], biases[:len(HIDDEN_SIZES)]):
        z = h @ w
        z += b
        np.tanh(z, out=z)
        h = z
        hs.append(h)
    return hs


def forward(model: MultitaskModel, features: np.ndarray) -> MultitaskOutput:
    """Run the network on raw (unnormalized) active feature rows.

    One trunk pass feeds the identity head, the BMI head and, when the model
    has one, the BMI class head.
    """
    h = hidden_activations(model, features)
    logits = h @ model.weights[-2] + model.biases[-2]
    logp = _softmax_log(logits)
    bmi = (h @ model.weights[-1] + model.biases[-1]).ravel()
    head = model.class_head
    bmi_class = None if head is None else (h @ head.weight + head.bias).argmax(axis=1)
    return MultitaskOutput(identity_probs=np.exp(logp), bmi_estimate=bmi,
                           bmi_class=bmi_class)


def hidden_activations(model: MultitaskModel, features: np.ndarray) -> np.ndarray:
    """Fifth-hidden-layer activations (the representation the class head uses);
    every forward pass reads its rows here, so non-finite rows raise ValueError."""
    x = check_finite(np.atleast_2d(features))
    if x.shape[1] != model.n_features:
        raise ValueError(f"model expects {model.n_features} features, got {x.shape[1]}")
    xn = (x - model.norm_mean) / model.norm_std
    return _forward_hidden(model.weights, model.biases, xn)[-1]


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact mean softmax cross-entropy against integer labels, and its logit gradient.

    The stable log-softmax needs no floor: a label at log-probability -800 costs 800.
    """
    n = logits.shape[0]
    rows = np.arange(n)
    logp = _softmax_log(logits)
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return -logp[rows, labels].mean(), dlogits


def _decay_term(weights, weight_decay: float) -> float:
    return weight_decay * sum(float((w * w).sum()) for w in weights)


def _batch_loss_grad(theta, dims, xn, y_idx, bmi, weight_decay):
    """Mean (cross-entropy + half squared error) + L2 on weights, with gradient."""
    weights, biases = _unpack(theta, dims)
    n = xn.shape[0]
    hs = _forward_hidden(weights, biases, xn)
    h = hs[-1]
    ce, dlogits = _cross_entropy(h @ weights[-2] + biases[-2], y_idx)
    bhat = (h @ weights[-1] + biases[-1]).ravel()

    err = bhat - bmi
    mse = 0.5 * float(err @ err) / n
    loss = ce + mse + _decay_term(weights, weight_decay)

    grad = np.empty_like(theta)
    grad_w, grad_b = _unpack(grad, dims)

    dbhat = (err / n)[:, None]

    np.matmul(h.T, dlogits, out=grad_w[-2])
    np.sum(dlogits, axis=0, out=grad_b[-2])
    np.matmul(h.T, dbhat, out=grad_w[-1])
    np.sum(dbhat, axis=0, out=grad_b[-1])

    dh = dlogits @ weights[-2].T + dbhat * weights[-1].T  # the BMI head has one output
    for k in range(len(HIDDEN_SIZES) - 1, -1, -1):
        h_k = hs[k + 1]
        # dz = dh * (1 - h^2), built in place (h_k is not needed afterwards)
        np.multiply(h_k, h_k, out=h_k)
        np.subtract(1.0, h_k, out=h_k)
        dh *= h_k
        dz = dh
        np.matmul(hs[k].T, dz, out=grad_w[k])
        np.sum(dz, axis=0, out=grad_b[k])
        if k:  # no gradient is taken with respect to the input
            dh = dz @ weights[k].T

    # The weights lead the flat layout, so the L2 term is one pass over them.
    n_weights = sum(fan_in * fan_out for fan_in, fan_out in dims)
    grad[:n_weights] += (2.0 * weight_decay) * theta[:n_weights]
    return loss, grad


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train(
    features: np.ndarray,
    subjects,
    bmi: np.ndarray,
    config: TrainConfig = TrainConfig(),
    feature_mask: tuple[bool, ...] | None = None,
) -> MultitaskModel:
    """Fit the multitask network on raw active feature rows.

    ``subjects`` holds one label per row, of any kind ``np.unique`` sorts
    (subject names, or integer ids); ``np.unique``'s order is the identity
    class order. Features and BMI must be finite, with one BMI per row, and a
    ``feature_mask`` keeps one feature per column; anything else raises
    ValueError. Training is bit-deterministic given (data, config, seed) only
    on one machine at one BLAS thread count: the thread count changes the
    summation order inside matrix products, and the trajectory drifts from
    there (a one-input fit with identity labels unrelated to the input, at
    seed 1 and capped at 400 iterations, reached BMI R^2 0.99890 with two
    OpenBLAS threads and 0.99924 with one).
    """
    x = check_finite(features)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("features must be a non-empty 2-D array")
    feature_mask = None if feature_mask is None else check_mask(feature_mask, x.shape[1])
    bmi = check_finite(bmi, "BMI")
    if bmi.shape != (len(x),):
        raise ValueError(f"bmi needs one entry per row: shape {bmi.shape} for {len(x)} rows")
    order, y_idx = np.unique(subjects, return_inverse=True)
    y_idx, _ = class_counts(y_idx, len(x))
    subject_ids = tuple(order.tolist())
    if len(subject_ids) < 2:
        raise ValueError("need at least 2 subjects to train the identity head")

    mean, std = zscore_fit(x)
    xn = (x - mean) / std

    dims = _layer_dims(x.shape[1], len(subject_ids))
    rng = np.random.default_rng(config.seed)
    w0, b0 = _init_params(dims, rng)
    theta0 = _pack(w0, b0)

    def fun(theta):
        return _batch_loss_grad(theta, dims, xn, y_idx, bmi, WEIGHT_DECAY)

    result = lbfgs.minimize_lbfgs(
        fun, theta0, max_iterations=config.max_iterations,
        memory=LBFGS_MEMORY, grad_tol=GRAD_TOL, loss_tol=LOSS_TOL,
    )

    weights, biases = _unpack(result.x.copy(), dims)
    return MultitaskModel(
        weights=[w.copy() for w in weights],
        biases=[b.copy() for b in biases],
        subject_ids=subject_ids,
        norm_mean=mean,
        norm_std=std,
        feature_mask=feature_mask,
        config=config,
        train_result=result,
    )


def fit_bmi_class_head(
    model: MultitaskModel,
    features: np.ndarray,
    class_labels: np.ndarray,
    max_iterations: int = 2000,
) -> BmiClassHead:
    """Fit the post-hoc logistic head on fifth-layer activations.

    The head has one output per class id 0..max(class_labels); every id must
    occur; :func:`baselines.class_counts` checks the labels and
    :func:`hidden_activations` the features. Uses the trunk's weight-decay
    coefficient and runs L-BFGS until the gradient max-norm is below
    ``GRAD_TOL`` (convex problem).
    """
    h = hidden_activations(model, features)
    labels, counts = class_counts(class_labels, len(h))
    if not counts.all():
        raise ValueError(f"BMI class {np.argmin(counts)} absent from training data")
    n_classes = len(counts)
    dims = [(h.shape[1], n_classes)]

    def fun(theta):
        (w,), (b,) = _unpack(theta, dims)
        ce, dlogits = _cross_entropy(h @ w + b, labels)
        loss = ce + _decay_term([w], WEIGHT_DECAY)
        gw = h.T @ dlogits + 2.0 * WEIGHT_DECAY * w
        return loss, _pack([gw], [dlogits.sum(axis=0)])

    theta0 = np.zeros(h.shape[1] * n_classes + n_classes)
    result = lbfgs.minimize_lbfgs(
        fun, theta0, max_iterations=max_iterations,
        memory=LBFGS_MEMORY, grad_tol=GRAD_TOL, loss_tol=1e-16,
    )
    (w,), (b,) = _unpack(result.x, dims)
    head = BmiClassHead(weight=w.copy(), bias=b.copy(), train_result=result)
    model.class_head = head
    return head


def predict_bmi_class(model: MultitaskModel, features: np.ndarray) -> np.ndarray:
    if model.class_head is None:
        raise ValueError("model has no BMI class head; call fit_bmi_class_head first")
    return forward(model, features).bmi_class


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

MODEL_FORMAT = "pressmat-multitask-model"
MODEL_VERSION = 3
MODEL_KEYS = ["format", "version", "hidden_sizes", "subject_ids", "feature_mask", "norm_mean",
              "norm_std", "weights", "biases", "config", "class_head"]


def save_model(model: MultitaskModel, path: str) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "hidden_sizes": list(HIDDEN_SIZES),
        "subject_ids": list(model.subject_ids),
        "feature_mask": list(model.feature_mask) if model.feature_mask else None,
        "norm_mean": model.norm_mean.tolist(),
        "norm_std": model.norm_std.tolist(),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "config": asdict(model.config),
        "class_head": None
        if model.class_head is None
        else {
            "weight": model.class_head.weight.tolist(),
            "bias": model.class_head.bias.tolist(),
        },
    }
    write_json(path, doc, indent=None)


def load_model(path: str) -> MultitaskModel:
    def parse(doc):
        if doc.get("format") != MODEL_FORMAT:
            raise ValueError(f"format is {doc.get('format')!r}, not {MODEL_FORMAT!r}")
        if doc.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {doc.get('version')}")
        check_keys(doc, MODEL_KEYS, ())
        if doc["hidden_sizes"] != list(HIDDEN_SIZES):
            raise ValueError(f"hidden sizes {doc['hidden_sizes']} are not {list(HIDDEN_SIZES)}")
        head = doc["class_head"]
        if head is not None:
            check_keys(head, ["weight", "bias"], ())
            head = BmiClassHead(weight=np.asarray(head["weight"], dtype=np.float64),
                                bias=np.asarray(head["bias"], dtype=np.float64))
        model = MultitaskModel(
            weights=[np.asarray(w, dtype=np.float64) for w in doc["weights"]],
            biases=[np.asarray(b, dtype=np.float64) for b in doc["biases"]],
            subject_ids=tuple(doc["subject_ids"]),
            norm_mean=np.asarray(doc["norm_mean"], dtype=np.float64),
            norm_std=np.asarray(doc["norm_std"], dtype=np.float64),
            feature_mask=None if doc["feature_mask"] is None
            else check_mask(doc["feature_mask"], len(doc["norm_mean"])),
            config=TrainConfig(**check_keys(doc["config"], ["max_iterations", "seed"], ())),
            class_head=head,
        )
        if len(set(model.subject_ids)) != model.n_subjects:
            raise ValueError(f"subject_ids {list(model.subject_ids)} repeat an id")
        if not (np.shape(model.norm_std) == np.shape(model.norm_mean)
                and np.all(np.isfinite(model.norm_std) & (model.norm_std > 0))):
            raise ValueError("norm_std must hold one finite, positive entry per feature")
        dims = _layer_dims(len(model.norm_mean), model.n_subjects)  # trunk, then both heads
        weights, biases = model.weights, model.biases
        if head is not None:  # reads the last trunk layer, like the other heads
            dims.append((HIDDEN_SIZES[-1], np.size(head.bias)))
            weights, biases = weights + [head.weight], biases + [head.bias]
        if [np.shape(a) for a in weights + biases] != dims + [d[1:] for d in dims]:
            raise ValueError(f"weight and bias shapes do not chain from "
                             f"{len(model.norm_mean)} features through the trunk to the "
                             f"heads for {model.n_subjects} subjects and BMI")
        if not all(np.isfinite(a).all() for a in weights + biases + [model.norm_mean]):
            raise ValueError("weights, biases, norm_mean and the class head must be finite")
        return model

    return read_json(path, "model", parse)
