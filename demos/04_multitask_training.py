"""Train the multitask network on a small synthetic corpus and inspect it.

One shared tanh trunk (64-128-256-256-256) feeds two heads: softmax over
subjects and a linear BMI estimate. Training is full-batch L-BFGS on the sum
of cross-entropy and half-squared BMI error with weight decay 1e-4. The
optimizer accepts only strong-Wolfe steps, so the loss history is monotone.
"""

import numpy as np

from pressmat import (
    GridSpec,
    NoiseSpec,
    TrainConfig,
    denoise_corpus,
    extract_table,
    forward,
    generate_corpus,
    train,
)
from pressmat.mtnet import fit_bmi_class_head, predict_bmi_class
from pressmat.baselines import build_bmi_classes

corpus = generate_corpus(
    n_subjects=5, frames_per_subject=60, postures=("supine", "left", "right"),
    noise=NoiseSpec(0.08, 0.01, 0.4), grid=GridSpec(32, 64, 1000.0, 1.5), seed=3,
)
table = extract_table(denoise_corpus(corpus))
X = table.active_matrix()

config = TrainConfig(max_iterations=200, seed=0)
model = train(X, table.subject_ids, table.bmi, config)

res = model.train_result
print(f"stopped after {res.n_iterations} iterations ({res.stop_reason}), "
      f"{res.n_evaluations} loss evaluations")
print(f"loss: {res.loss_history[0]:.3f} -> {res.loss:.4f} "
      f"(monotone: {all(b <= a for a, b in zip(res.loss_history, res.loss_history[1:]))})")

out = forward(model, X)
pred = np.array(model.subject_ids)[out.identity_probs.argmax(axis=1)]
acc = (pred == table.subject_ids).mean()
err = out.bmi_estimate - table.bmi
print(f"\ntraining identity accuracy: {acc:.3f}")
print(f"training BMI RMSE: {np.sqrt((err ** 2).mean()):.3f}")

# the 5-way BMI class head on fifth-layer activations
classes = build_bmi_classes(table.bmi_by_subject(), k=5)
labels = np.array([classes[s] for s in table.subject_ids])
fit_bmi_class_head(model, X, labels)
cls_acc = (predict_bmi_class(model, X) == labels).mean()
print(f"BMI class head training accuracy: {cls_acc:.3f}")
