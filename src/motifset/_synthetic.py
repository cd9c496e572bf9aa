"""Deterministic synthetic image datasets for demos and self-contained tests.

Generates an IDX image/label file pair that looks like a 10-class, 28x28
byte-image problem: each class is a smooth random template and samples are
the template plus pixel noise, clipped back to byte range.  The task is
learnable by a small MLP but not linearly trivial at high noise.  Writing
actual IDX files keeps the full ingestion path (headers, gzip, caching)
exercised end to end without shipping any real dataset.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import IDX_FILES, write_idx


def _smooth(field: np.ndarray, passes: int = 2) -> np.ndarray:
    """Cheap box blur so class templates have spatial structure."""
    out = field
    for _ in range(passes):
        padded = np.pad(out, 1, mode="edge")
        out = (padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2]
               + padded[1:-1, 2:] + padded[1:-1, 1:-1]) / 5.0
    return out


def make_class_templates(n_classes: int = 10, side: int = 28,
                         seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng((seed, 0))
    templates = np.empty((n_classes, side, side))
    for k in range(n_classes):
        field = rng.uniform(0.0, 255.0, size=(side, side))
        templates[k] = _smooth(field)
    return templates


def make_samples(templates: np.ndarray, n_samples: int, noise_std: float,
                 seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Balanced byte images (n, side*side) and labels (n,)."""
    rng = np.random.default_rng((seed, 1))
    n_classes, side, _ = templates.shape
    labels = rng.integers(0, n_classes, size=n_samples)
    noise = rng.normal(0.0, noise_std, size=(n_samples, side, side))
    images = np.clip(templates[labels] + noise, 0.0, 255.0)
    return (images.reshape(n_samples, side * side).astype(np.uint8),
            labels.astype(np.uint8))


def write_synthetic_idx_dataset(directory, n_train: int = 2000,
                                n_test: int = 500, noise_std: float = 60.0,
                                seed: int = 0, side: int = 28,
                                n_classes: int = 10) -> dict[str, Path]:
    """Write a train/test IDX quartet; returns the four paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    templates = make_class_templates(n_classes, side, seed)
    x_tr, y_tr = make_samples(templates, n_train, noise_std, seed)
    x_te, y_te = make_samples(templates, n_test, noise_std, seed + 1)
    paths = {field: directory / name for field, name in IDX_FILES.items()}
    write_idx(paths["train_images"], paths["train_labels"],
              x_tr.reshape(n_train, side, side), y_tr)
    write_idx(paths["test_images"], paths["test_labels"],
              x_te.reshape(n_test, side, side), y_te)
    return paths
