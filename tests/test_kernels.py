"""The sparse column-entropy kernel against a naive per-column oracle."""

import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np

from gementropy import _kernels
from gementropy.gem_io import N_SYMBOLS


def _random_batch(rng, n_maps=40):
    heights = rng.integers(1, 25, n_maps).astype(np.int64)
    widths = rng.integers(1, 9, n_maps).astype(np.int64)
    flat = rng.integers(0, N_SYMBOLS, int(np.sum(heights * widths))).astype(np.uint8)
    return flat, heights, widths


def _python_oracle(flat, heights, widths):
    """Naive per-column entropy, independent of the kernel."""
    out = []
    pos = 0
    for m, n in zip(heights, widths):
        rows = [flat[pos + i * n : pos + (i + 1) * n] for i in range(m)]
        for j in range(n):
            counts = Counter(int(row[j]) for row in rows)
            h = -sum((c / m) * math.log2(c / m) for c in counts.values())
            out.append(h)
        pos += m * n
    return np.array(out)


def test_kernel_matches_python_oracle():
    rng = np.random.default_rng(101)
    flat, heights, widths = _random_batch(rng, n_maps=20)
    got = _kernels.batch_column_entropies(flat, heights, widths)
    np.testing.assert_allclose(got, _python_oracle(flat, heights, widths), atol=1e-12)


def test_empty_batch():
    empty = np.zeros(0, dtype=np.uint8)
    none = np.zeros(0, dtype=np.int64)
    assert _kernels.batch_column_entropies(empty, none, none).shape == (0,)


def test_matrix_helper_single_map():
    """A batch of one (m, n) matrix."""
    rng = np.random.default_rng(102)
    codes = rng.integers(0, N_SYMBOLS, (12, 5)).astype(np.uint8)
    got = _kernels.batch_column_entropies(codes.reshape(-1), np.array([12]), np.array([5]))
    expected = _python_oracle(codes.reshape(-1), [12], [5])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_numpy_backend_runs_full_pipeline(tmp_path):
    gems = tmp_path / "gems.txt"
    gems.write_text("A1 X1 00000\nA2 Y12 00000\nA2 Y34 10000\n")
    out = subprocess.run(
        [
            sys.executable,
            "-m",
            "gementropy.cli",
            "score",
            "--gems",
            str(gems),
            "--out",
            str(tmp_path),
        ],
        env=dict(os.environ),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "scores.csv").exists()
