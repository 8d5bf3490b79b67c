"""Numerical oracles and hand-written data shared by the test modules.

The gradient-checking helpers here are the independent oracle used
throughout: central finite differences in float64, perturbing every
element of every parameter array.  Analytic backward passes are compared
against them with a relative max-norm error.

They live in a plain module rather than ``conftest.py`` so that test
modules can import them by name even when another test directory on the
same run has a ``conftest.py`` of its own.
"""

import numpy as np

from ehrgen import _nn
from ehrgen.corpus import PatientRecord


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------

def numerical_grad(f, x, eps=1e-5):
    """Central-difference gradient of the scalar ``f()`` w.r.t. array ``x``.

    ``x`` is perturbed in place (and restored), so ``f`` must read it by
    reference — e.g. a closure over the parameter tree that contains it.
    """
    x = np.asarray(x)
    grad = np.zeros(x.shape, dtype=float)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def numerical_grad_tree(f, tree, eps=1e-5):
    """Finite-difference gradients for every array in a parameter tree.

    Returns a flat dict path -> gradient array, paths as produced by
    ``_nn.iter_arrays``.
    """
    return {path: numerical_grad(f, arr, eps) for path, arr in _nn.iter_arrays(tree)}


def rel_err(approx, exact):
    """Max-norm relative error, guarded for all-zero exact gradients."""
    exact = np.asarray(exact, dtype=float)
    approx = np.asarray(approx, dtype=float)
    scale = max(float(np.max(np.abs(exact))), 1e-8)
    return float(np.max(np.abs(approx - exact))) / scale


def assert_tree_close(analytic, numeric, tol, context=""):
    """Compare an analytic gradient tree against a flat numeric-grad dict."""
    analytic_flat = dict(_nn.iter_arrays(analytic))
    assert set(analytic_flat) == set(numeric), (
        f"{context}: gradient paths differ: "
        f"{sorted(set(analytic_flat) ^ set(numeric))}"
    )
    for path, num in numeric.items():
        err = rel_err(analytic_flat[path], num)
        assert err < tol, f"{context}: grad mismatch at {path}: rel err {err:.3g}"


# ---------------------------------------------------------------------------
# small corpora
# ---------------------------------------------------------------------------

def tiny_records():
    # four hand-written patients over a six-code alphabet
    return [
        PatientRecord("p0", (frozenset({"a"}), frozenset({"b", "c"}))),
        PatientRecord("p1", (frozenset({"a"}), frozenset({"b", "c"}), frozenset({"d"}))),
        PatientRecord("p2", (frozenset({"b", "c"}),)),
        PatientRecord("p3", (frozenset({"d"}), frozenset({"a"}), frozenset({"e", "f"}))),
    ]
