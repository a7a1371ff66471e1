"""The three LAPACK routines parastab calls, from scipy's compiled wrappers.

dgttrf and dgttrs factor and apply the tridiagonal systems of every
Crank-Nicolson march; lstsq solves the least-squares problem of the
inverse layer with dgelsd. They come from scipy's f2py extension
scipy/linalg/_flapack, the module scipy.linalg.lapack itself exports, loaded
by its file path: importing scipy.linalg would pull in scipy's array-API
layer, which costs more than all of parastab's own imports and is not used
here. The same compiled routines receive the same arguments, so every
result is bit-identical to the scipy.linalg call it replaces.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np


def _load_flapack():
    """scipy.linalg._flapack, loaded without importing scipy or scipy.linalg."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("parastab needs scipy, which is not installed")
    directory = os.path.join(spec.submodule_search_locations[0], "linalg")
    path = os.path.join(directory,
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy's compiled LAPACK wrappers (_flapack) not "
                          f"found in {directory}")
    loader = importlib.machinery.ExtensionFileLoader("_flapack", path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader("_flapack", loader))
    loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgttrf = _flapack.dgttrf
dgttrs = _flapack.dgttrs

_EPS = np.finfo(np.float64).eps
_INT32_MAX = np.iinfo(np.int32).max


def _work_size(value) -> int:
    """A work-array size dgelsd_lwork returned as a float, as an int."""
    value = int(value)
    if value < 0 or value > _INT32_MAX:
        raise ValueError("Too large work array required -- computation "
                         "cannot be performed with standard 32-bit LAPACK.")
    return value


def lstsq(a, b) -> np.ndarray:
    """The minimizer x of ||a x - b|| for a tall float64 a and a vector b:
    scipy.linalg.lstsq(a, b, lapack_driver="gelsd")[0], step by step, with
    its refusals and their texts."""
    a = np.asarray_chkfinite(a)
    b = np.asarray_chkfinite(b)
    m, n = a.shape
    work, iwork, info = _flapack.dgelsd_lwork(m, n, 1, _EPS)
    if info != 0:
        raise ValueError(f"Internal work array size computation failed: "
                         f"{info}")
    x, _, _, info = _flapack.dgelsd(a, b, _work_size(work),
                                    _work_size(iwork), _EPS, False, False)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least "
                                    "Squares")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal "
                         f"gelsd")
    return x[:n]
