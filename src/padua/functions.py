"""Built-in test functions on the square, shared by the CLI and the studies,
and evaluate, the one place where the package calls a user function."""

from dataclasses import dataclass

import numpy as np


class SampleEvaluationError(RuntimeError):
    """A sampled function failed to evaluate; the message carries the point."""


def as_real(values, dtype=float):
    """values as an array in dtype; TypeError unless bool, integer or float."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise TypeError(f"values of dtype {values.dtype} are not real numbers")
    return values.astype(dtype, copy=False)


def evaluate(f, x1, x2, dtype=float, name=None):
    """f on the broadcast of x1 and x2, as an array of that shape in dtype.

    f is called once on the arrays.  If that raises or returns another shape
    or non-real values (as_real), the points are visited one at a time in C
    order, and the first failure raises SampleEvaluationError naming the
    point: name(i) for the point's flat index i, when given, then x=(x1, x2).
    Float64 points reach f as Python floats, other float types as their own
    scalars, so 80-bit points stay 80-bit.  MemoryError or SampleEvaluationError
    from the call on the arrays propagates at once, with no per-point retry.
    """
    shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
    try:
        vals = as_real(f(x1, x2), dtype)
        if vals.shape == shape:
            return vals
    except (MemoryError, SampleEvaluationError):
        raise
    except Exception:
        pass
    columns = [np.broadcast_to(x, shape).ravel() for x in (x1, x2)]
    columns = [c.tolist() if c.dtype == np.float64 else list(c) for c in columns]
    out = np.empty(len(columns[0]), dtype=dtype)
    for i, (a, b) in enumerate(zip(*columns)):
        try:
            out[i] = as_real(f(a, b), dtype)
        except Exception as exc:
            where = "" if name is None else f"{name(i)}, "
            raise SampleEvaluationError(
                f"function evaluation failed at {where}x=({a}, {b})"
            ) from exc
    return out.reshape(shape)


@dataclass(frozen=True)
class TestFunction:
    """A named scalar function on the square with a smoothness note."""

    __test__ = False  # not a pytest class despite the name

    name: str
    evaluator: object
    smoothness_note: str

    def __call__(self, x1, x2):
        return self.evaluator(x1, x2)


def _const(x1, x2):
    return np.ones_like(np.asarray(x1, dtype=float) * np.asarray(x2, dtype=float))


def _coord1(x1, x2):
    return np.asarray(x1, dtype=float) + 0.0 * np.asarray(x2, dtype=float)


def _exp_sum(x1, x2):
    return np.exp(np.asarray(x1, dtype=float) + np.asarray(x2, dtype=float))


def _franke(x1, x2):
    # classic four-Gaussian benchmark, mapped from the unit square onto [-1,1]^2
    u = 4.5 * (np.asarray(x1, dtype=float) + 1.0)
    v = 4.5 * (np.asarray(x2, dtype=float) + 1.0)
    return (
        0.75 * np.exp(-((u - 2.0) ** 2 + (v - 2.0) ** 2) / 4.0)
        + 0.75 * np.exp(-((u + 1.0) ** 2) / 49.0 - (v + 1.0) / 10.0)
        + 0.5 * np.exp(-((u - 7.0) ** 2 + (v - 3.0) ** 2) / 4.0)
        - 0.2 * np.exp(-((u - 4.0) ** 2) - (v - 7.0) ** 2)
    )


def _abs_diag(x1, x2):
    return np.abs(np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float))


def _runge2d(x1, x2):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return 1.0 / (1.0 + 16.0 * (x1**2 + x2**2))


BUILTIN_FUNCTIONS = {
    f.name: f
    for f in (
        TestFunction("const", _const, "constant"),
        TestFunction("coord1", _coord1, "degree-1 polynomial"),
        TestFunction("franke", _franke, "smooth, four Gaussian bumps"),
        TestFunction("exp_sum", _exp_sum, "entire, super-geometric convergence"),
        TestFunction("abs_diag", _abs_diag, "Lipschitz, kink along the diagonal"),
        TestFunction("runge2d", _runge2d, "analytic, steep radial gradient"),
    )
}


def get(name):
    """Look up a built-in by name; raises KeyError with the known names."""
    try:
        return BUILTIN_FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_FUNCTIONS))
        raise KeyError(f"unknown function {name!r}; builtins: {known}") from None
