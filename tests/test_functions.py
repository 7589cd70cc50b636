import numpy as np
import pytest

from padua import interp
from padua.analysis import lp_norm
from padua.cubature import build_rule, integrate
from padua.functions import SampleEvaluationError, evaluate
from padua.points import generate


def test_evaluate_does_not_retry_after_memory_error():
    calls = []

    def f(x1, x2):
        calls.append(np.shape(x1))
        if np.ndim(x1):
            raise MemoryError
        return x1 + x2

    with pytest.raises(MemoryError):
        evaluate(f, np.zeros((3, 1)), np.zeros((1, 3)))
    assert calls == [(3, 1)]


def test_evaluate_does_not_retry_after_sample_evaluation_error():
    calls = []

    def f(x1, x2):
        calls.append(np.shape(x1))
        raise SampleEvaluationError("inner")

    with pytest.raises(SampleEvaluationError, match="^inner$"):
        evaluate(f, np.zeros(4), np.zeros(4))
    assert calls == [(4,)]


def test_evaluate_broadcasts_and_visits_points_in_c_order():
    x1 = np.array([[0.5], [-0.25]])
    x2 = np.array([[0.0, 0.125, 1.0]])
    seen = []

    def scalar_only(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        seen.append((type(a), a, b))
        return a - 2.0 * b

    vals = evaluate(scalar_only, x1, x2)
    assert vals.shape == (2, 3) and vals.dtype == np.float64
    assert np.array_equal(vals, x1 - 2.0 * x2)
    # float64 points reach f as Python floats, in C order of the grid
    assert [(a, b) for _, a, b in seen] == [
        (a, b) for a in (0.5, -0.25) for b in (0.0, 0.125, 1.0)]
    assert all(t is float for t, _, _ in seen)


def test_evaluate_falls_back_on_a_wrong_shape():
    # a constant returned as a scalar is not the grid: the points are visited
    vals = evaluate(lambda a, b: 3.0, np.zeros((2, 1)), np.zeros((1, 2)))
    assert vals.shape == (2, 2) and np.all(vals == 3.0)


def test_evaluate_failure_names_the_point_and_chains_the_cause():
    def bad(a, b):
        if np.ndim(a) > 0:
            raise TypeError("scalar only")
        if b > 0.5:
            raise ZeroDivisionError("boom")
        return 0.0

    x2 = np.array([0.25, 0.75, 1.0])
    with pytest.raises(SampleEvaluationError) as info:
        evaluate(bad, 0.5, x2)
    assert str(info.value) == "function evaluation failed at x=(0.5, 0.75)"
    assert isinstance(info.value.__cause__, ZeroDivisionError)
    with pytest.raises(SampleEvaluationError) as info:
        evaluate(bad, 0.5, x2, name=lambda i: f"point {i}")
    assert str(info.value) == "function evaluation failed at point 1, x=(0.5, 0.75)"


def test_sample_evaluation_error_keeps_its_interp_name():
    assert interp.SampleEvaluationError is SampleEvaluationError


@pytest.mark.parametrize("samples", [np.ones(6) + 5j, np.full(6, "1.0"), np.full(6, None)])
def test_non_real_samples_raise_type_error_naming_the_dtype(samples):
    # a cast would keep only the real part of complex samples and parse strings
    with pytest.raises(TypeError, match=str(samples.dtype)):
        interp.to_coefficients(generate(2), samples)


def test_real_samples_of_every_real_dtype_stay_bitwise():
    pset = generate(3)
    values = np.arange(len(pset)) % 3
    for samples in (values, values.astype(np.float32), values.astype(bool), values.tolist()):
        got = interp.to_coefficients(pset, samples)
        assert np.array_equal(got, interp.to_coefficients(pset, np.asarray(samples, float)))


def test_non_real_function_values_name_the_first_point():
    # exp(i x1) has real part cos(x1): integrate and lp_norm read 0.7652 and
    # 0.7823 when the imaginary part was cut
    def f(x1, x2):
        return np.exp(1j * x1) + 0.0 * x2

    with pytest.raises(SampleEvaluationError, match=r"at node k=0, j=1, x=\(1\.0, ") as info:
        interp.sample(generate(3), f)
    assert isinstance(info.value.__cause__, TypeError)
    assert "complex128" in str(info.value.__cause__)
    with pytest.raises(SampleEvaluationError, match=r"at node k=0, j=1, ") as info:
        integrate(build_rule(generate(4)), f)
    assert isinstance(info.value.__cause__, TypeError)
    with pytest.raises(SampleEvaluationError, match=r"at x=\(") as info:
        lp_norm(f, 2)
    assert isinstance(info.value.__cause__, TypeError)


def test_evaluate_keeps_real_values_bitwise():
    x1, x2 = np.linspace(-1, 1, 5)[:, None], np.linspace(-1, 1, 4)[None, :]
    for f in (lambda a, b: np.exp(a + b), lambda a, b: (a > b), lambda a, b: np.float32(a) * b,
              lambda a, b: (3 * np.ones_like(a * b)).astype(int)):
        assert np.array_equal(evaluate(f, x1, x2), np.asarray(f(x1, x2), dtype=float))
    assert evaluate(lambda a, b: a + b, x1, x2, np.longdouble).dtype == np.longdouble
