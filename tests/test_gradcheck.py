"""The gradient checker must pass on correct code and catch planted bugs."""

import numpy as np
import pytest

from hiermem import autodiff as ad
from hiermem import gradcheck as gc
from hiermem.autodiff import Tensor


def test_grad_check_requires_float64():
    p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError):
        gc.grad_check(lambda: ad.reduce_sum(p), [p])


def test_grad_check_on_simple_quadratic():
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    errs = gc.grad_check(lambda: ad.reduce_sum(ad.mul(p, p)), [p])
    assert errs.shape == (1,)
    assert errs[0] < 1e-7


def test_finite_difference_forwards_record_no_tape():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    seen = []

    def fn():
        out = ad.reduce_sum(ad.mul(p, p))
        seen.append(out.requires_grad)
        return out

    gc.grad_check(fn, [p])
    assert seen == [True] + [False] * 4
    assert p.requires_grad


def test_grad_check_restores_requires_grad_when_fn_raises():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    calls = []

    def fn():
        calls.append(1)
        if len(calls) > 1:
            raise FloatingPointError("numeric forward failed")
        return ad.reduce_sum(ad.mul(p, p))

    with pytest.raises(FloatingPointError):
        gc.grad_check(fn, [p])
    assert p.requires_grad


def _run(*names):
    return [gc.run_case(name, gc.CASES[name], 0) for name in names]


def test_primitive_cases_all_pass_single_seed():
    results = _run(*gc.PRIMITIVE_CASES)
    assert all(r.passed for r in results)
    assert {r.name for r in results} == set(gc.PRIMITIVE_CASES)


def test_full_model_case_passes():
    [result] = _run("full_loss")
    assert result.passed
    assert result.max_rel_err < gc.DEFAULT_TOL


def test_projection_is_deterministic_within_case():
    # two evaluations of the same case closure must hit the identical scalar
    case = gc.PRIMITIVE_CASES["matrix_cosine"](np.random.default_rng(0))
    v1 = float(case.fn().data)
    v2 = float(case.fn().data)
    assert v1 == v2


def _sabotaged_relu(a):
    a = ad.as_tensor(a)
    keep = a.data > 0
    out_data = np.where(keep, a.data, 0)

    def bw():
        ad._accumulate(a, out.grad * keep * 1.01)  # planted 1% error

    out = ad._make(out_data, (a,), bw)
    return out


def test_fault_injection_detected(monkeypatch):
    monkeypatch.setattr(ad, "relu", _sabotaged_relu)
    results = _run("relu")
    assert not results[0].passed
    assert results[0].max_rel_err > gc.DEFAULT_TOL


def test_fault_injection_in_fused_relu_detected(monkeypatch):
    def bad_mask(g, out_data):
        return np.multiply(g, (out_data > 0) * 1.01, out=g)  # planted 1% error

    monkeypatch.setattr(ad, "_relu_grad_in_place", bad_mask)
    results = _run("matmul_relu", "matmul_adj_relu", "full_loss")
    assert [r.passed for r in results] == [False] * 3
    assert all(r.max_rel_err > gc.DEFAULT_TOL for r in results)


def test_a_missing_transpose_in_the_graph_convolution_is_detected(monkeypatch):
    # the cases' matrices are asymmetric, so a backward through adj_i
    # instead of adj_i^T is wrong
    propagate_runs = ad._propagate_runs

    def untransposed(*args, transpose=False, **kwargs):
        return propagate_runs(*args, **kwargs)

    monkeypatch.setattr(ad, "_propagate_runs", untransposed)
    names = ["matmul_adj", "matmul_adj_relu"]
    results = _run(*names)
    assert [r.passed for r in results] == [False] * len(names)


def test_full_loss_forward_logs_one_kink_entry_per_relu(monkeypatch):
    # enc1, enc2, enc3 and dec1 each apply a ReLU fused into their op; the
    # redraw past kinks needs every one of them in the log
    case = gc._full_loss_case(np.random.default_rng(0))
    monkeypatch.setattr(ad, "_kink_log", [])
    case.fn()
    assert [op for op, _ in ad._kink_log].count("relu") == 4


def test_fault_injection_in_matmul_detected(monkeypatch):
    def bad_matmul(a, b):
        a, b = ad.as_tensor(a), ad.as_tensor(b)
        out_data = a.data @ b.data

        def bw():
            g = out.grad
            # planted 2% scale error on the left-operand gradient
            ad._accumulate(a, (g @ np.swapaxes(b.data, -1, -2)) * 1.02)
            ad._accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

        out = ad._make(out_data, (a, b), bw)
        return out

    monkeypatch.setattr(ad, "matmul", bad_matmul)
    results = _run("matmul")
    assert not results[0].passed


def test_check_suite_runs_ten_seeds_quickly(monkeypatch):
    run_case, ran = gc.run_case, []

    def recording(name, builder, seed):
        ran.append((name, seed))
        return run_case(name, builder, seed)

    monkeypatch.setattr(gc, "run_case", recording)
    monkeypatch.setattr(gc, "CASES", {n: gc.CASES[n] for n in ("add", "sigmoid")})
    verdicts = gc.check_suite(seeds=range(10))
    assert ran == [(n, s) for n in ("add", "sigmoid") for s in range(10)]
    assert [v.name for v in verdicts] == ["add", "sigmoid"]
    assert all(v.passed for v in verdicts)


def _first_draw_near(op, near, far):
    """A builder whose first draw is `near(rng)` and whose later draws are
    `far(rng)`, each a leaf fed to `op`; records the leaves it hands out."""
    drawn = []

    def build(rng):
        x = Tensor((far if drawn else near)(rng), requires_grad=True)
        drawn.append(x.data.copy())
        return gc.CheckCase({"x": x}, lambda: ad.reduce_sum(op(x)))

    return build, drawn


def test_run_case_redraws_a_shrink_input_within_the_margin_of_lam():
    lam = 0.2

    def near(rng):
        return np.array([[0.5, lam + 5e-4, 0.3 - 5e-4]])

    def far(rng):
        return np.array([[0.5, 0.25, 0.25]])

    build, drawn = _first_draw_near(lambda x: ad.hard_shrink(x, lam), near, far)
    res = gc.run_case("shrink", build, seed=0)
    assert len(drawn) == 2
    assert res.passed and res.worst_seed == 0


def test_run_case_redraws_a_zero_norm_graph_under_matrix_cosine():
    m = np.random.default_rng(1).normal(size=(2, 2, 3))
    runs = ((1, 1), (1, 2))

    def near(rng):
        h = rng.normal(size=(3, 3))
        h[1:] = 0.0                                   # the 2-node graph
        return h

    build, drawn = _first_draw_near(
        lambda x: ad.matrix_cosine(x, m, runs),
        near, lambda rng: rng.normal(size=(3, 3)))
    res = gc.run_case("cosine", build, seed=0)
    assert len(drawn) == 2 and drawn[1][1:].any()
    assert res.passed


def test_every_op_a_case_logs_has_a_margin(monkeypatch):
    monkeypatch.setattr(ad, "_kink_log", [])
    for build in gc.CASES.values():
        build(np.random.default_rng(0)).fn()
    assert {op for op, _ in ad._kink_log} == set(gc.KINK_MARGIN)


def test_run_case_that_cannot_draw_smooth_inputs_names_the_last_kink(
        monkeypatch):
    monkeypatch.setattr(gc, "KINK_MARGIN", dict.fromkeys(gc.KINK_MARGIN, 1e9))
    with pytest.raises(RuntimeError, match=(
            rf"could not draw smooth inputs for relu after {gc._MAX_REDRAWS} "
            r"attempts: the last draw put a relu input [0-9.e-]+ from its kink "
            r"\(margin 1e\+09\)")):
        gc.run_case("relu", gc.CASES["relu"], seed=0)


def test_full_loss_finds_smooth_inputs_at_its_rarest_seed():
    # seed 110's first smooth draw of the whole model is its 17th
    assert gc.run_case("full_loss", gc.CASES["full_loss"], 110).passed


def test_run_case_reports_per_param_errors():
    res = gc.run_case("matmul", gc.PRIMITIVE_CASES["matmul"], seed=3)
    assert res.per_param
    assert res.max_rel_err == pytest.approx(max(res.per_param.values()))
    assert res.worst_seed == 3


def test_a_verdict_names_the_worst_seed_and_each_parameters_largest_error(
        monkeypatch):
    # per seed: (a's error, b's error); relu's worst, 0.5, comes at seeds 5
    # and 6, and sigmoid's errors are all zero
    errs = {"relu": {4: (0.1, 0.05), 5: (0.5, 0.1), 6: (0.2, 0.5)},
            "sigmoid": {4: (0.0, 0.0), 5: (0.0, 0.0), 6: (0.0, 0.0)}}

    def fake_case(name, builder, seed):
        a, b = errs[name][seed]
        return gc.CheckResult(name, seed, max(a, b), max(a, b) < 0.2,
                              {"a": a, "b": b})

    monkeypatch.setattr(gc, "run_case", fake_case)
    monkeypatch.setattr(gc, "CASES", dict.fromkeys(errs))
    # the seeds in any order: a tie goes to the lowest
    relu, sigmoid = gc.check_suite(seeds=[6, 4, 5])
    assert relu == gc.CheckResult("relu", 5, 0.5, False, {"a": 0.5, "b": 0.5})
    assert sigmoid == gc.CheckResult("sigmoid", 4, 0.0, True,
                                     {"a": 0.0, "b": 0.0})


@pytest.mark.parametrize("name", sorted(gc.PRIMITIVE_CASES))
def test_every_case_looks_up_its_op_when_it_runs(name, monkeypatch):
    op = "matmul" if name.startswith("matmul") else name
    original = getattr(ad, op)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ad, op, recording)
    case = gc.PRIMITIVE_CASES[name](np.random.default_rng(0))
    case.fn()
    # the projector itself calls mul and reduce_sum once per evaluation, so
    # those two cases must add a call of their own
    assert len(calls) > (op in ("mul", "reduce_sum"))
