"""Acceptance gate: one test per release criterion, each emitting a PASS/FAIL
line with its measured numbers.

These intentionally repeat ground covered by the unit suites, but as
end-to-end checks with explicit budgets and tolerances.
"""

import time

import numpy as np
import pytest

import poolnet.model as model_mod
from poolnet.config import ModelConfig, TrainConfig, ablation_configs
from poolnet.data import load_map, synth_edge_dataset, synth_saliency_dataset
from poolnet.inference import predict_manifest, run_inference
from poolnet.losses import balanced_bce_with_logits, bce_with_logits
from poolnet.metrics import evaluate_pairs, f_measure, mae, max_f, pr_sweep
from poolnet.model import build_model, model_from_checkpoint, save_model_with_config
from poolnet.tensor import (
    Tensor,
    add,
    adaptive_avg_pool2d,
    avg_pool2d,
    concat_channels,
    conv2d,
    default_dtype,
    global_avg_pool,
    max_pool2d,
    no_grad,
    relu,
    sigmoid,
    upsample_bilinear,
)
from poolnet.train import train_model

SMALL = dict(backbone_widths=(4, 6, 6, 8, 8), ppm_sizes=(2,), fam_rates=(2, 4))


def report(capsys, ok: bool, number: int, text: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def leaf(rng, shape):
    magnitude = rng.uniform(0.2, 1.2, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor(magnitude * sign, requires_grad=True, dtype=np.float64)


def distinct_leaf(rng, shape):
    values = rng.permutation(np.prod(shape)).astype(np.float64) * 0.01
    return Tensor(values.reshape(shape), requires_grad=True, dtype=np.float64)


def test_criterion_1_gradient_suite(gradcheck, scalarize, capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0

    def check(build, leaves, **kwargs):
        nonlocal worst
        with no_grad():
            weights = np.random.default_rng(5).standard_normal(build(leaves).shape)
        worst = max(worst, gradcheck(lambda lv: scalarize(build(lv), weights),
                                     leaves, rng, **kwargs))

    check(lambda lv: conv2d(lv["x"], lv["w"], lv["b"]),
          {"x": leaf(rng, (1, 2, 6, 6)), "w": leaf(rng, (3, 2, 3, 3)),
           "b": leaf(rng, (3,))}, coords_per_leaf=24)
    check(lambda lv: avg_pool2d(lv["x"], 2), {"x": leaf(rng, (1, 3, 4, 4))},
          coords_per_leaf=24)
    check(lambda lv: max_pool2d(lv["x"]), {"x": distinct_leaf(rng, (1, 2, 4, 4))},
          coords_per_leaf=24)
    check(lambda lv: adaptive_avg_pool2d(lv["x"], 3, 3),
          {"x": leaf(rng, (1, 2, 5, 5))}, coords_per_leaf=24)
    check(lambda lv: global_avg_pool(lv["x"]), {"x": leaf(rng, (1, 3, 4, 4))},
          coords_per_leaf=24)
    check(lambda lv: upsample_bilinear(lv["x"], 4), {"x": leaf(rng, (1, 2, 3, 3))},
          coords_per_leaf=18)
    check(lambda lv: relu(lv["x"]), {"x": leaf(rng, (1, 2, 5, 5))}, coords_per_leaf=24)
    check(lambda lv: sigmoid(lv["x"]), {"x": leaf(rng, (1, 2, 5, 5))}, coords_per_leaf=24)
    check(lambda lv: add(lv["a"], lv["b"]),
          {"a": leaf(rng, (1, 2, 4, 4)), "b": leaf(rng, (1, 2, 4, 4))},
          coords_per_leaf=24)
    check(lambda lv: concat_channels([lv["a"], lv["b"]]),
          {"a": leaf(rng, (1, 2, 3, 3)), "b": leaf(rng, (1, 3, 3, 3))},
          coords_per_leaf=24)

    targets = np.random.default_rng(6).random((1, 1, 4, 4))
    binary = (targets > 0.5).astype(np.float64)
    worst = max(worst, gradcheck(lambda lv: bce_with_logits(lv["z"], targets),
                                 {"z": leaf(rng, (1, 1, 4, 4))}, rng, coords_per_leaf=16))
    worst = max(worst, gradcheck(
        lambda lv: balanced_bce_with_logits(lv["z"], binary),
        {"z": leaf(rng, (1, 1, 4, 4))}, rng, coords_per_leaf=16))

    with default_dtype(np.float64):
        model = build_model(ModelConfig(**SMALL, enable_edge=True), seed=7)
    x = Tensor(np.random.default_rng(8).uniform(0.0, 1.0, size=(1, 3, 32, 32)),
               requires_grad=True, dtype=np.float64)
    sal_targets = (np.random.default_rng(9).random((1, 1, 32, 32)) > 0.5).astype(float)

    def model_loss(lv):
        out = model(lv["input"])
        total = bce_with_logits(out.saliency, sal_targets)
        for side in out.edges:
            total = add(total, balanced_bce_with_logits(side, sal_targets))
        return total

    leaves = {"input": x}
    leaves.update({f"param:{name}": p for name, p in model.named_parameters()})
    worst = max(worst, gradcheck(model_loss, leaves, rng, eps=1e-6, coords_per_leaf=2))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 120.0
    report(capsys, ok, 1, f"op/loss/model gradients max rel err {worst:.2e} "
                          f"(< 1e-4) in {elapsed:.1f}s (< 120s)")


def test_criterion_2_architecture_fidelity(capsys, monkeypatch):
    problems = []

    # six switch combinations forward at 64x64 (grid sizes fitting the 4x4 top)
    for row, config in ablation_configs(ModelConfig(ppm_sizes=(2, 3))):
        model = build_model(config, seed=0)
        x = Tensor(np.random.default_rng(row).uniform(0.0, 1.0, size=(1, 3, 64, 64)))
        with no_grad():
            out = model(x)
        if out.saliency.shape != (1, 1, 64, 64):
            problems.append(f"row {row} shape {out.saliency.shape}")
        elif not np.isfinite(out.saliency.data).all():
            problems.append(f"row {row} non-finite output")

    # pooling grid fidelity at the default sizes, on an input large enough
    # for a 5x5 grid: branches are identity, 3x3, 5x5, and global 1x1
    seen = []
    real_adaptive = model_mod.adaptive_avg_pool2d
    real_global = model_mod.global_avg_pool

    def spy_adaptive(x, out_h, out_w):
        seen.append((out_h, out_w))
        return real_adaptive(x, out_h, out_w)

    def spy_global(x):
        seen.append((1, 1))
        return real_global(x)

    monkeypatch.setattr(model_mod, "adaptive_avg_pool2d", spy_adaptive)
    monkeypatch.setattr(model_mod, "global_avg_pool", spy_global)
    default = build_model(ModelConfig(), seed=0)
    with no_grad():
        default(Tensor(np.random.default_rng(0).uniform(0.0, 1.0, size=(1, 3, 80, 80))))
    monkeypatch.undo()
    if seen != [(3, 3), (5, 5), (1, 1)]:
        problems.append(f"pooling grids {seen}")
    pooling_branches = 2 + len(default.pyramid_pool.branches)  # identity + global
    if pooling_branches != 4:
        problems.append(f"{pooling_branches} pooling branches")

    # aggregation blocks have one identity plus one branch per rate
    sub_branches = 1 + len(default.merge4.branch_convs)
    if sub_branches != 4:
        problems.append(f"{sub_branches} aggregation sub-branches")

    # edge fusion runs at 48 channels
    edged = build_model(ModelConfig(enable_edge=True), seed=0)
    fused = 3 * edged.edge.transitions[0].weight.shape[0]
    refine_in = edged.edge.refine[0].weight.shape[1]
    if fused != 48 or refine_in != 48:
        problems.append(f"edge fusion {fused}/{refine_in} channels")

    report(capsys, not problems, 2,
           "six configurations forward at 64x64; pooling grids "
           f"{{identity, 3x3, 5x5, 1x1}}; 4 aggregation sub-branches; "
           f"edge fusion 48 channels{'; ' + '; '.join(problems) if problems else ''}")


def test_criterion_3_overfit(tmp_path, capsys):
    start = time.perf_counter()
    manifest = synth_saliency_dataset(tmp_path / "sal20", 20, 64, seed=0)
    model = build_model(ModelConfig(ppm_sizes=(2, 3)), seed=0)
    config = TrainConfig(lr=1e-3, epochs=25, lr_drop_epoch=24, seed=0)
    result = train_model(model, config, manifest, max_steps=500)
    predictions = predict_manifest(model, manifest)
    ground_truths = [load_map(gt) for _, gt in manifest.entries]
    record = evaluate_pairs(list(zip(predictions, ground_truths)))
    elapsed = time.perf_counter() - start
    ok = (len(result.steps) <= 500 and record.max_f >= 0.95
          and record.mae <= 0.05 and elapsed < 900.0)
    report(capsys, ok, 3, f"500-step overfit MaxF {record.max_f:.4f} (>= 0.95), "
                          f"MAE {record.mae:.4f} (<= 0.05) in {elapsed:.0f}s (< 900s)")


def test_criterion_4_ablation_ordering(tmp_path, capsys):
    manifest = synth_saliency_dataset(tmp_path / "sal100", 100, 64, seed=0)
    ground_truths = [load_map(gt) for _, gt in manifest.entries]
    scores = {"fff": [], "ttt": []}
    for seed in (0, 1, 2):
        for label, switches in (("fff", dict(enable_ppm=False, enable_ggf=False,
                                             enable_fam=False)),
                                ("ttt", {})):
            model = build_model(ModelConfig(ppm_sizes=(2, 3), **switches), seed=seed)
            train_model(model, TrainConfig(lr=1e-3, epochs=3, lr_drop_epoch=2,
                                           seed=seed), manifest)
            predictions = predict_manifest(model, manifest)
            record = evaluate_pairs(list(zip(predictions, ground_truths)))
            scores[label].append(record.max_f)
    median_ttt = float(np.median(scores["ttt"]))
    median_fff = float(np.median(scores["fff"]))
    ok = median_ttt >= median_fff
    per_seed = {label: "/".join(f"{v:.4f}" for v in values) for label, values in scores.items()}
    report(capsys, ok, 4, f"median MaxF over 3 seeds: full {median_ttt:.4f} >= "
                          f"baseline {median_fff:.4f} (per seed: full {per_seed['ttt']}, "
                          f"baseline {per_seed['fff']})")


def test_criterion_5_metric_oracles(metric_oracles, capsys):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        prediction = rng.random((8, 8))
        cut = rng.uniform(0.2, 0.8)
        ground_truth = (rng.random((8, 8)) > cut).astype(np.float64)
        worst = max(worst, abs(mae(prediction, ground_truth)
                               - metric_oracles["mae"](prediction, ground_truth)))
        pairs = [(prediction, ground_truth)]
        curve = pr_sweep(pairs)
        precision, recall, empty = metric_oracles["pr_curves"](pairs)
        worst = max(worst,
                    float(np.max(np.abs(curve.precision - precision))),
                    float(np.max(np.abs(curve.recall - recall))))
        assert curve.empty_gt_count == empty
        worst = max(worst, abs(max_f(curve)
                               - metric_oracles["max_f"](precision, recall)))
    for p in np.linspace(0.0, 1.0, 21):
        for r in np.linspace(0.0, 1.0, 21):
            worst = max(worst, abs(f_measure(p, r)
                                   - metric_oracles["f_measure"](p, r)))

    mask = np.indices((8, 8)).sum(axis=0) % 2 == 0
    perfect = evaluate_pairs([(mask.astype(np.float64), mask.astype(np.float64))])
    ok = worst <= 1e-12 and perfect.max_f == 1.0 and perfect.mae == 0.0
    report(capsys, ok, 5, f"1000 randomized 8x8 trials max |impl - oracle| "
                          f"{worst:.1e} (<= 1e-12); perfect prediction MaxF "
                          f"{perfect.max_f}, MAE {perfect.mae}")


def test_criterion_6_joint_training(tmp_path, capsys):
    saliency = synth_saliency_dataset(tmp_path / "sal", 4, 64, seed=0)
    edges = synth_edge_dataset(tmp_path / "edge", 2, 64, seed=0)
    model = build_model(ModelConfig(**SMALL, enable_edge=True), seed=0)
    config = TrainConfig(lr=1e-3, epochs=2, lr_drop_epoch=1, joint_edge=True, seed=0)
    result = train_model(model, config, saliency, edge_data=edges)
    trace = [record.loss_type for record in result.steps]
    finite = all(np.isfinite(record.loss_value) for record in result.steps)
    with no_grad():
        out = model(Tensor(np.random.default_rng(1).uniform(0.0, 1.0,
                                                            size=(1, 3, 64, 64))))
    sides_at_input = (out.edges is not None and len(out.edges) == 3
                     and all(side.shape == (1, 1, 64, 64) for side in out.edges))
    ok = trace == ["sal", "edge"] * 8 and finite and sides_at_input
    report(capsys, ok, 6, f"joint trace alternates sal/edge over {len(trace)} steps, "
                          f"losses finite, 3 edge side-outputs at 64x64")


def test_criterion_7_determinism(tmp_path, capsys):
    saliency = synth_saliency_dataset(tmp_path / "data", 4, 32, seed=0)
    digests = []
    for run in ("a", "b"):
        model = build_model(ModelConfig(**SMALL), seed=3)
        out_dir = tmp_path / run
        train_model(model, TrainConfig(lr=1e-3, epochs=2, lr_drop_epoch=1, seed=3),
                    saliency, output_dir=out_dir)
        written = run_inference(model, saliency, out_dir / "pred")
        checkpoints = b"".join((out_dir / name).read_bytes()
                               for name in ("epoch_001.ckpt", "epoch_002.ckpt",
                                            "final.ckpt"))
        maps = b"".join(path.read_bytes() for path in written)
        digests.append((checkpoints, maps))
    ok = digests[0] == digests[1]
    report(capsys, ok, 7, "identical seeds give bitwise-identical checkpoints "
                          "and saliency maps")


def test_criterion_8_checkpoint_round_trip(tmp_path, capsys):
    model = build_model(ModelConfig(**SMALL, enable_edge=True), seed=1)
    x = Tensor(np.random.default_rng(4).uniform(0.0, 1.0, size=(1, 3, 64, 64)))
    with no_grad():
        before = model(x)
    save_model_with_config(tmp_path / "model.ckpt", model)
    reloaded, _ = model_from_checkpoint(tmp_path / "model.ckpt")
    with no_grad():
        after = reloaded(x)
    ok = (np.array_equal(before.saliency.data, after.saliency.data)
          and all(np.array_equal(b.data, a.data)
                  for b, a in zip(before.edges, after.edges)))
    report(capsys, ok, 8, "save/load/forward bitwise identical to pre-save forward")
