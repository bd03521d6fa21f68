"""Pooling-centric salient-object detection networks.

A five-stage convolutional backbone feeds a top-down fusion path.  Three
optional pieces, toggled independently from :class:`~poolnet.config.ModelConfig`,
sharpen the result:

- a pyramid pooling block that replaces the deepest lateral projection and
  summarizes the whole scene at several grid sizes,
- guidance flows that re-inject that deepest summary at every fusion level,
- aggregation modules that re-pool each fused map at several rates to mend
  upsampling artifacts.

An optional edge branch taps the three shallow fusion levels, supervises
boundary maps, and widens the saliency head with its features.  All outputs
are logits at the input resolution; inputs must be RGB, each side a positive
multiple of 16 and, with pyramid pooling on, at least 16 * max(ppm_sizes).
The backbone's 2x2 max pools alone set the level strides: every resize
outside the aggregation modules takes its size from the map it joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checkpoint import load_checkpoint, read_ints, save_checkpoint
from .config import ModelConfig
from .data import PAD_MULTIPLE, Manifest, entry_size, padded_size
from .errors import CheckpointError, ConfigError, ShapeError
from .nn import Conv2d, Module, ModuleList
from .tensor import (Tensor, add, adaptive_avg_pool2d, avg_pool2d, concat_channels,
                     crop2d, global_avg_pool, max_pool2d, pad_replicate2d, relu,
                     resize_bilinear, upsample_bilinear)

EDGE_TRANSITION_CHANNELS = 16


@dataclass
class ModelOutput:
    """Saliency logits at input resolution, plus edge logits when enabled."""

    saliency: Tensor
    edges: Optional[tuple[Tensor, ...]] = None


class ConvReLU(Module):
    """A 3x3 conv + relu."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, 3, rng)

    def forward(self, x: Tensor) -> Tensor:
        return relu(self.conv(x))


class BackboneStage(Module):
    """Two 3x3 conv+relu layers at a fixed width."""

    def __init__(self, in_channels: int, width: int, rng: np.random.Generator):
        super().__init__()
        self.conv1 = ConvReLU(in_channels, width, rng)
        self.conv2 = ConvReLU(width, width, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv2(self.conv1(x))


class Backbone(Module):
    """Five stages with 2x max pooling in between; taps the last four."""

    def __init__(self, widths: tuple[int, ...], rng: np.random.Generator):
        super().__init__()
        stages = []
        in_channels = 3
        for width in widths:
            stages.append(BackboneStage(in_channels, width, rng))
            in_channels = width
        self.stages = ModuleList(stages)

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        x = self.stages[0](x)
        taps = []
        for stage in self.stages[1:]:
            x = max_pool2d(x)  # the stage-0 map dies here, before stage 1 runs
            x = stage(x)
            taps.append(x)
        return tuple(taps)


class PyramidPooling(Module):
    """Scene summary over several grid sizes, fused back to one map.

    Branches: the input itself, an adaptive average pool at each size in
    ``sizes`` (1x1 conv + relu, resized back), and a global-average branch.
    The concatenation is fused by a 3x3 conv + relu.
    """

    def __init__(self, in_channels: int, out_channels: int, sizes: tuple[int, ...],
                 rng: np.random.Generator):
        super().__init__()
        self.sizes = tuple(sizes)
        branch_channels = max(in_channels // 4, 1)
        self.branches = ModuleList(
            [Conv2d(in_channels, branch_channels, 1, rng) for _ in self.sizes])
        self.global_branch = Conv2d(in_channels, branch_channels, 1, rng)
        total = in_channels + (len(self.sizes) + 1) * branch_channels
        self.fuse = Conv2d(total, out_channels, 3, rng)

    def forward(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        maps = [x]
        for size, conv in zip(self.sizes, self.branches):
            pooled = adaptive_avg_pool2d(x, size, size)
            maps.append(resize_bilinear(relu(conv(pooled)), h, w))
        pooled = global_avg_pool(x)
        maps.append(resize_bilinear(relu(self.global_branch(pooled)), h, w))
        return relu(self.fuse(concat_channels(maps)))


class GuidanceFlow(Module):
    """Project the deepest fused map and resize it onto one fusion level."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        super().__init__()
        self.project = Conv2d(in_channels, out_channels, 1, rng)

    def forward(self, x: Tensor, level: Tensor) -> Tensor:
        return resize_bilinear(self.project(x), *level.shape[2:])


class FeatureAggregation(Module):
    """Re-pool a fused map at several rates and merge with the identity.

    Each rate branch is avg-pool -> 3x3 conv + relu -> upsample; branches and
    the identity are summed and fused by a final 3x3 conv + relu.  Inputs not
    divisible by a rate are edge-padded for that branch and cropped back.
    """

    def __init__(self, channels: int, rates: tuple[int, ...], rng: np.random.Generator):
        super().__init__()
        self.rates = tuple(rates)
        self.branch_convs = ModuleList(
            [Conv2d(channels, channels, 3, rng) for _ in self.rates])
        self.fuse = Conv2d(channels, channels, 3, rng)

    def forward(self, x: Tensor) -> Tensor:
        _, _, h, w = x.shape
        acc = x
        for rate, conv in zip(self.rates, self.branch_convs):
            # nothing binds a branch's full-size maps, so each dies in its add
            pooled = avg_pool2d(pad_replicate2d(x, (-h) % rate, (-w) % rate), rate)
            acc = add(acc, crop2d(upsample_bilinear(relu(conv(pooled)), rate), h, w))
        return relu(self.fuse(acc))


class ResidualBlock(Module):
    """x + conv(relu(conv(x))); zero weights make it an exact identity."""

    def __init__(self, channels: int, rng: np.random.Generator):
        super().__init__()
        self.conv1 = Conv2d(channels, channels, 3, rng)
        self.conv2 = Conv2d(channels, channels, 3, rng)

    def forward(self, x: Tensor) -> Tensor:
        return add(x, self.conv2(relu(self.conv1(x))))


class EdgeBranch(Module):
    """Boundary features from the three shallow fusion levels.

    Per level: a residual block at the level width, a 3x3 transition to 16
    channels, and a 1x1 side head whose logits are resized to the image.
    The 16-channel maps are resized to the shallowest level and
    concatenated (48 channels), then refined by three 3x3 conv + relu layers.
    """

    def __init__(self, level_channels: tuple[int, int, int], rng: np.random.Generator):
        super().__init__()
        t = EDGE_TRANSITION_CHANNELS
        self.blocks = ModuleList([ResidualBlock(c, rng) for c in level_channels])
        self.transitions = ModuleList([Conv2d(c, t, 3, rng) for c in level_channels])
        self.side_heads = ModuleList([Conv2d(t, 1, 1, rng) for _ in level_channels])
        fused = t * len(level_channels)
        self.refine = ModuleList([Conv2d(fused, fused, 3, rng) for _ in range(3)])

    def forward(self, features: list[Tensor], image: Tensor) -> tuple[Tensor, tuple[Tensor, ...]]:
        """``features`` are fusion levels 2, 3 and 4; ``image`` is the input."""
        transitions = []
        sides = []
        for feat, block, trans, head in zip(
                features, self.blocks, self.transitions, self.side_heads):
            t = relu(trans(block(feat)))
            sides.append(resize_bilinear(head(t), *image.shape[2:]))
            transitions.append(resize_bilinear(t, *features[0].shape[2:]))
        fused = concat_channels(transitions)
        for conv in self.refine:
            fused = relu(conv(fused))
        return fused, tuple(sides)


class SaliencyNet(Module):
    """The full detector; see the module docstring for the wiring."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        config.validate()
        self.config = config
        widths = config.backbone_widths
        pyr = config.pyramid_channels  # widths for fusion levels 2..5

        self.backbone = Backbone(widths, rng)
        if config.enable_ppm:
            self.pyramid_pool = PyramidPooling(widths[4], pyr[3], config.ppm_sizes, rng)
        else:
            self.lateral5 = Conv2d(widths[4], pyr[3], 1, rng)
        if config.enable_ggf:
            self.guidance = ModuleList(
                [GuidanceFlow(pyr[3], pyr[level - 2], rng) for level in (5, 4, 3, 2)])
        # fusion widths may differ per level, so each top-down hop carries a
        # 1x1 adapter from the deeper level's width
        self.lateral4 = Conv2d(widths[3], pyr[2], 1, rng)
        self.topdown4 = Conv2d(pyr[3], pyr[2], 1, rng)
        self.merge4 = self._merge_module(pyr[2], config, rng)
        self.lateral3 = Conv2d(widths[2], pyr[1], 1, rng)
        self.topdown3 = Conv2d(pyr[2], pyr[1], 1, rng)
        self.merge3 = self._merge_module(pyr[1], config, rng)
        self.lateral2 = Conv2d(widths[1], pyr[0], 1, rng)
        self.topdown2 = Conv2d(pyr[1], pyr[0], 1, rng)
        self.merge2 = self._merge_module(pyr[0], config, rng)
        if config.enable_edge:
            self.edge = EdgeBranch((pyr[0], pyr[1], pyr[2]), rng)
        head_channels = pyr[0] + (3 * EDGE_TRANSITION_CHANNELS if config.enable_edge else 0)
        self.head = Conv2d(head_channels, 1, 1, rng)

    @staticmethod
    def _merge_module(channels: int, config: ModelConfig, rng) -> Module:
        if config.enable_fam:
            return FeatureAggregation(channels, config.fam_rates, rng)
        return ConvReLU(channels, channels, rng)

    def forward(self, x: Tensor) -> ModelOutput:
        if x.data.ndim != 4 or x.shape[1] != 3:
            raise ShapeError(f"model input must be (batch, 3, height, width), got {x.shape}")
        check_input_size(self.config, *x.shape[2:])

        # each tap (c2, c3, c4, c5) is popped by its one reader and out5 is
        # never bound, so without a graph neither outlives its use
        taps = list(self.backbone(x))
        if self.config.enable_ppm:
            top = self.pyramid_pool(taps.pop())
        else:
            top = self.lateral5(taps.pop())

        def guided(merged: Tensor, index: int) -> Tensor:
            # guidance index 0..3 targets levels 5, 4, 3, 2
            if self.config.enable_ggf:
                return add(merged, self.guidance[index](top, merged))
            return merged

        def topdown(lateral: Tensor, deeper: Tensor) -> Tensor:
            return add(lateral, resize_bilinear(deeper, *lateral.shape[2:]))

        out4 = self.merge4(guided(topdown(self.lateral4(taps.pop()),
                                          self.topdown4(guided(top, 0))), 1))
        out3 = self.merge3(guided(topdown(self.lateral3(taps.pop()), self.topdown3(out4)), 2))
        out2 = self.merge2(guided(topdown(self.lateral2(taps.pop()), self.topdown2(out3)), 3))

        if self.config.enable_edge:
            edge_feats, edge_sides = self.edge([out2, out3, out4], x)
            head_in = concat_channels([out2, edge_feats])
        else:
            edge_sides = None
            head_in = out2
        logits = resize_bilinear(self.head(head_in), *x.shape[2:])
        return ModelOutput(saliency=logits, edges=edge_sides)


def check_input_size(config: ModelConfig, h: int, w: int, name: str = "model input") -> None:
    """Raise ``ShapeError`` unless the network takes an h x w input; the
    message gives the size as width x height, as ``--size`` takes it."""
    if min(h, w) < 1 or h % PAD_MULTIPLE or w % PAD_MULTIPLE:
        raise ShapeError(f"{name} size {w}x{h} must be positive multiples of {PAD_MULTIPLE}")
    if config.enable_ppm:
        # the deepest map (stride 16) must hold the largest pooling grid
        low = 16 * max(config.ppm_sizes)
        if min(h, w) < low:
            raise ShapeError(f"{name} size {w}x{h} is below the {low}x{low} minimum "
                             f"for ppm_sizes {config.ppm_sizes}; use larger images "
                             f"or smaller ppm_sizes")


def check_manifest_sizes(config: ModelConfig, manifest: Manifest) -> list[tuple[int, int]]:
    """Every manifest entry's padded (H, W), each checked by ``check_input_size``.

    Each entry is read and checked as ``load_entry`` reads it, so a run
    fails here before any work or output, on a truncated file or a ground
    truth of another size as on an image the model cannot take.
    """
    sizes = []
    for image_path, gt_path in manifest.entries:
        sizes.append(padded_size(*entry_size(image_path, gt_path)))
        check_input_size(config, *sizes[-1], name=f"{image_path}: padded input")
    return sizes


def build_model(config: ModelConfig, seed: int = 0) -> SaliencyNet:
    """Construct a seeded model; identical arguments give identical weights."""
    return SaliencyNet(config, np.random.default_rng([seed, 0]))


# A model file is a checkpoint container holding every parameter record, then
# records under ``_state/``: the architecture, then whatever the trainer
# stashes (optimizer moments, progress counters).  The architecture records
# let a saved model be rebuilt from the file alone.  Widths and switches are
# small integers, which float32 represents exactly.

STATE_PREFIX = "_state/"
_WIDTH_FIELDS = ("backbone_widths", "pyramid_channels", "fam_rates", "ppm_sizes")
_SWITCH_FIELDS = ("enable_ppm", "enable_ggf", "enable_fam", "enable_edge")
_CONFIG_KEYS = (*(f"config/{name}" for name in _WIDTH_FIELDS), "config/switches")


def config_to_state(config: ModelConfig) -> dict[str, np.ndarray]:
    values = [getattr(config, name) for name in _WIDTH_FIELDS]
    values.append([getattr(config, name) for name in _SWITCH_FIELDS])
    return {key: np.asarray(value, dtype=np.float32) for key, value in zip(_CONFIG_KEYS, values)}


def config_from_state(state: dict[str, np.ndarray]) -> ModelConfig:
    switches = read_ints(state, "config/switches", len(_SWITCH_FIELDS))
    return ModelConfig(**{name: read_ints(state, f"config/{name}") for name in _WIDTH_FIELDS},
                       **{name: bool(v) for name, v in zip(_SWITCH_FIELDS, switches)})


def _check_architecture(config: ModelConfig, stored: int) -> None:
    """Reject architecture records that a file of ``stored`` values cannot back.

    This runs before ``build_model`` allocates anything.  Every width owns
    weights the file must hold: each backbone stage and fusion levels 2-4 a
    w x w 3x3 conv; fusion level 5 1x1 convs to the deepest backbone width, to
    level 4 and, with guidance flows, to every level.
    """
    try:
        config.validate()
    except ConfigError as exc:
        raise CheckpointError(f"invalid architecture records: {exc}") from exc
    pyr = config.pyramid_channels
    partners = (config.backbone_widths[4], pyr[2], *(pyr if config.enable_ggf else ()))
    owned = [("config/backbone_widths", w, 9 * w * w) for w in config.backbone_widths]
    owned += [("config/pyramid_channels", w, 9 * w * w) for w in pyr[:3]]
    owned.append(("config/pyramid_channels", pyr[3], pyr[3] * max(partners)))
    for key, width, need in owned:
        if need > stored:
            raise CheckpointError(f"architecture record {key!r}: width {width} needs at least "
                                  f"{need} stored weights, the file holds {stored} values")


def save_model_with_config(path, model: SaliencyNet,
                           extra_state: Optional[dict[str, np.ndarray]] = None) -> None:
    """Write ``model`` as a model file; ``extra_state`` follows its architecture."""
    state = config_to_state(model.config)
    state.update(extra_state or {})
    records = {name: param.data for name, param in model.named_parameters()}
    records.update((STATE_PREFIX + key, np.asarray(arr)) for key, arr in state.items())
    save_checkpoint(path, records)


def model_from_checkpoint(path) -> tuple[SaliencyNet, dict[str, np.ndarray]]:
    """Rebuild the architecture recorded in a model file and load its weights.

    Every model parameter must be present with a matching shape, and every
    other record must be a ``_state/`` one.  The architecture records are
    consumed here; the returned state holds only what the trainer stashed
    (optimizer moments, progress counters).
    """
    params = load_checkpoint(path)
    stored = sum(arr.size for arr in params.values())
    state = {name[len(STATE_PREFIX):]: params.pop(name) for name in list(params)
             if name.startswith(STATE_PREFIX)}
    config = config_from_state(state)
    _check_architecture(config, stored)
    model = build_model(config)
    for name, param in model.named_parameters():
        if name not in params:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        arr = params.pop(name)
        if arr.shape != param.data.shape:
            raise CheckpointError(f"parameter {name!r}: checkpoint shape {arr.shape} "
                                  f"does not match model shape {param.data.shape}")
        param.data = np.ascontiguousarray(arr, dtype=param.dtype)
    if params:
        extras = ", ".join(sorted(params))
        raise CheckpointError(f"checkpoint has records unknown to the model: {extras}")
    return model, {key: arr for key, arr in state.items() if key not in _CONFIG_KEYS}
