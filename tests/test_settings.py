"""The one rule for real-valued settings, :func:`dyncapmoe.autodiff.check_real`,
at every field and argument that goes through it."""

import dataclasses
import math
import re

import numpy as np
import pytest

from dyncapmoe import harness as hn
from dyncapmoe import moe
from dyncapmoe import rope3d as rp


def model_config(**overrides):
    return dataclasses.replace(hn.gradcheck_default_config(), **overrides)


def one_layer_grad_check(**kwargs):
    return hn.grad_check(model_config(layers=1), **kwargs)


UNIT = "in (0, 1]"          # top_p
NON_NEGATIVE = ">= 0"       # rates
POSITIVE = "> 0"            # times, frequencies, the RoPE base, eps and tol

# (field named in the error, interval, build with the value)
SETTINGS = [
    ("top_p", UNIT, lambda v: moe.MoEConfig(d_model=4, n_routed=2, expert_hidden=4,
                                            top_p=v)),
    ("top_p", UNIT, lambda v: moe.select_top_p_deterministic(np.array([0.6, 0.4]), v)),
    ("top_p", UNIT, lambda v: moe.select_top_p_sampled(np.array([0.6, 0.4]), v,
                                                       np.random.default_rng(0))),
    ("noise", NON_NEGATIVE, lambda v: model_config(noise=v)),
    ("learning_rate", NON_NEGATIVE, lambda v: model_config(learning_rate=v)),
    ("base", POSITIVE, lambda v: rp.RopeFreqConfig(6, base=v)),
    ("duration_s", POSITIVE, lambda v: rp.AudioSegment(v)),
    ("duration_s", POSITIVE, lambda v: rp.VideoSegment(v, 1.0, 1, 1)),
    ("fps", POSITIVE, lambda v: rp.VideoSegment(2.0, v, 1, 1)),
    ("eps", POSITIVE, lambda v: one_layer_grad_check(eps=v)),
    ("tol", POSITIVE, lambda v: one_layer_grad_check(tol=v)),
]
SETTING_IDS = ["MoEConfig.top_p", "select_top_p_deterministic", "select_top_p_sampled",
               "noise", "learning_rate", "RopeFreqConfig.base", "AudioSegment.duration_s",
               "VideoSegment.duration_s", "VideoSegment.fps", "grad_check.eps",
               "grad_check.tol"]

# 10**400 is an int no float can hold
NOT_REAL = [True, False, "0.5", None, math.nan, -math.inf, math.inf, np.float64(math.nan),
            10**400]
OUT_OF_RANGE = {UNIT: [0, 0.0, -0.5, 1.5, np.float64(1.0 + 1e-12)],
                NON_NEGATIVE: [-1, -1e-300, np.float32(-0.5)],
                POSITIVE: [0, 0.0, -1, -2.5, np.float64(-1e-300)]}
IN_RANGE = {UNIT: [1, np.float64(0.5), np.float32(0.25)],
            NON_NEGATIVE: [0, 2, np.float64(0.0), np.float32(0.5)],
            POSITIVE: [1, np.int64(2), np.float64(0.5), np.float32(1e-6)]}


def rejected(interval):
    return NOT_REAL + OUT_OF_RANGE[interval]


@pytest.mark.parametrize("name, interval, build", SETTINGS, ids=SETTING_IDS)
def test_every_real_setting_rejects_what_is_not_a_finite_real_in_its_interval(
        name, interval, build):
    for value in rejected(interval):
        message = f"{name} must be finite and {interval}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(value)


@pytest.mark.parametrize("name, interval, build", SETTINGS, ids=SETTING_IDS)
def test_every_real_setting_accepts_ints_and_numpy_reals(name, interval, build):
    for value in IN_RANGE[interval]:
        build(value)


def test_configs_keep_the_value_they_were_given():
    value = np.float32(0.25)
    assert moe.MoEConfig(d_model=4, n_routed=2, expert_hidden=4, top_p=value).top_p is value
    assert model_config(noise=value).noise is value
    assert rp.RopeFreqConfig(6, base=value).base is value

