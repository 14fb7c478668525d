"""Every figure's payload, byte for byte, on its default engine.

The figures, ``paper_metrics`` and the ablation metrics are all read off a
run's log by :mod:`repro.analysis`, except Fig. 4, which reads a running
system's live overlay.  However that reading is organised -- one fold
pass or several, wrappers or fold results, dead peers kept or freed --
the rendered figure and the metric ``repr`` must not move: each pin is
the sha256 of ``FigureResult.render()`` (or the ``repr`` itself) at small
arguments.  The delivery-mode ablation's control-message counts are
simulator-side sums over every session a run spawned; they are pinned by
value.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.config import SystemConfig
from repro.experiments.ablations import ablate_delivery_mode, run_variant
from repro.experiments.figures import (
    fig3_user_types_and_contribution,
    fig4_overlay_structure,
    fig5_user_evolution,
    fig6_join_time_cdfs,
    fig7_ready_time_by_period,
    fig8_continuity_by_type,
    fig9_rate_point,
    fig9_size_point,
    fig10_sessions_and_retries,
)
from repro.runtime import run_scenario
from repro.runtime.parity import paper_metrics
from repro.workload.scenarios import flash_crowd_storm

#: the numpy (major.minor) the pins were checked under
NUMPY = "2.4"

_DAY = dict(seed=1, day_seconds=1800.0, peak_rate=0.5, n_servers=2)

#: figure -> (function, arguments, sha256 of the rendered figure)
FIGURES = {
    "fig3": (fig3_user_types_and_contribution,
             dict(seed=1, rate_per_s=0.4, horizon_s=240.0),
             "13d94d5b7469d81443046df703b4f0e5163ecc1350aa74c84b4b87642940f4ce"),
    "fig4": (fig4_overlay_structure,
             dict(seed=1, rate_per_s=0.4, horizon_s=600.0,
                  snapshot_every_s=200.0),
             "8e3018077af77e703f2425602095ec7c9d6a8f9d28105ea8e4d17af3f371f561"),
    "fig5": (fig5_user_evolution, _DAY,
             "3a3a5cbb0cfef7646754dc8fe4616f9342a628f691cde4597945adc6aeed06ca"),
    "fig6": (fig6_join_time_cdfs,
             dict(seed=1, burst_users_per_s=0.6, horizon_s=240.0),
             "ebb2e642f2e51354f5ae002f4baed1bf5ff011606482bce651a8f827e237c055"),
    "fig7": (fig7_ready_time_by_period, _DAY,
             "0660ff5da877db6c316402f523379564d62db529e5b8d725b51d2e157a850b1d"),
    "fig8": (fig8_continuity_by_type,
             dict(seed=1, rate_per_s=0.2, horizon_s=660.0),
             "740e9db3f611f1acf2861268a5dfd900d0e071dd0dec81a5db7b56715f17df91"),
    "fig9_size": (fig9_size_point, dict(n_users=200, horizon_s=300.0),
                  "2828459ad1a3d6da9e319c10d880d4fcc470ce860b53a984f7e4774f19bb38f6"),
    "fig9_rate": (fig9_rate_point, dict(rate=1.0, horizon_s=300.0),
                  "de50a320c365730f2f3e57af65b36e25cef5e6bd56e58183c5cc63606c219975"),
    "fig10": (fig10_sessions_and_retries,
              dict(seed=1, burst_users_per_s=1.0, horizon_s=300.0),
              "cffeaaaf49fcb09482786cd54ad64787430b7eee84501fe1e60566bb5026ea89"),
}

#: one flash crowd, seed 1, for ``paper_metrics`` and the ablation point
_CROWD = dict(burst_users_per_s=0.6, horizon_s=660.0)

PAPER_METRICS = {
    "detailed": "{'peak_concurrent_users': 109.0, "
                "'mean_continuity': 0.9998587654320988, "
                "'retry_session_fraction': 0.016042780748663103}",
    "fast": "{'peak_concurrent_users': 113.0, "
            "'mean_continuity': 0.9824386956521741, "
            "'retry_session_fraction': 0.026737967914438502}",
}

ABLATION_POINT = {
    "detailed": "{'sessions': 190.0, 'success_fraction': 1.0, "
                "'continuity': 0.9998587654320988, 'adaptations': 224.0, "
                "'ready_median_s': 6.830999999999989, "
                "'ready_p90_s': 13.447999999999979}",
    "fast": "{'sessions': 192.0, 'success_fraction': 1.0, "
            "'continuity': 0.9816770992366414, 'adaptations': nan, "
            "'ready_median_s': 15.0, 'ready_p90_s': 27.0}",
}

#: the control messages each delivery mode sent, summed over every session
#: of a small flash crowd (seed 1), departed sessions included
DELIVERY_CONTROL_MSGS = {
    "push (paper).data_control_msgs": 400.0,
    "pull (DONet).data_control_msgs": 18434.0,
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_render_matches_the_pin(name, pin_failure):
    fn, kwargs, digest = FIGURES[name]
    rendered = fn(**kwargs).render()
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest, \
        pin_failure(f"the {name} payload", NUMPY)


@pytest.mark.parametrize("engine", sorted(PAPER_METRICS))
def test_paper_metrics_match_the_pin(engine, pin_failure):
    horizon_s = _CROWD["horizon_s"]
    scenario = flash_crowd_storm(n_servers=2, **_CROWD)
    log = run_scenario(scenario, seed=1, engine=engine).log
    assert repr(paper_metrics(log, horizon_s)) == PAPER_METRICS[engine], \
        pin_failure(f"the {engine} paper metrics", NUMPY)


@pytest.mark.parametrize("engine", sorted(ABLATION_POINT))
def test_ablation_point_matches_the_pin(engine, pin_failure):
    metrics = run_variant(SystemConfig(), seed=1, engine=engine, **_CROWD)
    assert repr(metrics) == ABLATION_POINT[engine], \
        pin_failure(f"the {engine} ablation point", NUMPY)


def test_delivery_mode_control_msgs_match_the_pin(pin_failure):
    metrics = ablate_delivery_mode(seed=1, burst_users_per_s=0.6,
                                   horizon_s=300.0).metrics
    got = {key: metrics[key] for key in DELIVERY_CONTROL_MSGS}
    assert got == DELIVERY_CONTROL_MSGS, \
        pin_failure("the delivery-mode control messages", NUMPY)
