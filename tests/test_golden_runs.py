"""Golden records: the solver's output may move only within a stated tolerance.

`golden_runs.json` holds three records written by the full-spectrum IF-RK4
loop (commit 123dd56), before stepping moved to the rfft half spectrum. That
move reorders floating-point work, so records are no longer bit-identical;
this test states how far they may drift:

* outcome, sample count and firing time (the last sample's t) are pinned;
* every float stays within 1e-12 * max(|value|, samples[0].linf);
* tail_fraction stays within 1e-12 relative where it is >= 1e-5, and within
  1e-17 absolute below that, where it is roundoff of a resolved field.

The config of each record must match exactly, so config hashes (and sweep
resumption) are unchanged. The golden records are schema 1 dicts, read
through record_from_dict.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from ccflab.experiments import cosine_positive, make_datum, von_mises_bump
from ccflab.records import DiagnosticsSample, record_from_dict
from ccflab.solver import DiagnosticPlan, ModelParams, StepControl, run
from ccflab.torus import TorusGrid

GOLDEN = json.loads(Path(__file__).with_name("golden_runs.json").read_text(encoding="utf-8"))
REL_TOL = 1e-12
TAIL_ABS_TOL = 1e-17
TAIL_REL_FLOOR = 1e-5

CASES = {
    # a grid size that is not a power of two
    "n96_gamma07": (
        cosine_positive(1.0, 0.75),
        ModelParams(gamma=0.7, n=96),
        StepControl(t_end=1.0, snapshot_every=0.1),
        DiagnosticPlan((0.5,)),
    ),
    # the simulate-stepping benchmark datum
    "n1024_gamma15": (
        cosine_positive(1.0, 0.8184808436607272),
        ModelParams(gamma=1.5, n=1024),
        StepControl(t_end=1.0, snapshot_every=0.2),
        DiagnosticPlan(),
    ),
    # acceptance criterion 10: inviscid, undealiased, stops at a detector
    "inviscid_von_mises": (
        von_mises_bump(5.0),
        ModelParams(gamma=1.0, n=256, dissipation_on=False, dealias_on=False),
        StepControl(t_end=10.0, snapshot_every=0.5),
        DiagnosticPlan(),
    ),
}


def _float_fields(sample: DiagnosticsSample):
    for f in fields(sample):
        value = getattr(sample, f.name)
        if f.name == "holder":
            for alpha, seminorm in sorted(value.items()):
                yield f"holder[{alpha!r}]", seminorm
        else:
            yield f.name, value


def _within(key: str, got: float, want: float, scale: float) -> bool:
    if key == "tail_fraction":
        bound = REL_TOL * want if want >= TAIL_REL_FLOOR else TAIL_ABS_TOL
    else:
        bound = REL_TOL * max(abs(want), scale)
    return abs(got - want) <= bound


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_its_golden_record(name):
    datum, p, c, plan = CASES[name]
    want = record_from_dict({**GOLDEN[name], "wall_time": 0.0})  # stored without one
    got = run(make_datum(datum, TorusGrid(p.n)), p, c, plan=plan, datum=datum.to_config())

    assert got.config == want.config
    assert got.outcome == want.outcome
    assert len(got.samples) == len(want.samples)
    scale = want.samples[0].linf
    assert _within("t", got.samples[-1].t, want.samples[-1].t, scale)

    off = []
    for i, (s_got, s_want) in enumerate(zip(got.samples, want.samples)):
        assert s_got.holder.keys() == s_want.holder.keys()
        for (key, g), (_, w) in zip(_float_fields(s_got), _float_fields(s_want)):
            if not _within(key, g, w, scale):
                off.append(f"samples[{i}].{key}: {g!r} vs {w!r}")
    for key in ("t_star_predicted", "t_local_predicted"):
        g, w = getattr(got, key), getattr(want, key)
        if (g is None) != (w is None) or (w is not None and not _within(key, g, w, scale)):
            off.append(f"{key}: {g!r} vs {w!r}")
    assert not off, "\n".join(off)

