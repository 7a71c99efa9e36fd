"""The spec grids: one placement-group shape, spec order pinned.

The four ``batch --grid`` spec lists are goldens in the same sense as
the frozen fingerprints: a cache filled before a grid refactor must be
served, in the same order, after it.
"""

import pytest

from repro.cli import build_parser
from repro.exp.batch import batch_fingerprint
from repro.exp.grid import (
    GRIDS,
    flatten,
    placement_specs,
    policy_tournament,
    table3_grid,
    threshold_grid,
)

#: ``batch_fingerprint`` prefix and length of every grid's default spec
#: list, full-size then ``--quick`` (captured before PlacementGroup).
GRID_ORDER = {
    (): {
        "table3": ("91b196c2b957a7c0", 24),
        "sweep": ("dc8f45ba9aa0ecee", 14),
        "chaos": ("719c5d550c61d709", 3),
        "tournament": ("3e3366e84d5d9703", 12),
    },
    ("--quick",): {
        "table3": ("e0676a4ba334ed91", 24),
        "sweep": ("a59a21cf34700753", 14),
        "chaos": ("abc2999390d64c31", 3),
        "tournament": ("3eb3d0493e919482", 12),
    },
}


@pytest.mark.parametrize("flags", GRID_ORDER)
def test_default_grids_keep_their_specs_and_order(flags):
    assert set(GRID_ORDER[flags]) == set(GRIDS)
    args = build_parser().parse_args(["batch", *flags])
    for name, (prefix, count) in GRID_ORDER[flags].items():
        specs = GRIDS[name](args)
        digest = batch_fingerprint([spec.fingerprint() for spec in specs])
        assert (name, digest[:16], len(specs)) == (name, prefix, count)


def test_table3_is_the_one_entrant_tournament():
    apps = ["ParMult", "fft"]
    shape = dict(n_processors=3, threshold=2, quick=True)
    tournament = policy_tournament(
        apps, policies=[("move-threshold", ())], **shape
    )
    assert flatten(table3_grid(apps, **shape)) == flatten(tournament)
    [group] = table3_grid(["ParMult"], **shape)
    assert group == placement_specs(
        "ParMult", check_invariants=False, **shape
    )
    assert group.specs == [group.tnuma, group.tglobal, group.tlocal]


def test_sweep_groups_share_one_tlocal_and_carry_no_tglobal():
    [group] = threshold_grid(["ParMult"], [0, 4, 8], quick=True)
    assert list(group.entrants) == [0, 4, 8]
    assert group.tglobal is None
    assert group.specs == [*group.entrants.values(), group.tlocal]

