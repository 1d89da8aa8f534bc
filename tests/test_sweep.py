"""The randomized sweep of ``sweep.py``: every check at seed 0, 50 trials
each, in ``CHECKS`` order from one shared ``random.Random(0)``.
``scripts/random_verification.py`` runs deeper sweeps of the same checks."""

from sweep import CHECKS, sweep


def test_every_sweep_check_passes_every_trial():
    counts = dict(sweep(seed=0, trials=50))
    assert list(counts) == [name for name, _ in CHECKS]
    failing = {name: f"{ok}/50" for name, ok in counts.items() if ok != 50}
    assert failing == {}
