"""The randomized sweep of ``sweep.py``: every check at seed 0, 50 trials
each, in ``CHECKS`` order from one shared ``random.Random(0)``.
``scripts/random_verification.py`` runs deeper sweeps of the same checks."""

from sweep import CHECKS, sweep


def test_every_sweep_check_passes_every_trial():
    counts, censuses = {}, {}
    for name, ok, census in sweep(seed=0, trials=50):
        counts[name], censuses[name] = ok, census
    assert list(counts) == [name for name, _ in CHECKS]
    failing = {name: f"{ok}/50" for name, ok in counts.items() if ok != 50}
    assert failing == {}
    # both routes of the potential check decide some passing draws
    routes = censuses.pop("potential route vs closure route")
    assert set(routes) == {"potential", "closure"}
    assert not any(censuses.values())


def test_interleaved_sweeps_keep_their_own_census():
    alone = [list(sweep(seed, trials=3)) for seed in (0, 1)]
    interleaved = zip(*(sweep(seed, trials=3) for seed in (0, 1)))
    assert list(zip(*alone)) == list(interleaved)
