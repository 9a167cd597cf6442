import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoq.errors import DimensionError, DomainError
from denoq.timestep_weighting import TimestepWeighter


def test_alpha_zero_disables_weighting():
    w = TimestepWeighter([1, 2, 3], alpha=0.0)
    w.update(1, 100.0)
    assert w.weight(1) == 1.0
    assert w.weight(3) == 1.0


def test_two_step_closed_form():
    """Averages {1, 3} at alpha=1 give weights 1-1/4 and 1-3/4."""
    w = TimestepWeighter([10, 20], alpha=1.0)
    w.update(10, 1.0)
    w.update(20, 3.0)
    assert w.weight(10) == pytest.approx(0.75, abs=1e-12)
    assert w.weight(20) == pytest.approx(0.25, abs=1e-12)


def test_momentum_update_closed_form():
    """xi=0.95: 0.95 * 2 + 0.05 * 4 = 2.1."""
    w = TimestepWeighter([5], xi=0.95)
    w.update(5, 2.0)  # bootstrap sets the average directly
    w.update(5, 4.0)
    assert w.running_average(5) == pytest.approx(2.1, abs=1e-12)


def test_bootstrap_first_observation():
    w = TimestepWeighter([1], xi=0.95)
    w.update(1, 8.0)
    assert w.running_average(1) == pytest.approx(8.0, abs=1e-12)


def test_weights_before_any_update_are_one():
    w = TimestepWeighter([1, 2], alpha=2.0)
    assert w.weight(1) == 1.0
    assert w.weight(2) == 1.0


def test_unknown_timestep_rejected():
    w = TimestepWeighter([1, 2])
    with pytest.raises(DomainError):
        w.weight(3)
    with pytest.raises(DomainError):
        w.update(99, 1.0)


def test_weighted_mean_worked_example():
    """Weights are computed from the state BEFORE the batch updates it."""
    w = TimestepWeighter([10, 20], alpha=1.0)
    w.update(10, 1.0)
    w.update(20, 3.0)
    losses = np.array([2.0, 4.0])
    ts = np.array([10, 20])
    got = w.weighted_mean(losses, ts)
    assert got == pytest.approx((0.75 * 2.0 + 0.25 * 4.0) / 2, abs=1e-12)
    # and the batch fed the running averages afterwards
    assert w.running_average(10) == pytest.approx(0.95 * 1.0 + 0.05 * 2.0)
    assert w.running_average(20) == pytest.approx(0.95 * 3.0 + 0.05 * 4.0)


def test_weighted_mean_groups_before_updating():
    """Two samples at one timestep update the average once, by their mean."""
    w = TimestepWeighter([7], xi=0.9)
    w.update(7, 10.0)
    w.weighted_mean(np.array([2.0, 4.0]), np.array([7, 7]))
    assert w.running_average(7) == pytest.approx(0.9 * 10.0 + 0.1 * 3.0)


def test_weighted_mean_validation():
    w = TimestepWeighter([1])
    with pytest.raises(DimensionError):
        w.weighted_mean(np.array([1.0]), np.array([1, 1]))
    with pytest.raises(DimensionError):
        w.weighted_mean(np.array([]), np.array([]))
    with pytest.raises(DomainError):
        w.weighted_mean(np.array([-1.0]), np.array([1]))
    with pytest.raises(DomainError):
        w.weighted_mean(np.array([np.nan]), np.array([1]))
    # the group sum overflows
    with pytest.raises(DomainError, match="finite"), np.errstate(over="ignore"):
        w.weighted_mean(np.array([1e308, 1e308]), np.array([1, 1]))


def test_constructor_validation():
    with pytest.raises(DomainError):
        TimestepWeighter([1, 1])
    with pytest.raises(DomainError):
        TimestepWeighter([])
    with pytest.raises(DomainError):
        TimestepWeighter([1], alpha=-0.5)
    with pytest.raises(DomainError):
        TimestepWeighter([1], xi=1.0)
    with pytest.raises(DomainError):
        TimestepWeighter([1], xi=-0.1)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    k=st.integers(2, 12),
    alpha=st.floats(0.1, 4.0),
)
def test_higher_average_never_gets_higher_weight(seed, k, alpha):
    """Anti-monotonicity: a timestep with a larger running average loss
    receives a weight no larger than any lower-loss timestep."""
    rng = np.random.default_rng(seed)
    ts = list(range(1, k + 1))
    w = TimestepWeighter(ts, alpha=alpha)
    losses = rng.uniform(0.0, 10.0, k)
    for t, l in zip(ts, losses):
        w.update(t, float(l))
    weights = np.array([w.weight(t) for t in ts])
    order = np.argsort(losses)
    assert np.all(np.diff(weights[order]) <= 1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31), alpha=st.floats(0.0, 4.0))
def test_weights_stay_in_unit_interval(seed, alpha):
    rng = np.random.default_rng(seed)
    ts = [1, 2, 3, 4]
    w = TimestepWeighter(ts, alpha=alpha)
    for t in ts:
        w.update(t, float(rng.uniform(0, 100)))
    for t in ts:
        assert 0.0 <= w.weight(t) <= 1.0


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), alpha=st.floats(0.0, 4.0))
def test_batch_weights_equal_per_step_weights_bit_for_bit(seed, alpha):
    rng = np.random.default_rng(seed)
    ts = [7, 3, 11, 5]
    w = TimestepWeighter(ts, alpha=alpha)
    batch = rng.choice(ts, 32)
    assert np.array_equal(w.weights(batch), np.ones(32))
    for t in ts[:3]:  # one timestep never updated keeps a zero average
        w.update(t, float(rng.uniform(0, 100)))
    assert np.array_equal(w.weights(batch), np.array([w.weight(t) for t in batch]))
    with pytest.raises(DomainError):
        w.weights([7, 4])


def test_larger_alpha_damps_high_loss_steps_harder():
    w1 = TimestepWeighter([1, 2], alpha=1.0)
    w2 = TimestepWeighter([1, 2], alpha=3.0)
    for w in (w1, w2):
        w.update(1, 1.0)
        w.update(2, 9.0)
    # the high-loss step's relative weight shrinks as alpha grows
    r1 = w1.weight(2) / w1.weight(1)
    r2 = w2.weight(2) / w2.weight(1)
    assert r2 < r1


def test_all_zero_losses_fall_back_to_uniform():
    w = TimestepWeighter([1, 2])
    w.update(1, 0.0)
    w.update(2, 0.0)
    assert w.weight(1) == 1.0
    assert w.weight(2) == 1.0


class DictWeighter:
    """The dict-and-loop weighter the array state replaced, kept as its
    oracle: a Python sum of the averages, a boolean mask and np.mean per
    timestep group, updates in ascending timestep order."""

    def __init__(self, timesteps, alpha, xi):
        self.alpha, self.xi = float(alpha), float(xi)
        self.avg = {int(t): 0.0 for t in timesteps}
        self.seen = {int(t): False for t in timesteps}

    def weight_from(self, avg, total):
        if self.alpha == 0.0 or total == 0.0:
            return 1.0
        base = 1.0 - avg / total
        if base < 0.0:
            base = 0.0
        return base**self.alpha

    def update(self, t, loss):
        if not self.seen[t]:
            self.avg[t], self.seen[t] = loss, True
        else:
            self.avg[t] = self.xi * self.avg[t] + (1.0 - self.xi) * loss

    def weight(self, t):
        return self.weight_from(self.avg[t], sum(self.avg.values()))

    def weighted_mean(self, losses, steps):
        total = sum(self.avg.values())
        weights = np.array([self.weight_from(self.avg[int(t)], total) for t in steps])
        result = float(np.mean(weights * losses))
        for t in sorted(set(int(t) for t in steps)):
            self.update(t, float(np.mean(losses[steps == t])))
        return result


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.7])
def test_array_state_matches_the_dict_oracle_bit_for_bit(alpha):
    """Groups of 1 to 40 rows: under 8 rows the group mean comes from
    bincount, from 8 rows on from np.mean, which sums pairwise there."""
    rng = np.random.default_rng(int(alpha * 10))
    ts = [980, 35, 512, 7, 250, 999]
    got, want = TimestepWeighter(ts, alpha=alpha, xi=0.9), DictWeighter(ts, alpha, 0.9)
    for size in range(1, 41):
        for _ in range(6):
            # one timestep gets a group of `size` rows, the others 0-3 rows
            steps = [rng.choice(ts)] * size
            steps += [t for t in ts for _ in range(rng.integers(0, 4))]
            steps = np.array(steps)[rng.permutation(len(steps))]
            losses = rng.uniform(0.0, 1.0, steps.size) * 10.0 ** rng.uniform(-6, 6, steps.size)
            assert got.weighted_mean(losses, steps) == want.weighted_mean(losses, steps)
            for t in ts:
                assert got.running_average(t) == want.avg[t]
            assert np.array_equal(
                got.weights(ts), [want.weight_from(want.avg[t], sum(want.avg.values())) for t in ts]
            )


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_scalar_calls_match_the_dict_oracle_bit_for_bit(alpha):
    """update, weight and running_average go through the batch state and
    give what the per-timestep formulas give, including after batches."""
    rng = np.random.default_rng(7)
    ts = [980, 35, 512, 7]
    got, want = TimestepWeighter(ts, alpha=alpha, xi=0.9), DictWeighter(ts, alpha, 0.9)
    for step in range(200):
        t = int(rng.choice(ts))
        loss = float(rng.uniform(0.0, 1.0) * 10.0 ** rng.uniform(-6, 6))
        if step % 5 == 4:
            steps = np.array([t] * 3 + [int(rng.choice(ts))])
            losses = rng.uniform(0.0, 10.0, 4)
            assert got.weighted_mean(losses, steps) == want.weighted_mean(losses, steps)
        else:
            got.update(t, loss)
            want.update(t, loss)
        for u in ts:
            assert got.running_average(u) == want.avg[u]
            assert got.weight(u) == want.weight(u)


def test_cached_table_equals_a_fresh_one_after_every_fold():
    """The weight table is built once per state: weights and weighted_mean
    of one batch share it, and every fold (update or weighted_mean)
    replaces it with the table of the new averages."""
    rng = np.random.default_rng(13)
    ts = [980, 35, 512, 7, 250]
    got = TimestepWeighter(ts, alpha=1.5, xi=0.9)

    def fresh_table():
        twin = TimestepWeighter(ts, alpha=1.5, xi=0.9)
        twin._avg, twin._seen = got._avg.copy(), got._seen.copy()
        return twin._table()

    for step in range(60):
        steps = rng.choice(ts, int(rng.integers(1, 12)))
        before = got._table()
        assert before is got._table()
        assert np.array_equal(before, fresh_table())
        assert np.array_equal(got.weights(steps), before[got._positions(steps)])
        if step % 3 == 2:
            got.update(int(steps[0]), float(rng.uniform(0.0, 5.0)))
        else:
            got.weighted_mean(rng.uniform(0.0, 5.0, steps.size), steps)
        assert got._table() is not before
        assert np.array_equal(got._table(), fresh_table())


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_one_lookup_per_batch_equals_two_independent_lookups(alpha):
    """A batch looked up once and handed to weights and weighted_mean
    gives the weights, mean, running averages and table of the same calls
    on the raw timesteps, bit for bit."""
    rng = np.random.default_rng(17)
    ts = [980, 35, 512, 7, 250, 101]
    shared = TimestepWeighter(ts, alpha=alpha, xi=0.9)
    plain = TimestepWeighter(ts, alpha=alpha, xi=0.9)
    for _ in range(80):
        steps = rng.choice(ts, int(rng.integers(1, 40)))
        losses = rng.uniform(0.0, 5.0, steps.size) ** 3
        found = shared.lookup(steps)
        assert shared.weights(found).tobytes() == plain.weights(steps).tobytes()
        assert shared.weighted_mean(losses, found) == plain.weighted_mean(losses, steps)
        assert shared._avg.tobytes() == plain._avg.tobytes()
        assert shared._table().tobytes() == plain._table().tobytes()


def test_a_lookup_belongs_to_its_weighter():
    a, b = TimestepWeighter([1, 2]), TimestepWeighter([2, 1])
    found = a.lookup([1, 1, 2])
    with pytest.raises(DomainError):
        b.weights(found)
    with pytest.raises(DomainError):
        b.weighted_mean(np.ones(3), found)
    with pytest.raises(DimensionError):
        a.weighted_mean(np.ones(2), found)
    with pytest.raises(DomainError):
        a.lookup([3])


@pytest.mark.parametrize("n_steps", [20, 2])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_the_fold_matches_the_dict_oracle_at_the_descents_shapes(n_steps, alpha):
    """Batches of 32 rows, as the descent draws them: over 20 timesteps
    almost every group has fewer than 8 rows, over 2 most have 8 or more,
    which take np.mean. Weighted means, running averages and weights are the
    oracle's, bit for bit, and so is the state after each refusal."""
    rng = np.random.default_rng(n_steps * 10 + int(alpha * 2))
    ts = [int(t) for t in rng.permutation(np.arange(1, 1000, 1000 // n_steps))[:n_steps]]
    got, want = TimestepWeighter(ts, alpha=alpha, xi=0.95), DictWeighter(ts, alpha, 0.95)
    sizes = set()
    for step in range(120):
        steps = rng.choice(ts, 32)
        sizes.update(np.unique(steps, return_counts=True)[1].tolist())
        losses = rng.uniform(0.0, 1.0, 32) * 10.0 ** rng.uniform(-8, 8, 32)
        if step % 40 == 39:
            bad = losses.copy()
            bad[7] = -1.0 if step % 80 == 39 else np.inf
            with pytest.raises(DomainError, match="per-sample losses must be finite and >= 0"):
                got.weighted_mean(bad, got.lookup(steps))
            huge = np.full(32, 1e308)
            with pytest.raises(DomainError, match="batch mean loss must be finite"), \
                    np.errstate(over="ignore"):
                got.weighted_mean(huge, steps)
        assert got.weighted_mean(losses, got.lookup(steps)) == want.weighted_mean(losses, steps)
        assert [got.running_average(t) for t in ts] == [want.avg[t] for t in ts]
        total = sum(want.avg.values())
        assert got.weights(ts).tolist() == [want.weight_from(want.avg[t], total) for t in ts]
    assert (max(sizes) >= 8) if n_steps == 2 else (min(sizes) < 8)


def test_one_lookup_of_a_record_gives_each_batchs_positions():
    """Indexing the lookup of a whole record with a batch's rows gives the
    lookup of the batch's timesteps, for that weighter only."""
    rng = np.random.default_rng(23)
    ts = [980, 35, 512, 7, 250]
    w = TimestepWeighter(ts, alpha=1.5)
    record = rng.choice(ts, 320)
    found = w.lookup(record)
    for _ in range(20):
        batch = rng.permutation(320)[:32]
        part = found[batch]
        assert part.weighter is w
        assert part.positions.tolist() == w.lookup(record[batch]).positions.tolist()
        assert w.weights(part).tolist() == w.weights(record[batch]).tolist()
    with pytest.raises(DomainError):
        TimestepWeighter(ts).weights(found[:4])
