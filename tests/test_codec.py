import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeopt.codec import (
    ConstantEncoder,
    DeterministicEncoder,
    EmaDeterministicEncoder,
    EmaDecoder,
    FloatEncoder,
    PoissonEncoder,
    RateDecoder,
    RateDeterministicEncoder,
    SignedDecoder,
    StochasticEncoder,
    heaviside,
    make_rng,
    signed_encoder,
)
from spikeopt.schedules import Schedule


def emitted(encoder, T):
    """The first T emissions of `encoder`, as an array."""
    return np.array([encoder.step() for _ in range(T)])


def drive(decoder, spikes):
    for s in spikes:
        decoder.step(s)
    return decoder.y


class TestHeaviside:
    def test_tie_fires(self):
        assert heaviside(0.0) == 1.0

    def test_signs(self):
        np.testing.assert_array_equal(heaviside(np.array([-1e-300, 0.0, 2.0])), [0, 1, 1])


class TestDecoders:
    def test_rate(self):
        assert drive(RateDecoder(), [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_ema(self):
        assert drive(EmaDecoder(2.0), [1, 1]) == pytest.approx(0.75)

    def test_signed_inverse(self):
        y = drive(SignedDecoder(Schedule.inverse(1.0)), [1, 1])
        assert y == pytest.approx(-1 / 2 - 1 / 3)

    def test_rate_stays_in_unit_interval(self):
        rng = np.random.default_rng(0)
        dec = RateDecoder()
        for s in rng.integers(0, 2, 200):
            dec.step(s)
            assert 0.0 <= dec.y <= 1.0

    def test_ema_stays_in_unit_interval(self):
        rng = np.random.default_rng(1)
        dec = EmaDecoder(7.0)
        for s in rng.integers(0, 2, 500):
            dec.step(s)
            assert 0.0 <= dec.y <= 1.0


class TestFloatEncoder:
    def test_zero_input_first_emission(self):
        assert emitted(FloatEncoder(0.0, Schedule.inverse(1.0)), 1)[0] == 0.5

    def test_traced_example(self):
        # x = 2, constant eta = 1: grad -2 then 0
        train = emitted(FloatEncoder(2.0, Schedule.constant(1.0)), 2)
        np.testing.assert_allclose(train, [-0.5, 0.5])

    def test_replay_identity(self):
        # decoded trajectory == encoder's internal f at every step, via 2v - 1
        s = Schedule.exponential(0.5, 0.9)
        enc = FloatEncoder(1.37, s)
        dec = SignedDecoder(s)
        for _ in range(50):
            v = enc.step()
            dec.step(v)
            assert dec.y == pytest.approx(enc.f, abs=1e-12)


class TestDeterministicEncoder:
    def test_spec_trace(self):
        # x = 0.3, inverse(1): H(0)=1 fires first, then chase
        train = emitted(DeterministicEncoder(0.3, Schedule.inverse(1.0)), 3)
        np.testing.assert_array_equal(train, [0, 1, 0])
        dec = SignedDecoder(Schedule.inverse(1.0))
        y = drive(dec, train)
        assert y == pytest.approx(1 / 2 - 1 / 3 + 1 / 4)

    def test_zero_input_oscillates_from_one(self):
        # symmetric oscillation around 0: first spike is the tie H(0)=1, and
        # the decode never strays further than the current step size
        s = Schedule.inverse(1.0)
        enc = DeterministicEncoder(0.0, s)
        first = enc.step()
        assert first == 1.0
        for t in range(2, 50):
            enc.step()
            assert abs(enc.f) <= s(t) + 1e-15

    def test_saturation_far_outside_range(self):
        s = Schedule.exponential(0.15, 0.965)
        train = emitted(DeterministicEncoder(100.0, s), 64)
        np.testing.assert_array_equal(train, np.zeros(64))
        dec = SignedDecoder(s)
        assert drive(dec, train) == pytest.approx(s.cumulative(64))

    def test_replay_identity(self):
        s = Schedule.inverse(1.0)
        enc = DeterministicEncoder(-0.7, s)
        dec = SignedDecoder(s)
        for _ in range(100):
            dec.step(enc.step())
            assert dec.y == pytest.approx(enc.f, abs=1e-12)

    def test_convergence_grid(self):
        # after the first sign flip of (f - x), |decode(t) - x| <= eta(t) + 1/t,
        # checked at every step over the grid x in {-10, -9.9, ..., 10}
        s = Schedule.inverse(1.0)
        x = np.round(np.arange(-10.0, 10.01, 0.1), 2)
        enc = DeterministicEncoder(x, s)
        sign0 = heaviside(-x)
        flipped = np.zeros(x.shape, dtype=bool)
        T = 40_000  # sum eta reaches 10 around t ~ 3.4e4
        for t in range(1, T + 1):
            enc.step()
            flipped |= heaviside(enc.f - x) != sign0
            bad = flipped & (np.abs(enc.f - x) > s(t) + 1.0 / t + 1e-12)
            assert not bad.any(), (t, x[bad][:5])
        assert flipped.all()


class TestStochasticEncoder:
    def test_c_zero_is_fair_coin(self):
        train = emitted(StochasticEncoder(0.5, Schedule.inverse(1.0), c=0.0, seed=7), 4000)
        assert abs(train.mean() - 0.5) < 0.03

    def test_seed_determinism(self):
        a = emitted(StochasticEncoder(0.2, Schedule.inverse(1.0), c=1.0, seed=99), 256)
        b = emitted(StochasticEncoder(0.2, Schedule.inverse(1.0), c=1.0, seed=99), 256)
        np.testing.assert_array_equal(a, b)

    def test_replay_identity(self):
        s = Schedule.inverse(1.0)
        enc = StochasticEncoder(0.4, s, c=0.8, seed=3)
        dec = SignedDecoder(s)
        for _ in range(100):
            dec.step(enc.step())
            assert dec.y == pytest.approx(enc.f, abs=1e-12)

    def test_c_out_of_range(self):
        with pytest.raises(ValueError):
            StochasticEncoder(0.0, Schedule.inverse(1.0), c=1.5, seed=0)


class TestPoissonEncoder:
    def test_zero_gives_silence(self):
        np.testing.assert_array_equal(emitted(PoissonEncoder(0.0, seed=1), 32), np.zeros(32))

    def test_above_one_saturates(self):
        np.testing.assert_array_equal(emitted(PoissonEncoder(1.5, seed=1), 32), np.ones(32))

    def test_rate_statistics(self):
        train = emitted(PoissonEncoder(0.5, seed=42), 10_000)
        assert abs(train.mean() - 0.5) < 0.02

    def test_rate_decode_matches_mean(self):
        train = emitted(PoissonEncoder(0.3, seed=5), 500)
        assert drive(RateDecoder(), train) == pytest.approx(train.mean())


class TestRateDeterministicEncoder:
    @pytest.mark.parametrize("x", [0.0, 0.17, 0.5, 0.73, 1.0])
    def test_o_one_over_t_error(self, x):
        enc = RateDeterministicEncoder(x)
        count = 0.0
        for t in range(1, 301):
            count += enc.step()
            assert abs(count / t - x) <= 1.0 / t + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(-5, 5),
    kind=st.sampled_from(["float", "det"]),
    c=st.floats(1e-3, 4.0),
)
def test_encoder_replay_property(x, kind, c):
    """Signed-schedule decoding of any emitted train equals the encoder's f."""
    s = Schedule.inverse(c)
    enc = (FloatEncoder if kind == "float" else DeterministicEncoder)(x, s)
    dec = SignedDecoder(s)
    for _ in range(40):
        dec.step(enc.step())
    assert dec.y == pytest.approx(enc.f, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    items=st.integers(1, 4),
    shape=st.lists(st.integers(3, 12), min_size=1, max_size=3).map(tuple),
    T=st.integers(1, 40),
    K=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["poisson", "stoch"]),
)
def test_block_draws_are_the_per_step_stream(items, shape, T, K, seed, kind):
    """A batch draws each item's randoms a block of K frames at a time. Over
    T steps, K not always dividing T, its frames are each item run alone,
    whose generator draws one frame per step."""
    X = make_rng(seed).uniform(-0.5, 1.5, (items, *shape))
    seeds = [seed + 1000 * i for i in range(items)]

    def encoder(x, seed):
        if kind == "poisson":
            return PoissonEncoder(x, seed=seed)
        return StochasticEncoder(x, Schedule.inverse(1.0), c=0.7, seed=seed)

    batch = encoder(X, seeds)
    got = np.empty((T, items, *shape))
    for t in range(0, T, K):
        batch.fill(got[t : t + K])
    for i, s in enumerate(seeds):
        alone = encoder(X[i], s)
        np.testing.assert_array_equal(got[:, i], [alone.step() for _ in range(T)])
        if kind == "poisson":
            g, p = make_rng(s), np.clip(X[i], 0.0, 1.0)
            stream = [(g.random(shape) < p).astype(np.float64) for _ in range(T)]
            np.testing.assert_array_equal(got[:, i], stream)


ENCODERS = ["float", "det", "stoch", "poisson", "constant", "rate-det", "ema-det"]
STATE = {"float": "f", "det": "f", "stoch": "f", "rate-det": "count", "ema-det": "xt"}


def make_encoder(kind, x, seed, schedule=Schedule.exponential(0.5, 0.9)):
    if kind in ("float", "det", "stoch"):
        return signed_encoder(kind, x, schedule, c=0.6, seed=seed)
    return {"poisson": lambda: PoissonEncoder(x, seed=seed),
            "constant": lambda: ConstantEncoder(x),
            "rate-det": lambda: RateDeterministicEncoder(x),
            "ema-det": lambda: EmaDeterministicEncoder(x, 3.0)}[kind]()


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(ENCODERS),
    items=st.sampled_from(["scalar", "one", "batch"]),
    size=st.integers(1, 6),
    T=st.integers(1, 30),
    K=st.integers(1, 30),
    seed=st.integers(0, 2**16),
    per_item=st.booleans(),
)
def test_fill_is_the_one_frame_steps(kind, items, size, T, K, seed, per_item):
    """`fill` over T steps in blocks of K, K not always dividing T, gives
    the frames and the end state (t, and f, count or xt) that T calls of
    `step()` give, bit for bit: for a scalar x, one item and a batch, whose
    items draw from one generator or each from its own seed."""
    rng = make_rng(seed)
    shape = {"scalar": (), "one": (size,), "batch": (3, size)}[items]
    x = rng.uniform(-1.5, 1.5, shape)
    x = float(x) if items == "scalar" else x
    seeds = [seed + 1000 * i for i in range(3)] if items == "batch" and per_item else seed
    stepped, filled = make_encoder(kind, x, seeds), make_encoder(kind, x, seeds)
    want = [stepped.step() for _ in range(T)]
    got = np.empty((T, *shape))
    for t in range(0, T, K):
        filled.fill(got[t : t + K])
    np.testing.assert_array_equal(got, np.array(want))
    assert filled.t == stepped.t == T
    if kind in STATE:
        np.testing.assert_array_equal(getattr(filled, STATE[kind]), getattr(stepped, STATE[kind]))
    if items == "scalar":
        assert all(type(s) is float for s in want)
