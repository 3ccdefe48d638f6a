"""The package's Philox4x64-10 stream (iidtails._philox): pinned outputs
that need no numpy, and a differential test against numpy's
Generator(Philox(key)) while numpy is installed."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iidtails._philox import KEY_LIMIT, Stream, _block, _lemire, _round_keys

EDGE_KEYS = (0, 2 ** 64, KEY_LIMIT - 1)
# both sides of 2**32, exactly 2**32 and 2**64 (where numpy takes one word
# as is), and 2**31 + 1, where Lemire draws again about half the time
EDGE_SPANS = (2, 3, 12, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
              2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64)


def _draws(rng) -> list:
    """Three full-range words, five digits, then one 2**40-wide draw:
    64-bit words, buffered 32-bit halves, and 64-bit Lemire in turn."""
    return [int(v) for v in rng.integers(-2 ** 63, 2 ** 63, size=3)] + \
        [int(v) for v in rng.integers(0, 10, size=5)] + \
        [int(rng.integers(-2 ** 40, 2 ** 40))]


class TestPinned:
    def test_random123_known_answers(self):
        """Philox4x64-10 blocks at the counters and keys of Random123's
        known-answer vectors."""
        ones = 2 ** 256 - 1
        pi_counter = sum(w << (64 * i) for i, w in enumerate((
            0x243F6A8885A308D3, 0x13198A2E03707344,
            0xA4093822299F31D0, 0x082EFA98EC4E6C89)))
        pi_key = 0x452821E638D01377 + (0xBE5466CF34E90C6C << 64)
        for counter, key, want in (
                (0, 0, (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
                        0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
                (ones, KEY_LIMIT - 1, (0x87B092C3013FE90B, 0x438C3C67BE8D0224,
                                       0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
                (pi_counter, pi_key, (0xA528F45403E61D95, 0x38C72DBD566E9788,
                                      0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6))):
            assert _block(counter, _round_keys(key)) == list(want)

    def test_first_draws(self):
        """The first draws of three keys, as numpy 2.4 draws them."""
        assert [_draws(Stream(key)) for key in EDGE_KEYS] == [
            [-9010372015652808549, -4767575826652150350,
             -7167927796976570759, 1, 5, 5, 5, 9, 981961284477],
            [5780362167343763830, 4636246476654184293, 3166365979575517285,
             9, 4, 9, 7, 6, 692681325949],
            [-1349166675937673602, 1319169214276864960, 9062191335662489985,
             4, 7, 9, 4, 1, -1001433761493],
        ]

    @pytest.mark.parametrize("bits", [7, 8])
    def test_lemire_is_exactly_uniform(self, bits):
        """Over every one-word draw, Lemire accepts each value of every
        span up to 2**bits equally often, and rejects the rest."""
        for span in range(1, 2 ** bits + 1):
            counts = Counter()
            for word in range(2 ** bits):
                try:
                    counts[_lemire(iter([word]).__next__, bits, span)] += 1
                except StopIteration:   # rejected: it asked for a second word
                    pass
            assert counts == dict.fromkeys(range(span), 2 ** bits // span)

    def test_one_value_draws_nothing(self):
        rng = Stream(0)
        assert rng.integers(5, 6) == 5 and rng.integers(5, 6, size=3) == [5] * 3
        assert rng.choice(("only",)) == "only"
        assert _draws(rng) == _draws(Stream(0))

    @pytest.mark.parametrize("key", [-1, KEY_LIMIT])
    def test_refuses_keys_outside_128_bits(self, key):
        with pytest.raises(ValueError, match=r"key must be in \[0, 2\*\*128\)"):
            Stream(key)

    @pytest.mark.parametrize("key", [0, KEY_LIMIT - 1])
    def test_accepts_the_key_range_ends(self, key):
        assert Stream(key).integers(0, 10) in range(10)

    @pytest.mark.parametrize("low, high", [(3, 3), (4, 3), (0, 2 ** 64 + 1)])
    def test_refuses_empty_and_over_wide_ranges(self, low, high):
        with pytest.raises(ValueError):
            Stream(0).integers(low, high)


# one call on a stream: ("integers", span, low, size) or ("choice", length)
_calls = st.one_of(
    st.tuples(st.just("integers"),
              st.one_of(st.sampled_from(EDGE_SPANS), st.integers(1, 2 ** 64)),
              st.integers(-2 ** 63, 2 ** 63),
              st.one_of(st.none(), st.integers(0, 6))),
    st.tuples(st.just("choice"), st.integers(1, 9)))


def _call(rng, call):
    """The draw of one call, as Python ints."""
    if call[0] == "choice":
        return int(rng.choice(tuple(range(call[1]))))
    _, span, low, size = call
    low = min(low, 2 ** 63 - span)     # numpy draws int64
    got = rng.integers(low, low + span, size=size)
    if size is None:
        return int(got)
    return [int(v) for v in got]


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


class TestAgainstNumpy:
    @given(st.one_of(st.sampled_from(EDGE_KEYS), st.integers(0, KEY_LIMIT - 1)),
           st.lists(_calls, max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_draw_for_draw(self, np, key, calls):
        """Scalar, size= and choice calls interleaved on one stream, so
        32- and 64-bit draws share its buffered half; the stream then ends
        where numpy's does."""
        ours = Stream(key)
        theirs = np.random.Generator(np.random.Philox(key=key))
        for call in calls:
            assert _call(ours, call) == _call(theirs, call)
        assert _draws(ours) == _draws(theirs)

    def test_lemire_draws_again_near_2_31(self, np):
        """At span 2**31 + 1 about half the 32-bit words are rejected; the
        stream matches numpy through 400 draws and the ~400 words redrawn."""
        ours = Stream(0)
        theirs = np.random.Generator(np.random.Philox(key=0))
        span = 2 ** 31 + 1
        assert ours.integers(0, span, size=400) == \
            [int(v) for v in theirs.integers(0, span, size=400)]
        state = theirs.bit_generator.state
        words = 2 * (4 * (int(state["state"]["counter"][0]) - 1)
                     + state["buffer_pos"]) - state["has_uint32"]
        assert words > 600
        assert _draws(ours) == _draws(theirs)

    @pytest.mark.parametrize("key", [-1, KEY_LIMIT])
    def test_numpy_refuses_the_same_keys(self, np, key):
        with pytest.raises(ValueError):
            np.random.Philox(key=key)
