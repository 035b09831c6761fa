"""Property-based tests for the seed-derivation helpers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import derive_seed, seed_deriver

scalar_labels = st.one_of(st.text(max_size=12), st.integers(-(2**70), 2**70))
labels = st.one_of(scalar_labels, st.tuples(scalar_labels, scalar_labels))


class TestSeedDeriver:
    @given(
        base=st.integers(-(2**70), 2**70),
        prefix=st.lists(labels, max_size=3),
        lasts=st.lists(labels, min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_derive_seed_with_the_last_label_appended(self, base, prefix, lasts):
        derive = seed_deriver(base, *prefix)
        # One deriver serves many last labels: each call starts from the
        # shared prefix, never from the previous call's state.
        for last in lasts:
            assert derive(last) == derive_seed(base, *prefix, last)

    def test_stream_user_seed_is_pinned(self):
        # The per-user seed the streaming source derives for user 1 at seed 7.
        expected = 14159278048318386406
        assert derive_seed(7, "stream-user", "u0000001") == expected
        assert seed_deriver(7, "stream-user")("u0000001") == expected
