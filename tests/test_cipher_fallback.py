"""The keystream tests of ``test_cipher``, run again on the Python schedule.

``cipher`` chooses libcrypto's key schedule at import when it passes the
known-answer check, so on most hosts ``test_cipher`` exercises only that
path. Every test imported here runs with the fallback forced instead.
"""

import pytest

from modellock import cipher

from test_cipher import (  # noqa: F401  (collected here a second time)
    test_bad_key_length_rejected,
    test_chaining_rule,
    test_final_round_key_slice,
    test_first_schedule_matches_fips_appendix_a,
    test_keystream_at_block_boundaries,
    test_keystream_determinism,
    test_keystream_digest_pinned,
    test_keystream_matches_reference_key_expansion,
    test_negative_length_rejected,
    test_prefix_consistency,
    test_round_key_zero_is_the_master_key,
    test_round_trip,
    test_schedule_encrypts_appendix_b,
    test_zero_length_stream,
)


@pytest.fixture(autouse=True, scope="module")
def python_schedule():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cipher, "_SET_ENCRYPT_KEY", None)
        yield


def test_fallback_in_force(monkeypatch):
    def no_native(*args):
        raise AssertionError("native schedule called")
    monkeypatch.setattr(cipher, "_expand_native", no_native)
    assert cipher.expand_keystream(bytes(16), 1000) == cipher._expand_python(bytes(16), 1000)
