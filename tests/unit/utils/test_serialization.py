"""Unit tests for the storage-size helpers in repro.utils.serialization."""

from repro.utils.serialization import (
    FLOAT_BYTES,
    ID_BYTES,
    INT_BYTES,
    sizeof_float,
    sizeof_id,
    sizeof_int,
)


class TestSizeHelpers:
    def test_sizeof_int_default(self):
        assert sizeof_int() == INT_BYTES

    def test_sizeof_int_count(self):
        assert sizeof_int(10) == 10 * INT_BYTES

    def test_sizeof_float(self):
        assert sizeof_float(3) == 3 * FLOAT_BYTES

    def test_sizeof_id(self):
        assert sizeof_id(2) == 2 * ID_BYTES
