"""The sealed-record codec: every AAD and header layout, spelled out."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto import records
from repro.crypto.backend import IntegrityError
from repro.crypto.engine import EncryptionEngine
from repro.sgx.rand import SgxRandom

SID = bytes.fromhex("0000000000000003")
SEQ = bytes.fromhex("0000000000000009")


@pytest.mark.parametrize(
    "domain, position, expected",
    [
        (b"weights", (), b"weights"),  # a parameter buffer: its name
        (records.ROW, (), b""),
        (records.FINAL_MODEL, (), b"final-model"),
        (records.FED_PARAMS, (7,), b"fed-params|\x00\x00\x00\x00\x00\x00\x00\x07"),
        (records.LINK_TENSOR, (), b"inter-enclave-tensor"),
        (records.CHANNEL, (), b"plinius-secure-channel"),
        (records.MUX + records.REQUEST, (3, 9), b"plinius-mux|req" + SID + SEQ),
        (records.MUX + records.RESPONSE, (3, 9), b"plinius-mux|rsp" + SID + SEQ),
    ],
    ids=["param", "row", "final-model", "fed-params", "link", "channel",
         "mux-req", "mux-rsp"],
)
def test_aad_bytes(domain, position, expected):
    assert records.aad(domain, *position) == expected


@pytest.mark.parametrize(
    "layout, fmt, fields",
    [
        (records.MODEL_HEADER, "<QQQ", ("iteration", "num_layers", "head")),
        (records.LAYER_FIXED, "<QQ", ("next", "num_buffers")),
        (records.BUFFER_REF, "<QQ", ("sealed_size", "offset")),
        (records.FILE_HEADER, "<QQ", ("iteration", "num_buffers")),
        (records.BUF_HEADER, "<Q", ("sealed_size",)),
        (
            records.DATA_HEADER,
            "<QQQQQQQ",
            ("rows", "features", "classes", "row_plain", "row_stored",
             "rows_offset", "encrypted"),
        ),
        (records.ROW_HEADER, "<QQQ", ("rows", "features", "classes")),
        (records.REQUEST_HEADER, "<QQ", ("n_samples", "features")),
        (records.LEDGER_HEADER, "<QQ", ("count", "capacity")),
        (
            records.LEDGER_ENTRY,
            "<QQ32sQQQQ",
            ("round", "n_clients", "merkle_root", "params_size",
             "params_offset", "leaves_size", "leaves_offset"),
        ),
    ],
)
def test_header_layouts(layout, fmt, fields):
    assert (layout.format, layout.fields) == (fmt, fields)


def _engine():
    return EncryptionEngine(b"k" * 16, rand=SgxRandom(b"records"))


class TestOpenParam:
    def test_an_overwritable_array_is_opened_in_place(self):
        values = np.arange(6, dtype=np.float32)
        sealed = bytearray(values.nbytes + 28)
        records.seal_param(_engine(), values.tobytes(), sealed, "biases")
        target = np.zeros(6, dtype=np.float32)
        records.open_param(_engine(), sealed, None, "biases", target)
        np.testing.assert_array_equal(target, values)

    def test_any_other_array_goes_through_set_parameter(self):
        class Layer:
            def set_parameter(self, name, got):
                self.got = (name, got.copy())

        values = np.arange(6, dtype=np.float32)
        sealed = bytearray(values.nbytes + 28)
        records.seal_param(_engine(), values.tobytes(), sealed, "biases")
        layer = Layer()
        target = np.zeros(6, dtype=np.float64)
        records.open_param(_engine(), sealed, layer, "biases", target)
        assert layer.got[0] == "biases"
        np.testing.assert_array_equal(layer.got[1], values)
        assert not target.any()


@pytest.mark.parametrize("header", [b"", b"\x04\x00\x00\x00\x00\x00\x00"])
def test_a_short_frame_header_fails_closed(header):
    with pytest.raises(IntegrityError):
        records.frame_length(header, 1 << 20)


def test_an_upload_shorter_than_its_header_fails_closed():
    with pytest.raises(IntegrityError):
        records.open_upload(_engine(), b"\x00" * 8)
