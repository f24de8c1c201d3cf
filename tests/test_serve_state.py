"""Snapshot/restore codec: byte-identical continuation, format checks.

The round-trip parity contract: snapshot a live stream anywhere,
restore it anywhere else, keep appending — every subsequent score must
be *byte-identical* (same float64 bit patterns) to the uninterrupted
stream's, across the PR 3 kernel input families, odd and even window
lengths, and snapshot points taken mid-egress.
"""

import json
import struct

import numpy as np
import pytest

from repro.serve import SNAPSHOT_VERSION, restore, snapshot
from repro.stream import (
    BatchStreamingAdapter,
    StreamingMatrixProfile,
    StreamingMatrixProfileDetector,
    StreamingRangeDetector,
    StreamingZScoreDetector,
    as_streaming,
)

from test_stream_profile import FAMILIES, make_family


def continuation(detector, tail):
    return np.asarray(detector.update(tail), dtype=float)


class TestProfileRoundTrip:
    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("w", (8, 9))
    def test_family_continuation_byte_identical(self, kind, w):
        values = make_family(kind, 13, 300)
        live = StreamingMatrixProfile(w)
        live.append(values[:170])
        restored = restore(snapshot(live))
        a = live.append(values[170:])
        b = restored.append(values[170:])
        # byte-identical, not allclose: restore must rebuild the exact
        # running state, so the continuations share every bit
        assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(live.profile(), restored.profile())

    @pytest.mark.parametrize("cut", (120, 171, 250))
    def test_mid_egress_snapshot_points(self, cut):
        # bounded horizon: windows have already been finalized out and
        # the egress queue is non-empty at the snapshot point
        values = make_family("walk", 29, 400)
        live = StreamingMatrixProfile(9, max_history=80)
        live.append(values[:cut])
        assert live.num_egressed > 0
        blob = snapshot(live)
        restored = restore(blob)
        a = live.append(values[cut:])
        b = restored.append(values[cut:])
        assert a.tobytes() == b.tobytes()
        start_a, egress_a = live.drain_egress()
        start_b, egress_b = restored.drain_egress()
        assert start_a == start_b
        assert egress_a.tobytes() == egress_b.tobytes()

    def test_undrained_egress_queue_travels(self):
        values = make_family("spikes", 3, 260)
        live = StreamingMatrixProfile(8, max_history=64)
        live.append(values)
        # snapshot with a full egress queue; drain on both sides after
        restored = restore(snapshot(live))
        start_a, egress_a = live.drain_egress()
        start_b, egress_b = restored.drain_egress()
        assert start_a == start_b
        assert egress_a.tobytes() == egress_b.tobytes()

    def test_same_state_same_bytes(self):
        values = make_family("walk", 5, 200)
        first = StreamingMatrixProfile(10)
        first.append(values)
        second = StreamingMatrixProfile(10)
        second.append(values)
        assert snapshot(first) == snapshot(second)

    def test_snapshot_of_restored_is_identical(self):
        values = make_family("near_constant", 7, 180)
        live = StreamingMatrixProfile(8, max_history=50)
        live.append(values)
        blob = snapshot(live)
        assert snapshot(restore(blob)) == blob

    def test_fresh_profile_round_trips(self):
        restored = restore(snapshot(StreamingMatrixProfile(12)))
        values = make_family("walk", 1, 120)
        expected = StreamingMatrixProfile(12).append(values)
        assert restored.append(values).tobytes() == expected.tobytes()


def detector_zoo():
    return [
        StreamingMatrixProfileDetector(w=16, max_history=120),
        StreamingMatrixProfileDetector(w=17),
        StreamingZScoreDetector(k=24),
        StreamingRangeDetector(k=15),
        as_streaming("moving_zscore(k=25)"),
        as_streaming("diff", window=80, refit_every=90),
    ]


class TestDetectorRoundTrip:
    @pytest.mark.parametrize(
        "detector", detector_zoo(), ids=lambda d: d.name
    )
    @pytest.mark.parametrize("kind", ("walk", "spikes"))
    def test_continuation_byte_identical(self, detector, kind):
        values = make_family(kind, 17, 400)
        detector.fit(values[:120])
        detector.update(values[120:260])
        restored = restore(snapshot(detector))
        a = continuation(detector, values[260:])
        b = continuation(restored, values[260:])
        assert a.tobytes() == b.tobytes()

    def test_restored_state_snapshot_identical(self):
        for detector in detector_zoo():
            values = make_family("walk", 19, 300)
            detector.fit(values[:100])
            detector.update(values[100:200])
            blob = snapshot(detector)
            assert snapshot(restore(blob)) == blob, detector.name

    def test_adapter_without_spec_is_rejected(self):
        from repro.detectors import make_detector

        bare = BatchStreamingAdapter(make_detector("diff"))
        bare.fit(np.arange(30.0))
        with pytest.raises(ValueError, match="registry spec"):
            snapshot(bare)

    def test_adapter_restore_preserves_refit_cadence(self):
        values = make_family("walk", 23, 500)
        live = as_streaming("moving_zscore(k=20)", refit_every=70)
        live.fit(values[:100])
        live.update(values[100:230])
        restored = restore(snapshot(live))
        # drive both across at least one refit boundary
        a = continuation(live, values[230:420])
        b = continuation(restored, values[230:420])
        assert a.tobytes() == b.tobytes()


class TestCodecFormat:
    def make_blob(self):
        profile = StreamingMatrixProfile(8)
        profile.append(make_family("walk", 2, 100))
        return snapshot(profile)

    def test_magic_and_version(self):
        blob = self.make_blob()
        assert blob.startswith(b"RSNAP")
        assert blob[5] == SNAPSHOT_VERSION

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="bad magic"):
            restore(b"NOTASNAP" + self.make_blob())

    def test_unknown_version_rejected(self):
        blob = bytearray(self.make_blob())
        blob[5] = 99
        with pytest.raises(ValueError, match="version 99"):
            restore(bytes(blob))

    def test_truncated_payload_rejected(self):
        blob = self.make_blob()
        with pytest.raises(ValueError):
            restore(blob[:-3])

    def test_header_past_the_end_rejected(self):
        blob = bytearray(self.make_blob())
        blob[6:14] = struct.pack("<Q", len(blob))
        with pytest.raises(ValueError, match="truncated"):
            restore(bytes(blob))

    @staticmethod
    def blob_with_header(header):
        raw = json.dumps(header).encode("utf-8")
        return b"RSNAP" + struct.pack("<BQ", SNAPSHOT_VERSION, len(raw)) + raw

    @pytest.mark.parametrize("missing", ("kind", "scalars", "arrays"))
    def test_header_missing_field_rejected(self, missing):
        # a KeyError here used to surface as 404 over HTTP
        header = {"kind": "stream_profile", "scalars": {}, "arrays": []}
        del header[missing]
        with pytest.raises(ValueError, match="lacks"):
            restore(self.blob_with_header(header))

    @pytest.mark.parametrize(
        "descriptor",
        (
            {"dtype": "<f8", "shape": [0]},
            {"name": "x", "dtype": "no-such-dtype", "shape": [0]},
            {"name": "x", "dtype": "<f8", "shape": None},
            "x",
        ),
    )
    def test_malformed_array_descriptor_rejected(self, descriptor):
        header = {
            "kind": "stream_profile", "scalars": {}, "arrays": [descriptor]
        }
        with pytest.raises(ValueError, match="descriptor"):
            restore(self.blob_with_header(header))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            restore(self.make_blob() + b"xx")

    def test_unsupported_object_rejected(self):
        with pytest.raises(TypeError, match="cannot snapshot"):
            snapshot(object())

    def test_non_finite_scalars_survive(self):
        # the header JSON must carry NaN/Infinity scalars (allowed by
        # Python's json) — a fresh profile has -inf running state
        profile = StreamingMatrixProfile(8)
        profile.append(make_family("constant", 4, 60))
        restored = restore(snapshot(profile))
        tail = make_family("constant", 5, 40)
        assert profile.append(tail).tobytes() == restored.append(tail).tobytes()


DETECTORS = {
    "mpx_detector": lambda: StreamingMatrixProfileDetector(w=8),
    "zscore_detector": lambda: StreamingZScoreDetector(k=20),
    "range_detector": lambda: StreamingRangeDetector(k=12),
    "batch_adapter": lambda: as_streaming("diff", window=50),
}


@pytest.mark.parametrize("kind", ["stream_profile", *DETECTORS])
def test_every_truncation_is_a_value_error(kind):
    # a snapshot arrives over the wire: any prefix of a real blob (cut
    # in the fixed header, the JSON header or an array payload) must be
    # refused as malformed, never escape as struct.error or KeyError
    values = make_family("walk", 3, 160)
    if kind == "stream_profile":
        live = StreamingMatrixProfile(8, max_history=60)
        live.append(values)
    else:
        live = DETECTORS[kind]()
        live.fit(values[:80])
        live.update(values[80:])
    blob = snapshot(live)
    assert blob[14:].startswith(b'{"arrays":[{')  # payloads to cut into
    restore(blob)  # the whole blob is fine
    for length in range(len(blob)):
        with pytest.raises(ValueError):
            restore(blob[:length])
