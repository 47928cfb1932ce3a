"""Corrupts the first network blob inside a learner checkpoint.

The checkpoint starts with magic, u32 version, u32 header length and the
JSON header; then each network is a u64 length and a QMLP blob whose own
header is magic, u32 version, f64 dropout rate and u32 layer count."""

import struct


def corrupt_first_network(data: bytes, how: str) -> bytes:
    """With how == "header_cut" the blob keeps its first 10 bytes, a cut
    inside its version; with "huge_layer_count" its layer count is 10**6."""
    (header_len,) = struct.unpack_from("<I", data, 8)
    at = 12 + header_len
    (blob_len,) = struct.unpack_from("<Q", data, at)
    blob = bytearray(data[at + 8:at + 8 + blob_len])
    if how == "header_cut":
        blob = blob[:10]
    else:
        struct.pack_into("<I", blob, 16, 10**6)
    return data[:at] + struct.pack("<Q", len(blob)) + bytes(blob) + data[at + 8 + blob_len:]
