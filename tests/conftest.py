import hashlib
import struct

from descentls import linalg


def write_v1_twin(twin):
    """Rewrite a matrix twin in the format before it carried ||A||^2: tag
    `DLSF64v1`, rows, cols, sha256 of the CSV, sha256 of the payload alone."""
    data = twin.read_bytes()
    header = linalg._TWIN_HEADER
    _, rows, cols, _, csv_sha, _ = header.unpack(data[:header.size])
    payload = data[header.size:]
    v1_header = struct.pack("<8sQQ32s32s", b"DLSF64v1", rows, cols, csv_sha, hashlib.sha256(payload).digest())
    twin.write_bytes(v1_header + payload)
