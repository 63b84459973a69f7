"""Pin the oracle's report, byte for byte, in both output formats.

Each case hashes the stdout of ``pmspec oracle --family F --n N --format FMT``
and compares the first 16 hex digits of its sha256.  The certificate's
method, every check name and its order, the counts and the verdict are all in
those bytes, so a change to how the graph is built or streamed must leave
them unchanged.
"""

import hashlib

import pytest

from pmspec import cli

# (family, n): (json digest, text digest)
GOLDEN = {
    ("pm", 1): ("7bb549bcc2c73d83", "2c5dfd58483cf350"),
    ("pm", 2): ("0cd6be442ec9d09e", "6ac7a86c9f0ae700"),
    ("pm", 3): ("c742f86cd3e6bc36", "3551ea0d32baede6"),
    ("pm", 4): ("9cfed7d87f56e473", "7c491f493bcde0ab"),
    ("pm", 5): ("b9efa3b0993000a3", "933acfaadd178202"),
    ("pm", 6): ("4f88c77ee8fb0397", "0caee7a0d6695039"),
    ("sym", 1): ("44bdc370648ba17c", "59b2b0fc92378dc1"),
    ("sym", 2): ("d0509985470e3fed", "5a64cb7f4614b822"),
    ("sym", 3): ("8d9589815d9f777d", "9da8a67ae2f94cd1"),
    ("sym", 4): ("a854379a5fe68b85", "f4a66de729843e2d"),
    ("sym", 5): ("5e7a1be79f495223", "731713ff3714c756"),
    ("sym", 6): ("0f8a60b1244f2a93", "3cab1a6f67f56094"),
    ("sym", 7): ("923c2f9952fe2032", "6e848e8e61479352"),
}


@pytest.mark.parametrize("family, n", list(GOLDEN))
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_oracle_bytes(capsys, family, n, fmt):
    code = cli.main(["oracle", "--family", family, "--n", str(n), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert digest == GOLDEN[family, n][fmt == "text"]
