"""The sealed-file format (:mod:`repro.ioutil`) and its three readers.

The checkpoint store, the compile cache and the outcome audit read one
envelope — a ``sort_keys`` JSON header line plus a checksummed payload
— through :func:`repro.ioutil.read_sealed`. Every corruption must be
rejected by every reader: the two stores report a miss and move the
file into ``quarantine/``, the audit raises ``VerificationError``. The
format pins keep the on-disk header of both stores byte-compatible
with files already written.
"""

from __future__ import annotations

import json
import re
import shutil

import pytest

from repro.compile import CompileCache
from repro.core.planner import plan_interconnect
from repro.errors import SealedFileError, VerificationError
from repro.ioutil import (
    quarantine,
    read_header,
    read_sealed,
    sweep_staging,
    write_sealed,
)
from repro.netlist import s27_graph
from repro.resilience import CheckpointManager
from repro.verify.audit import load_outcome_checkpoint


def _rewrite_header(path, **changes):
    """Edit header fields, keeping the payload and its valid checksum."""
    line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header.update(changes)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def _truncate(path, _field):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _bitflip(path, _field):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))


def _header_not_json(path, _field):
    _line, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(b"{not json\n" + payload)


def _wrong_schema(path, _field):
    _rewrite_header(path, schema="repro-bogus/0")


def _identity_mismatch(path, field):
    _rewrite_header(path, **{field: "bogus"})


CORRUPTIONS = {
    "truncated": _truncate,
    "bitflip": _bitflip,
    "header_not_json": _header_not_json,
    "wrong_schema": _wrong_schema,
    "identity_mismatch": _identity_mismatch,
}

#: The reason each corruption must be rejected with (``{field}`` is the
#: reader's identity field). A later safety net — an unpicklable
#: payload — must not be what catches it.
REASONS = {
    "truncated": r"truncated \(no header line\)|checksum mismatch",
    "bitflip": r"checksum mismatch",
    "header_not_json": r"corrupt header \(not valid JSON\)",
    "wrong_schema": r"wrong schema 'repro-bogus/0'",
    "identity_mismatch": r"{field} mismatch \(file says 'bogus'\)",
}


# -- the three readers ---------------------------------------------------
# Each setup writes one fresh sealed file and returns (path, identity
# field, read) where read() returns True on a hit, False on a miss.


def _checkpoint(tmp_path, _outcome_dir):
    def store(resume):
        mgr = CheckpointManager(tmp_path, resume=resume)
        mgr.bind("circ", "f" * 64)
        return mgr

    path = store(False).commit("a#1", {"payload": list(range(100))})
    return path, "key", lambda: store(True).restore("a#1")[0]


def _compile_cache(tmp_path, _outcome_dir):
    artifact, _hit = CompileCache(tmp_path).get_or_compile(s27_graph())
    (path,) = tmp_path.glob("*.cc")
    return (
        path,
        "fingerprint",
        lambda: CompileCache(tmp_path).get(artifact.fingerprint) is not None,
    )


def _audit(tmp_path, outcome_dir):
    path = tmp_path / "outcome.ckpt"
    shutil.copy(next(outcome_dir.rglob("outcome.ckpt")), path)

    def read():
        load_outcome_checkpoint(path)
        return True

    return path, "kind", read


@pytest.fixture(scope="module")
def outcome_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sealed-ckpt")
    plan_interconnect(
        s27_graph(),
        max_iterations=1,
        floorplan_iterations=300,
        checkpoint=CheckpointManager(root),
    )
    return root


STORES = {"checkpoint": _checkpoint, "compile_cache": _compile_cache}


@pytest.mark.parametrize("reader", [*STORES, "audit"])
def test_intact_file_is_read(reader, tmp_path, outcome_dir):
    setup = {**STORES, "audit": _audit}[reader]
    _path, _field, read = setup(tmp_path, outcome_dir)
    assert read()


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("store", STORES)
def test_store_misses_and_quarantines(
    store, corruption, tmp_path, outcome_dir, caplog
):
    path, field, read = STORES[store](tmp_path, outcome_dir)
    CORRUPTIONS[corruption](path, field)
    with caplog.at_level("WARNING"):
        assert not read()
    assert not path.exists()
    assert (path.parent / "quarantine" / path.name).exists()
    assert re.search(REASONS[corruption].format(field=field), caplog.text)


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_audit_refuses(corruption, tmp_path, outcome_dir):
    path, field, read = _audit(tmp_path, outcome_dir)
    CORRUPTIONS[corruption](path, field)
    with pytest.raises(VerificationError, match=str(path)) as info:
        read()
    assert re.search(REASONS[corruption].format(field=field), str(info.value))
    if corruption == "identity_mismatch":
        assert "point the audit at outcome.ckpt" in str(info.value)
    assert path.exists()  # an audit rejects; it never moves the artifact


# -- format pins -----------------------------------------------------------


def _header_keys(path):
    line = path.read_bytes().split(b"\n", 1)[0]
    return [k for k, _v in json.loads(line, object_pairs_hook=lambda kv: kv)]


def test_checkpoint_header_format_is_pinned(tmp_path):
    mgr = CheckpointManager(tmp_path)
    mgr.bind("circ", "f" * 64)
    path = mgr.commit("a#1", 1, source="test")
    assert _header_keys(path) == [
        "circuit",
        "fingerprint",
        "key",
        "kind",
        "meta",
        "schema",
        "sha256",
    ]
    assert read_header(path)["schema"] == "repro-ckpt/1"


def test_compile_cache_header_format_is_pinned(tmp_path):
    CompileCache(tmp_path).get_or_compile(s27_graph())
    (path,) = tmp_path.glob("*.cc")
    assert _header_keys(path) == [
        "circuit",
        "codec",
        "fingerprint",
        "kind",
        "meta",
        "schema",
        "sha256",
    ]
    header = read_header(path)
    assert header["schema"] == "repro-compile/4"
    assert list(header["meta"]) == ["n", "n_candidates", "periods", "t_init", "t_min"]


# -- the helpers themselves ----------------------------------------------


class TestHelpers:
    def test_roundtrip_adds_checksum(self, tmp_path):
        path = tmp_path / "f.bin"
        assert write_sealed(path, {"schema": "s/1", "id": 7}, b"\x00payload\n")
        header, payload = read_sealed(path, "s/1", id=7)
        assert payload == b"\x00payload\n"
        assert sorted(header) == ["id", "schema", "sha256"]

    def test_skip_identical_leaves_the_file(self, tmp_path):
        path = tmp_path / "f.bin"
        write_sealed(path, {"schema": "s/1"}, b"abc")
        before = path.stat().st_ino  # a rewrite replaces the inode
        assert not write_sealed(path, {"schema": "s/1"}, b"abc", skip_identical=True)
        assert path.stat().st_ino == before
        assert write_sealed(path, {"schema": "s/1"}, b"abd", skip_identical=True)
        assert read_sealed(path, "s/1")[1] == b"abd"

    @pytest.mark.parametrize(
        "data, expect, reason, field",
        [
            (b'{"schema": "s/1"}', {}, "truncated (no header line)", None),
            (b"[1]\nx", {}, "malformed header", None),
            (b"\xff\nx", {}, "corrupt header (not valid JSON)", None),
            (b'{"schema": "t/1"}\nx', {}, "wrong schema 't/1'", None),
            (b'{"schema": "s/1", "id": 1}\nx', {"id": 2}, "id mismatch", "id"),
            (b'{"schema": "s/1", "sha256": "0"}\nx', {}, "checksum mismatch", None),
        ],
    )
    def test_reasons(self, tmp_path, data, expect, reason, field):
        path = tmp_path / "f.bin"
        path.write_bytes(data)
        with pytest.raises(SealedFileError) as info:
            read_sealed(path, "s/1", **expect)
        assert info.value.reason.startswith(reason)
        assert info.value.field == field
        assert str(path) in str(info.value)

    def test_unreadable(self, tmp_path):
        with pytest.raises(SealedFileError, match="unreadable"):
            read_sealed(tmp_path / "missing", "s/1")
        with pytest.raises(SealedFileError, match="unreadable"):
            read_header(tmp_path / "missing")

    def test_quarantine_moves_else_deletes(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"x")
        quarantine(bad, tmp_path / "quarantine")
        assert (tmp_path / "quarantine" / "bad.bin").exists()
        assert not bad.exists()
        # The quarantine dir cannot be created under a regular file:
        # the bad file is deleted instead.
        bad.write_bytes(b"x")
        (tmp_path / "blocker").write_bytes(b"")
        quarantine(bad, tmp_path / "blocker" / "q")
        assert not bad.exists()

    def test_sweep_staging(self, tmp_path):
        (tmp_path / ".a.ckpt.tmp.1.0").write_bytes(b"")
        (tmp_path / "a.ckpt").write_bytes(b"")
        sweep_staging(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]
        sweep_staging(tmp_path / "missing")  # no directory, nothing to do
