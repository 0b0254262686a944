"""The directory tree against a flat model.

``SharedFileSystem`` holds directories; what it promises is the flat
``{path: bytes}`` it used to be. Random verbs are applied to both and
after every step each listing, size and counter must agree — for
prefixes that end at a directory boundary, in the middle of a name, past
the last file, and for ``""``, with extents and real bytes mixed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SyscallError
from repro.simos.filesystem import (
    NamedExtent,
    SharedFileSystem,
    SyntheticExtent,
)

#: Directories that are prefixes of one another, of a file's whole path
#: ("/ckpt/pod" is a file of "/ckpt/" and the stem of "/ckpt/pod/") and
#: of nothing; "" holds the paths with no slash at all.
DIRECTORIES = ("", "/", "/ckpt/", "/ckpt/pod/", "/ckpt/po/",
               "/ckpt/.shards/n0/", "/ckpt/.shards/n1/")
NAMES = ("a", "ab", "b", "pod", "po", "v01.manifest", "t01", ".store")
PREFIXES = DIRECTORIES + (
    "/ckpt", "/ckpt/po", "/ckpt/pod", "/ckpt/pod/a", "/ckpt/pod/ab",
    "/ckpt/.shards/", "/ckpt/.shards/n", "/ckpt/.shards/n1/t", "a", "t",
    "/ckpt/pod/v01.manifest", "/ckpt/pod/v01.manifestx", "/zzz", "~")

directories = st.sampled_from(DIRECTORIES)
names = st.sampled_from(NAMES)
paths = st.builds(str.__add__, directories, names)
real_bytes = st.binary(max_size=40)
extents = st.builds(
    lambda seed, length: SyntheticExtent((seed, length)),
    st.binary(min_size=1, max_size=5), st.integers(0, 40))
contents = st.one_of(real_bytes, extents)
small = st.integers(0, 50)
runs = st.lists(st.tuples(names, contents), max_size=6)

steps = st.one_of(
    st.tuples(st.just("create"), paths, st.booleans()),
    st.tuples(st.just("write_file"), paths, contents),
    st.tuples(st.just("write_at"), paths, small, real_bytes),
    st.tuples(st.just("unlink"), paths),
    st.tuples(st.just("write_run"), directories, runs),
    st.tuples(st.just("read_run"), directories, st.lists(names, max_size=6)),
    st.tuples(st.just("read_at"), paths, small, small),
    st.tuples(st.just("read_file"), paths),
)


class FlatModel:
    """What the filesystem was before it had directories."""

    def __init__(self):
        self.files = {}
        #: path -> the extent object last written whole there.
        self.extents = {}
        self.bytes_written = 0
        self.bytes_read = 0

    def _existing(self, path):
        if path not in self.files:
            raise SyscallError("ENOENT", path)
        return self.files[path]

    def create(self, path, truncate):
        if truncate or path not in self.files:
            self.files[path] = b""
            self.extents.pop(path, None)

    def write_file(self, path, data):
        self.files[path] = bytes(data)
        self.extents.pop(path, None)
        if type(data) is SyntheticExtent:
            self.extents[path] = data
        self.bytes_written += len(data)
        return len(data)

    def write_at(self, path, offset, data):
        old = self._existing(path)
        self.files[path] = old.ljust(offset, b"\x00")[:offset] + data \
            + old[offset + len(data):]
        self.extents.pop(path, None)
        self.bytes_written += len(data)
        return len(data)

    def unlink(self, path):
        self._existing(path)
        del self.files[path]
        self.extents.pop(path, None)

    def write_run(self, directory, run):
        return sum(self.write_file(directory + name, data)
                   for name, data in run)

    def read_run(self, directory, run):
        return [self.read_file(directory + name)
                if directory + name in self.files else None for name in run]

    def read_at(self, path, offset, nbytes):
        data = self._existing(path)[offset:offset + nbytes]
        self.bytes_read += len(data)
        return data

    def read_file(self, path):
        data = self._existing(path)
        self.bytes_read += len(data)
        return data


def apply(fs, model, step):
    """One verb on both; returns the two outcomes (value or errno)."""
    verb, *args = step
    if verb == "write_run":
        directory, run = args
        calls = (lambda: fs.write_run(directory,
                                      [name for name, _data in run],
                                      [data for _name, data in run]),
                 lambda: model.write_run(directory, run))
    else:
        calls = (lambda: getattr(fs, verb)(*args),
                 lambda: getattr(model, verb)(*args))
    outcomes = []
    for call in calls:
        try:
            outcomes.append(call())
        except SyscallError as error:
            outcomes.append(("errno", error.errno))
    return outcomes


def as_bytes(value):
    if isinstance(value, list):
        return [as_bytes(item) for item in value]
    return value if value is None or isinstance(value, (int, tuple)) \
        else bytes(value)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(script=st.lists(steps, max_size=40))
def test_the_tree_is_the_flat_filesystem(script):
    fs, model = SharedFileSystem(), FlatModel()
    for step in script:
        got, expected = apply(fs, model, step)
        assert as_bytes(got) == expected, step
        # An extent is stored as the extent, through any verb, until
        # something writes into it.
        for path, stored in fs.scan():
            assert stored is model.extents[path] if path in model.extents \
                else type(stored) in (bytes, bytearray), (step, path)
        assert (fs.bytes_written, fs.bytes_read) == \
            (model.bytes_written, model.bytes_read), step
        assert list(fs.paths()) == sorted(model.files), step
        for directory in DIRECTORIES:
            for name in NAMES:
                path = directory + name
                assert fs.exists(path) is (path in model.files), path
                if path in model.files:
                    assert fs.size(path) == len(model.files[path]), path
        for prefix in PREFIXES:
            under = sorted(path for path in model.files
                           if path.startswith(prefix))
            assert fs.listdir(prefix) == under, (step, prefix)
            scanned = fs.scan(prefix)
            assert [path for path, _stored in scanned] == under
            assert [bytes(stored) for _path, stored in scanned] == \
                [model.files[path] for path in under], (step, prefix)
        # Looking is not reading.
        assert fs.bytes_read == model.bytes_read


def test_an_absent_file_is_enoent_for_every_path_verb():
    fs = SharedFileSystem()
    fs.write_file("/d/x", b"here")
    for path in ("/d/y", "/e/x", "x", "/d/x/deeper", "/d/"):
        for call in (lambda: fs.unlink(path), lambda: fs.size(path),
                     lambda: fs.read_file(path),
                     lambda: fs.read_at(path, 0, 1),
                     lambda: fs.write_at(path, 0, b"z")):
            with pytest.raises(SyscallError) as error:
                call()
            assert error.value.errno == "ENOENT"
        assert not fs.exists(path)
    # Asking made no directory and moved no counter.
    assert list(fs.paths()) == ["/d/x"]
    assert (fs.bytes_written, fs.bytes_read) == (4, 0)


def test_a_named_extent_reads_as_the_extent_its_file_name_seeds():
    """One marker stored under several hex names: each file is counted,
    read and patched as the extent its own name seeds, as a twin holding
    those bytes is; only the stored views show the marker."""
    marker = NamedExtent(40)
    names = ["0a1b", "ff", "c0ffee"]
    extents = [SyntheticExtent((bytes.fromhex(name), 40)) for name in names]
    fs, twin = SharedFileSystem(), SharedFileSystem()

    def same():
        assert (fs.bytes_written, fs.bytes_read) == \
            (twin.bytes_written, twin.bytes_read)

    assert fs.write_run("/d/", names + ["blob"], [marker] * 3 + [b"blob"]) \
        == twin.write_run("/d/", names + ["blob"],
                          [bytes(extent) for extent in extents] + [b"blob"])
    assert all(fs.directory("/d/")[name] is marker for name in names)
    assert [stored for _path, stored in fs.scan("/d/f")] == [marker]
    same()
    # A run of markers alone, and one mixed with a blob and a hole.
    read = fs.read_run("/d/", names)
    assert [type(data) for data in read] == [SyntheticExtent] * 3
    assert [tuple(data) for data in read] == [tuple(e) for e in extents]
    mixed = fs.read_run("/d/", ["gone", "blob", "ff"])
    assert mixed[:2] == [None, b"blob"]
    assert tuple(mixed[2]) == tuple(extents[1])
    assert fs.stored_run("/d/", ["ff", "gone"]) == [marker, None]
    twin.read_run("/d/", names)
    twin.read_run("/d/", ["gone", "blob", "ff"])
    twin.stored_run("/d/", ["ff", "gone"])
    same()
    for name, extent in zip(names, extents):
        path = "/d/" + name
        assert fs.size(path) == twin.size(path) == 40
        assert fs.read_file(path) == extent == twin.read_file(path)
        assert fs.read_at(path, 3, 10) == twin.read_at(path, 3, 10) \
            == bytes(extent)[3:13]
        same()
    # Writing into one turns that file alone into its bytes.
    for store in (fs, twin):
        store.write_at("/d/ff", 5, b"xy")
    assert fs.read_file("/d/ff") == twin.read_file("/d/ff") \
        == bytes(extents[1])[:5] + b"xy" + bytes(extents[1])[7:]
    assert fs.directory("/d/")["c0ffee"] is marker
    same()
