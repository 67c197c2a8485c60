"""Seeded fuzz of every file reader.

Each sample file is mutated by seeded truncations, byte flips, inserts
and deletes.  A reader must either load the mutated file or refuse it
with a FileFormatError whose message starts with the file's path.  Each
sample's seed is the CRC-32 of its name, so adding or removing a sample
reseeds no other.
"""

import zlib
from importlib import resources
from pathlib import Path

import pytest

from support import load_server
from triauth.core import SessionRng
from triauth.files import (
    FileFormatError,
    load_card,
    load_config,
    load_dictionary,
    load_leak,
    load_template,
    load_transcript,
    save_template,
    write_json_report,
)
from triauth.fuzzy import BiometricTemplate
from triauth.scenario import load_scenario

RECORDINGS = Path(__file__).parent / "recordings"
PACKAGE = Path(str(resources.files("triauth")))
MUTATIONS = 150


def _saved(save, value):
    """A sample maker that writes `value` with `save` into the test's
    directory and returns the file's path."""
    def make(tmp_path):
        path = tmp_path / "sample"
        save(value, path)
        return path
    return make


def _written(text):
    """A sample maker for a file of `text`."""
    return _saved(lambda text, path: path.write_text(text, "utf-8"), text)


def _recorded(path):
    """A sample maker for a file that is already on disk."""
    return lambda tmp_path: path


SAMPLES = {
    **{"%s-%s" % (scheme, name): (_recorded(RECORDINGS / "files" / scheme / name), load)
       for scheme in ("baseline", "improved")
       for name, load in (("alice.card", load_card), ("bob.card", load_card),
                          ("server.state", load_server))},
    "transcript": (_recorded(RECORDINGS / "baseline-attack" / "transcripts" / "s001.bin"),
                   load_transcript),
    "config": (_written("# protocol configuration\np = ffffffffffffffffffffffffffffc3a7\ng = 4\n"
                        "hash = sha256\ndelta_t_ms = 5000\ntemplate_bits = 256\nseed = 77\n"),
               load_config),
    "template": (_saved(save_template, BiometricTemplate.random(SessionRng(3), 256)),
                 load_template),
    "dictionary": (_written("alpha\nglacier-42\nomega\n"), load_dictionary),
    "leak": (_saved(write_json_report, {"session": "cli-7", "seed": 7, "r_u": 123456789,
                                        "r_s": 987654321}), load_leak),
    **{name: (_recorded(PACKAGE / "scenarios" / (name + ".scenario")), load_scenario)
       for name in ("baseline-attack", "improved-attack")},
}


def _mutate(data: bytes, rng: SessionRng) -> bytes:
    """One to three seeded edits: truncate, flip a byte, insert a copy
    of one of the file's bytes, or delete a byte."""
    data = bytearray(data)
    for _ in range(1 + rng.below(3)):
        kind, at = rng.below(4), rng.below(len(data) + 1)
        if kind == 0:
            del data[at:]
        elif not data:
            continue
        elif kind == 1:
            data[min(at, len(data) - 1)] ^= 1 + rng.below(255)
        elif kind == 2:
            data.insert(at, data[rng.below(len(data))])
        else:
            del data[min(at, len(data) - 1)]
    return bytes(data)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_mutated_file_loads_or_is_refused_naming_the_file(tmp_path, name):
    make, load = SAMPLES[name]
    sample = make(tmp_path)
    load(sample)  # the unmutated sample loads
    original = sample.read_bytes()
    rng = SessionRng(zlib.crc32(name.encode()))
    path = tmp_path / "mutated"
    for i in range(MUTATIONS):
        path.write_bytes(_mutate(original, rng))
        try:
            load(path)
        except FileFormatError as exc:
            assert str(exc).startswith(str(path)), "mutation %d: %s" % (i, exc)
