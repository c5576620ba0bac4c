"""The class file's layout reader against the JSON reader.

`load_hypothesis_class` reads a file in exactly `write_hypothesis_class`'s
layout straight from its bytes and hands every other file to the JSON reader.
These tests check that the layout reader takes every canonical file, on seeded
random classes larger than the fixtures, and the product construction's, with
the JSON reader made to raise; and that a file in any other layout, or one
whose class is refused, gives the same class, or the same exception type and
message, as the JSON reader.
"""
import io
import json
import random
from contextlib import redirect_stdout

import pytest

from genlab import HypothesisClass, hypothesis_class_to_dict, load_hypothesis_class, write_hypothesis_class
from genlab import serialize
from genlab.cli import main


def json_load(path):
    return serialize.hypothesis_class_from_dict(serialize._read_json(path))


def outcome(load, path):
    """The class `load` reads from `path`, or the type and message it raises."""
    try:
        return load(path)
    except Exception as exc:
        return type(exc), str(exc)


def random_masks_class(rng, rows, space):
    masks = set()
    while len(masks) < rows:
        masks.add(int.from_bytes(bytes(rng.getrandbits(1) for _ in range(space)), "little"))
    masks = list(masks)
    rng.shuffle(masks)
    return HypothesisClass.from_masks(space, masks)


def canonical_text(hc):
    return json.dumps(hypothesis_class_to_dict(hc), indent=2, sort_keys=True) + "\n"


def no_json(path):
    raise AssertionError(f"{path} was read as JSON")


def sizes():
    rng = random.Random(2929)
    fixed = [(1, 1), (2, 1), (1, 64), (3, 2), (1024, 64), (1100, 17), (512, 30)]
    return fixed + [(rng.randint(1, 300), rng.randint(9, 64)) for _ in range(12)]


def test_canonical_files_skip_the_json_reader(tmp_path, monkeypatch):
    rng = random.Random(29)
    cases = []
    for rows, space in sizes():
        hc = random_masks_class(rng, rows, space)
        written, dumped = tmp_path / f"w{rows}x{space}.json", tmp_path / f"d{rows}x{space}.json"
        write_hypothesis_class(written, hc)
        dumped.write_text(canonical_text(hc), encoding="utf-8")
        cases.append((hc, written, dumped, json_load(written)))
    monkeypatch.setattr(serialize, "_read_json", no_json)
    for hc, written, dumped, slow in cases:
        assert slow == hc
        assert load_hypothesis_class(written) == load_hypothesis_class(dumped) == slow


def test_constructed_class_skips_the_json_reader(tmp_path, monkeypatch):
    with redirect_stdout(io.StringIO()):
        assert main(["construct", "product", "--alpha", "1/50", "--d", "3",
                     "--out-dir", str(tmp_path)]) == 0
    slow = json_load(tmp_path / "class.json")
    assert (len(slow), slow.space) == (512, 30)
    monkeypatch.setattr(serialize, "_read_json", no_json)
    assert load_hypothesis_class(tmp_path / "class.json") == slow


def mutants(text):
    """(name, mutated text) pairs of a canonical class file's text; the class
    has at least two rows, a 0 and a 1 label and a space of 10 or more."""
    obj = json.loads(text)
    space = str(obj["space"])
    first_row = text.index("    [")
    second_row = text.index("    [", first_row + 1)
    row_end = text.index("    ]", first_row) + len("    ]")
    yield "space split", text.replace(f'"space": {space}', f'"space": {space[0]} {space[1:]}')
    yield "escaped key", text.replace('"hypotheses"', '"hypo\\u0074heses"')
    yield "key split by a space", text.replace('"hypotheses"', '"hypo" "theses"')
    yield "key split by a newline", text.replace('"hypotheses"', '"hypo\ntheses"')
    yield "crlf", text.replace("\n", "\r\n")
    yield "bom", "\ufeff" + text
    yield "tabs", text.replace("  ", "\t")
    yield "trailing space at the end", text + " "
    yield "trailing space in a row", text.replace(",\n", ", \n", 1)
    yield "minus zero", text.replace("      0", "      -0", 1)
    yield "float label", text.replace("      1", "      1.0", 1)
    yield "label 2", text.replace("      1", "      2", 1)
    yield "short row", text.replace("      0,\n", "", 1)
    yield "long row", text.replace("      0,\n", "      0,\n      0,\n", 1)
    yield "duplicate rows", text[:second_row] + text[first_row:row_end] + text[text.index("    ]", second_row) + 5:]
    yield "extra key", text.replace('  "space"', '  "extra": 1,\n  "space"')
    yield "space first", json.dumps({"space": obj["space"], "hypotheses": obj["hypotheses"]}, indent=2) + "\n"
    yield "compact", json.dumps(obj)
    yield "no final newline", text[:-1]
    yield "space 0", text.replace(f'"space": {space}', '"space": 0')
    yield "space with a leading zero", text.replace(f'"space": {space}', f'"space": 0{space}')
    yield "space one less", text.replace(f'"space": {space}', f'"space": {int(space) - 1}')
    yield "space of ten million", text.replace(f'"space": {space}', '"space": 10000000')
    yield "no rows", '{\n  "hypotheses": [],\n  "space": 1\n}\n'
    for cut in (2, 3, 5, len(text) // 2, len(text) - 4):
        yield f"truncated by {cut}", text[:-cut]


def test_other_layouts_read_as_the_json_reader_reads_them(tmp_path):
    rng = random.Random(2939)
    same_class = {"escaped key", "crlf", "tabs", "trailing space at the end",
                  "trailing space in a row", "minus zero", "extra key", "space first",
                  "compact", "no final newline"}
    for rows, space in ((2, 10), (5, 12), (40, 33)):
        ones = int.from_bytes(b"\x01" * space, "little")
        others = [m for m in random_masks_class(rng, rows, space).masks if m not in (0, ones)]
        hc = HypothesisClass.from_masks(space, [ones, 0, *others[:rows - 2]])
        names = []
        for name, text in mutants(canonical_text(hc)):
            path = tmp_path / "mutant.json"
            path.write_bytes(text.encode("utf-8"))
            fast, slow = outcome(load_hypothesis_class, path), outcome(json_load, path)
            if name.startswith("space"):
                assert serialize._class_layout(text.encode()) is None, name
            assert fast == slow, name
            assert (fast == hc) == (name in same_class), name
            names.append(name)
        assert same_class <= set(names)


@pytest.mark.parametrize("rows, space", [(1, 1), (3, 2), (4, 3)])
def test_every_one_byte_change_that_keeps_the_layout_means_what_json_reads(rows, space):
    """Where `_class_layout` takes a file, the labels it returns are the ones
    JSON reads from it: checked on every one-byte substitution, deletion and
    insertion of a small canonical file."""
    masks = random.Random(rows * 64 + space).sample(range(1 << space), rows)
    hc = HypothesisClass.from_masks(space, [int.from_bytes(bytes(m >> x & 1 for x in range(space)), "little")
                                            for m in masks])
    data = canonical_text(hc).encode()
    assert serialize._class_layout(data) == (space, b"".join(r.to_bytes(space, "little") for r in hc.masks))
    alphabet = [bytes([c]) for c in b' 01,\n[]{}":2-\t\r\x00\x01']
    taken = 0
    for at in range(len(data) + 1):
        edits = [data[:at] + c + data[at:] for c in alphabet]
        if at < len(data):
            edits += [data[:at] + data[at + 1:]] + [data[:at] + c + data[at + 1:] for c in alphabet]
        for edit in edits:
            layout = serialize._class_layout(edit)
            if layout is not None:
                taken += 1
                got_space, labels = layout
                assert json.loads(edit) == {
                    "hypotheses": [list(labels[i:i + got_space]) for i in range(0, len(labels), got_space)],
                    "space": got_space,
                }
    assert taken >= rows * space  # the digit flips
