"""Write, or check, the normal ziggurat table that airoi's vector draws read.

    python tools/ziggurat_table.py          # rewrite src/airoi/_ziggurat.py
    python tools/ziggurat_table.py --check  # exit 1 if the committed table differs

numpy's ``Generator.standard_normal`` is a 256-layer ziggurat (Marsaglia &
Tsang 2000, JSS 5(8)).  A 64-bit output ``w`` picks layer ``w & 0xff``,
sign bit ``(w >> 8) & 1`` and the 52-bit magnitude ``rabs = (w >> 9)``; the
draw is ``±rabs * wi[layer]`` from that one output when ``rabs < ki[layer]``,
and takes a second try that reads more outputs otherwise (the tail of
layer 0, or the wedge of any other layer).  airoi reads the first kind
from the table and leaves the second to numpy's own generator.

numpy does not export its tables, so this script reads them from the
static library that numpy installs for C extensions,
``numpy/random/lib/libnpyrandom.a``: the ``.rodata`` symbols ``wi_double``
and ``ki_double`` of its member ``src_distributions_distributions.c.o``,
with the standard library alone (an ``ar`` archive holding an ELF64
little-endian object).

As a cross-check, it also recovers the table from numpy's own draws: it
draws normals one at a time from a Philox stream, reads from the
generator's state how many outputs each draw consumed, and for every layer
from 2 on requires that the library's ``wi`` turns every one-output draw's
``rabs`` into that draw, and that every such ``rabs`` lies below the
library's ``ki``.  Exits 2, with a one-line diagnostic, if the library or
its symbols are missing.
"""

from __future__ import annotations

import argparse
import struct
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "src" / "airoi" / "_ziggurat.py"
LIBRARY = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
MEMBER = "src_distributions_distributions.c.o"
SYMBOLS = {"wi_double": "d", "ki_double": "Q"}
LAYERS = 256
DRAWS = 200_000
KEY = (0x243F6A8885A308D3, 0x13198A2E03707344)  # digits of pi: any fixed key will do
FIRST_RECOVERED_LAYER = 2  # layer 0 draws its tail and layer 1 (ki = 0) its wedge


class MissingTable(Exception):
    """The installed numpy has no readable table."""


def archive_member(archive: bytes, name: str) -> bytes:
    """The bytes of member ``name`` of a System V / GNU ``ar`` archive."""
    if not archive.startswith(b"!<arch>\n"):
        raise MissingTable("not an ar archive")
    offset = 8
    long_names = b""
    while offset + 60 <= len(archive):
        header = archive[offset : offset + 60]
        size = int(header[48:58].decode("ascii").strip())
        data = archive[offset + 60 : offset + 60 + size]
        raw = header[:16].decode("ascii").rstrip()
        if raw == "//":
            long_names = data
        elif raw.startswith("/") and raw[1:].isdigit():  # GNU long name: "/offset"
            start = int(raw[1:])
            raw = long_names[start : long_names.index(b"\n", start)].decode("ascii")
        if raw.rstrip("/") == name:
            return data
        offset += 60 + size + size % 2
    raise MissingTable(f"no member {name}")


def elf_symbols(elf: bytes, wanted: dict[str, str]) -> dict[str, tuple]:
    """The contents of each named data symbol of an ELF64 little-endian object.

    ``wanted`` maps a symbol name to its ``struct`` element code.
    """
    if elf[:4] != b"\x7fELF" or elf[4] != 2 or elf[5] != 1:
        raise MissingTable("not an ELF64 little-endian object")
    shoff = struct.unpack_from("<Q", elf, 0x28)[0]
    shentsize, shnum = struct.unpack_from("<HH", elf, 0x3A)
    sections = [
        struct.unpack_from("<IIQQQQIIQQ", elf, shoff + i * shentsize) for i in range(shnum)
    ]
    found = {}
    for _, kind, _, _, offset, size, link, _, _, entsize in sections:
        if kind != 2:  # SHT_SYMTAB
            continue
        strings = sections[link][4]
        for at in range(offset, offset + size, entsize):
            name_at, _, _, shndx, value, length = struct.unpack_from("<IBBHQQ", elf, at)
            name = elf[strings + name_at : elf.index(b"\0", strings + name_at)].decode("ascii")
            if name in wanted and 0 < shndx < shnum:
                code = wanted[name]
                count = length // struct.calcsize(code)
                found[name] = struct.unpack_from(f"<{count}{code}", elf, sections[shndx][4] + value)
    missing = set(wanted) - set(found)
    if missing or any(len(values) != LAYERS for values in found.values()):
        raise MissingTable(f"symbols missing or not {LAYERS} long: {sorted(missing)}")
    return found


def library_table(path: Path) -> tuple[list[float], list[int]]:
    """(WI, KI) as numpy's C code reads them."""
    try:
        archive = path.read_bytes()
    except OSError as exc:
        raise MissingTable(f"{path}: {exc.strerror}") from None
    symbols = elf_symbols(archive_member(archive, MEMBER), SYMBOLS)
    return tuple(list(symbols[name]) for name in SYMBOLS)


def cross_check(wi: list[float], ki: list[int], draws: int = DRAWS) -> list[str]:
    """Disagreements between the table and ``draws`` numpy normals drawn one at a time."""
    key = np.array(KEY, dtype=np.uint64)
    bit_generator = np.random.Philox(key=key)
    outputs = np.random.Philox(key=key).random_raw(4 * draws)
    generator = np.random.Generator(bit_generator)
    values = np.empty(draws)
    first = np.empty(draws, dtype=np.uint64)
    consumed = np.empty(draws, dtype=np.int64)
    position = 0
    for k in range(draws):
        values[k] = generator.standard_normal()
        state = bit_generator.state
        # Outputs taken so far: four per counter bump, less those still buffered.
        now = 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]
        first[k] = outputs[position]
        consumed[k] = now - position
        position = now

    layers = (first & np.uint64(0xFF)).astype(np.intp)
    rabs = (first >> np.uint64(9)) & np.uint64((1 << 52) - 1)
    signs = (first >> np.uint64(8)) & np.uint64(1)
    one_output = consumed == 1
    problems = []
    for layer in range(FIRST_RECOVERED_LAYER, LAYERS):
        seen = one_output & (layers == layer)
        magnitudes = rabs[seen]
        drawn = np.where(signs[seen] == 1, -1.0, 1.0) * magnitudes.astype(float) * wi[layer]
        if magnitudes.size == 0:
            problems.append(f"layer {layer}: no one-output draws")
        elif not np.array_equal(drawn, values[seen]):
            problems.append(f"layer {layer}: wi does not give numpy's draws")
        elif int(magnitudes.max()) >= ki[layer]:
            problems.append(f"layer {layer}: a one-output draw lies above ki")
    return problems


def render(wi: list[float], ki: list[int]) -> str:
    def rows(values, per_line):
        return "".join(
            "    " + " ".join(f"{v!r}," for v in values[i : i + per_line]) + "\n"
            for i in range(0, len(values), per_line)
        )

    return (
        '"""numpy\'s 256-layer normal ziggurat, as airoi\'s vector draws read it.\n'
        "\n"
        "Generated by tools/ziggurat_table.py from numpy's wi_double and\n"
        "ki_double (numpy/random/lib/libnpyrandom.a); do not edit.  A 64-bit\n"
        "output w in layer w & 0xff, with 52-bit magnitude\n"
        "rabs = (w >> 9) & (2**52 - 1), draws +/-rabs * WI[layer] from that one\n"
        "output whenever rabs < KI[layer]; otherwise numpy takes a second try\n"
        "that reads more outputs.\n"
        '"""\n'
        "\n"
        f"WI = (\n{rows(wi, 3)})\n"
        "\n"
        f"KI = (\n{rows(ki, 4)})\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="compare with the committed table instead of writing"
    )
    args = parser.parse_args(argv)
    try:
        wi, ki = library_table(LIBRARY)
    except MissingTable as exc:
        print(f"no ziggurat table in numpy {np.__version__}: {exc}", file=sys.stderr)
        return 2
    problems = cross_check(wi, ki)
    if problems:
        print(f"the table in {LIBRARY} disagrees with numpy's draws: " + "; ".join(problems),
              file=sys.stderr)
        return 1
    text = render(wi, ki)
    if args.check:
        if TABLE.read_text() != text:
            print(f"{TABLE.relative_to(ROOT)} differs from the table of numpy "
                  f"{np.__version__}; rerun tools/ziggurat_table.py", file=sys.stderr)
            return 1
        print(f"{TABLE.relative_to(ROOT)} matches numpy {np.__version__}")
        return 0
    TABLE.write_text(text)
    print(f"wrote {TABLE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
