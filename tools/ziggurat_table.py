"""Write, or check, the normal ziggurat table that airoi's vector draws read.

    python tools/ziggurat_table.py          # rewrite src/airoi/_ziggurat.py
    python tools/ziggurat_table.py --check  # exit 1 if the committed table differs

numpy's ``Generator.standard_normal`` is a 256-layer ziggurat (Marsaglia &
Tsang 2000, JSS 5(8)).  A 64-bit output ``w`` picks layer ``w & 0xff``,
sign bit ``(w >> 8) & 1`` and the 52-bit magnitude ``rabs = (w >> 9)``; when
``rabs`` lies below the layer's threshold the draw is ``±rabs * wi[layer]``
from that one output.  numpy does not export its tables, and the textbook
recurrence does not reproduce them, so this script recovers them from
numpy's own draws: it draws normals one at a time from a Philox stream,
reads from the generator's state how many outputs each draw consumed, and
for every layer keeps

- ``WI``: the one double ``w`` for which ``rabs * w`` equals every
  one-output draw seen in that layer, and
- ``THR``: the largest ``rabs`` seen drawn from one output.  Every
  ``rabs <= THR`` is then below numpy's threshold, so a draw read from the
  table is exact by construction.

Layers 0 (the tail) and 1 always take numpy's own path and are stored as
``WI = 0.0`` and ``THR = -1``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "src" / "airoi" / "_ziggurat.py"
DRAWS = 200_000
KEY = (0x243F6A8885A308D3, 0x13198A2E03707344)  # digits of pi: any fixed key will do
FIRST_LAYER = 2


def recover(draws: int = DRAWS) -> tuple[list[float], list[int]]:
    """(WI, THR) from ``draws`` numpy normals; raises if a layer is not pinned down."""
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
    wi = [0.0] * 256
    thr = [-1] * 256
    for layer in range(FIRST_LAYER, 256):
        seen = one_output & (layers == layer)
        magnitudes = rabs[seen].astype(float)  # exact: 52 bits
        drawn = values[seen]
        if magnitudes.size == 0 or not np.all((signs[seen] == 1) == (drawn < 0)):
            raise RuntimeError(f"layer {layer}: no usable one-output draws")
        largest = int(np.argmax(magnitudes))
        guess = abs(drawn[largest]) / magnitudes[largest]
        candidates = [guess]
        for direction in (-math.inf, math.inf):
            step = guess
            for _ in range(4):
                step = math.nextafter(step, direction)
                candidates.append(step)
        exact = [w for w in candidates if np.all(magnitudes * w == np.abs(drawn))]
        if len(set(exact)) != 1:
            raise RuntimeError(f"layer {layer}: {len(set(exact))} widths fit its draws")
        wi[layer] = float(exact[0])
        thr[layer] = int(rabs[seen].max())
    return wi, thr


def render(wi: list[float], thr: list[int]) -> str:
    def rows(values, per_line):
        return "".join(
            "    " + " ".join(f"{v!r}," for v in values[i : i + per_line]) + "\n"
            for i in range(0, len(values), per_line)
        )

    return (
        '"""numpy\'s 256-layer normal ziggurat, as airoi\'s vector draws read it.\n'
        "\n"
        "Generated by tools/ziggurat_table.py from numpy's own draws; do not edit.\n"
        "A 64-bit output w in layer w & 0xff, with 52-bit magnitude\n"
        "rabs = (w >> 9) & (2**52 - 1), draws +/-rabs * WI[layer] from that one\n"
        "output whenever rabs <= THR[layer].  Layers with THR -1 always take\n"
        "numpy's own path.\n"
        '"""\n'
        "\n"
        f"WI = (\n{rows(wi, 3)})\n"
        "\n"
        f"THR = (\n{rows(thr, 4)})\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true", help="compare with the committed table instead of writing"
    )
    args = parser.parse_args(argv)
    text = render(*recover())
    if args.check:
        if TABLE.read_text() != text:
            print(f"{TABLE.relative_to(ROOT)} differs from the table numpy "
                  f"{np.__version__} draws; rerun tools/ziggurat_table.py", file=sys.stderr)
            return 1
        print(f"{TABLE.relative_to(ROOT)} matches numpy {np.__version__}")
        return 0
    TABLE.write_text(text)
    print(f"wrote {TABLE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
