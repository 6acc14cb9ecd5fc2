"""TpWIRE frame-field bounds, cross-checked against the protocol source.

Rule ``frame-bounds`` needs the numeric limits of each frame field
(Tables 1 and 2 of the paper).  Hard-coding them in the linter would let
the linter and the protocol drift apart, so the authoritative constants
are re-read from the AST of :mod:`repro.tpwire.constants` (the single
protocol-constants module) at lint time:

* ``FRAME_BITS`` -> bound of a whole frame ``word``;
* ``BROADCAST_NODE_ID`` -> bound of ``node_id``/``slave_id`` (the 7-bit
  address space, broadcast id included).

Sub-word field widths (CMD 3 bits, TYPE 2, DATA 8, CRC 4) are fixed by
the frame layout itself and kept here.  Pre-consolidation locations
(``frames.py``/``commands.py``) are read as fallbacks, then the paper's
values, so linting a snippet outside the repo still works.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: Fallback constants (the paper's TpWIRE definition).
FALLBACK_FRAME_BITS = 16
FALLBACK_BROADCAST_NODE_ID = 127


@dataclass(frozen=True)
class FieldBound:
    """Upper bound (inclusive) of one frame field, with its rationale."""

    max_value: int
    why: str


def _module_int_constants(path: Path) -> dict[str, int]:
    """Module-level ``NAME = <int literal>`` bindings (first wins), read
    with one parse and without importing."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except (OSError, SyntaxError):
        return {}
    found: dict[str, int] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found.setdefault(target.id, node.value.value)
    return found


def tpwire_source_dir() -> Path:
    """Location of the tpwire package sources next to this lint package."""
    return Path(__file__).resolve().parent.parent / "tpwire"


def frame_field_bounds(source_dir: Optional[Path] = None) -> dict[str, FieldBound]:
    """Bounds keyed by the identifier names the rule matches on."""
    source_dir = source_dir if source_dir is not None else tpwire_source_dir()
    constants = _module_int_constants(source_dir / "constants.py")
    frame_bits = (
        constants.get("FRAME_BITS")
        or _module_int_constants(source_dir / "frames.py").get("FRAME_BITS")
        or FALLBACK_FRAME_BITS
    )
    broadcast = (
        constants.get("BROADCAST_NODE_ID")
        or _module_int_constants(source_dir / "commands.py").get("BROADCAST_NODE_ID")
        or FALLBACK_BROADCAST_NODE_ID
    )
    word_max = (1 << frame_bits) - 1
    return {
        "node_id": FieldBound(broadcast, "7-bit node address space"),
        "slave_id": FieldBound(broadcast, "7-bit node address space"),
        "cmd": FieldBound(0x7, "3-bit CMD field"),
        "rtype": FieldBound(0x3, "2-bit TYPE field"),
        "crc": FieldBound(0xF, "4-bit CRC nibble"),
        "data": FieldBound(0xFF, "8-bit DATA field"),
        "word": FieldBound(word_max, f"{frame_bits}-bit frame word"),
    }
