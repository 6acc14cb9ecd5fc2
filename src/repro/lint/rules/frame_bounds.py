"""Rule ``frame-bounds`` — integer literals must fit their frame field.

TpWIRE frames are 16 bits with fixed field widths (Tables 1 and 2): a
3-bit CMD, 8-bit DATA, 4-bit CRC, and a 7-bit node address space (ids
0..126 plus broadcast 127).  A literal assigned or compared to one of
these fields that cannot fit is either dead code (a comparison that can
never be true) or a protocol violation that the frame constructors will
only catch at run time, deep inside a long simulation.

Bounds are cross-checked against the authoritative constants in
``repro.tpwire.frames``/``repro.tpwire.commands`` at lint time (see
:mod:`repro.lint.bounds`), so widening the protocol automatically widens
the rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint import astutil
from repro.lint.bounds import FieldBound, frame_field_bounds
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Layers in which the frame-field identifier names are meaningful.
DEFAULT_SCOPE = ("repro.tpwire", "repro.hw", "repro.cosim", "repro.board")


@register
class FrameBoundsRule(Rule):
    id = "frame-bounds"
    summary = (
        "integer literals assigned/compared to TpWIRE frame fields must "
        "fit the field width (16-bit frame, 7-bit addresses)"
    )
    default_scope = DEFAULT_SCOPE

    def __init__(self, config):
        super().__init__(config)
        self.bounds: dict[str, FieldBound] = frame_field_bounds()
        for name, value in dict(self.options.get("fields", {})).items():
            self.bounds[name] = FieldBound(int(value), "configured bound")

    def _bound_for(self, node: ast.AST) -> Optional[tuple[str, FieldBound]]:
        name = astutil.terminal_name(node)
        if name is None:
            return None
        bound = self.bounds.get(name)
        if bound is None:
            return None
        return name, bound

    def _violation(self, name: str, bound: FieldBound, literal: int) -> Optional[str]:
        if literal > bound.max_value or literal < 0:
            return (
                f"literal {literal:#x} does not fit frame field {name!r} "
                f"({bound.why}, max {bound.max_value:#x})"
            )
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_assign(ctx, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_assign(self, ctx, node) -> Iterator[Finding]:
        literal = astutil.int_literal(node.value) if node.value is not None else None
        if literal is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            matched = self._bound_for(target)
            if matched is None:
                continue
            message = self._violation(*matched, literal)
            if message is not None:
                yield self.finding(ctx, node, message)

    def _check_compare(self, ctx, node: ast.Compare) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for left, right in zip(operands, operands[1:]):
            for field_node, literal_node in ((left, right), (right, left)):
                matched = self._bound_for(field_node)
                literal = astutil.int_literal(literal_node)
                if matched is None or literal is None:
                    continue
                message = self._violation(*matched, literal)
                if message is not None:
                    yield self.finding(ctx, node, message)

    def _check_call(self, ctx, node: ast.Call) -> Iterator[Finding]:
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            bound = self.bounds.get(keyword.arg)
            if bound is None:
                continue
            literal = astutil.int_literal(keyword.value)
            if literal is None:
                continue
            message = self._violation(keyword.arg, bound, literal)
            if message is not None:
                yield self.finding(ctx, keyword.value, message)
