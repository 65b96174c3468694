"""Static race/bounds verifier for generated C kernels.

``repro lint`` reasons about the *Python* that builds tensors; since the
JIT landed, the hottest loops are *generated C* the AST rules never see.
This module closes that gap: every registered kernel template ships an
effect summary (:mod:`repro.perf.jit.effects`) describing its loops,
local index defs, and loads/stores, and kernelcheck proves three
properties per kernel instance:

1. **Disjoint writes** (``kernel-ownership``): every store lands inside
   the region the kernel's ownership declaration grants one chunk —
   unit-indexed slots, strictly-increasing target rows, or window-owned
   row blocks.  Chunk-confined stores are disjoint under *any*
   chunk-to-thread assignment, which covers both the static round-robin
   schedule and the pull queue at once.
2. **In-bounds, in-width indexing** (``kernel-bounds``,
   ``kernel-width``): each index expression provably stays within the
   header-declared extent (symbolically, via a polynomial bound engine
   that knows the formats' value ranges and the HiCOO pair invariant
   ``binds[b]*block_size + einds[e] <= dim - 1``), and no intermediate
   can overflow its C integer width given documented size caps.
3. **Serial/parallel store equivalence** (``kernel-par``): the ``_par``
   entry must be the serial function run over ``[chunk_bounds[c],
   chunk_bounds[c+1])`` with identical pointers, which is the
   bit-exactness precondition the conformance harness then tests
   dynamically.

The summary is *not* trusted blindly (``kernel-summary``): loop headers
and ``const`` index defs are re-parsed out of the C text and must match
the summary; on drift the **source wins** and the analysis proceeds on
the parsed values, so a generator bug that changes only the C (the
planted-bug drills monkeypatch the shared snippet helpers) still
produces a precise finding.

Violations are ordinary :class:`repro.analysis.findings.Finding`
objects — same fingerprints, baseline ratchet, and text/JSON output as
``repro lint`` — surfaced via ``repro kernelcheck``.

Scope: the verifier checks the accesses the summary lists against the
source text; it is a co-generated contract, not a C frontend.  Stack
locals (``acc``, ``row*``) are out of scope, and an access absent from
both summary and source is invisible — the sanitize build profile
(``REPRO_JIT_BUILD=sanitize``) is the dynamic backstop for that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .findings import Finding, SEVERITY_ERROR, sort_findings

if False:  # imported lazily at call time to keep the analysis package
    # importable from repro.perf.parallel without a cycle through the
    # JIT kernel layer (typing only)
    from ..perf.jit.effects import Access, EffectSummary, KernelArtifact

CAP_I32 = 2**31 - 1  # matches repro.perf.jit.effects.CAP_I32

#: All kernelcheck findings anchor to the generator module: the defect
#: is in what codegen emits, never in a user source file.
CHECK_PATH = "src/repro/perf/jit/codegen.py"

RULE_SUMMARY = "kernel-summary"
RULE_BOUNDS = "kernel-bounds"
RULE_WIDTH = "kernel-width"
RULE_OWNERSHIP = "kernel-ownership"
RULE_PAR = "kernel-par"

RULES: Dict[str, str] = {
    RULE_SUMMARY: (
        "effect summary and generated C disagree "
        "(loops, defs, or listed accesses)"
    ),
    RULE_BOUNDS: "index expression not provably within declared extents",
    RULE_WIDTH: "integer expression can exceed its C width",
    RULE_OWNERSHIP: "store not confined to the declared ownership region",
    RULE_PAR: "serial and parallel entry points not store-equivalent",
}

_CAP_I64 = 2**63 - 1
_WIDTHS = {"i64": "i64", "i32": "i32", "int": "i32", "u8": "i32"}


# --------------------------------------------------------------------------
# Expression mini-parser.  Grammar (no division, no unary minus — the
# generators never emit them):
#   expr    := mul (('+' | '-') mul)*
#   mul     := unary ('*' unary)*
#   unary   := '(' WIDTH ')' unary | primary
#   primary := INT | IDENT ('[' expr ']')? | '(' expr ')'
# AST nodes: ("num", v) ("sym", name) ("idx", array, index_ast)
#            ("cast", width, ast) ("add"|"sub"|"mul", lhs, rhs)
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|([()\[\]+\-*]))")


class ExprError(ValueError):
    """Raised when an expression snippet cannot be parsed."""


def _tokenize(text: str) -> List[str]:
    tokens, pos = [], 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            if text[pos:].strip():
                raise ExprError(f"bad token at {text[pos:]!r} in {text!r}")
            break
        tokens.append(match.group(1) or match.group(2) or match.group(3))
        pos = match.end()
    return tokens


def parse_expr(text: str) -> tuple:
    tokens = _tokenize(text)
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ExprError(f"unexpected end of {text!r}")
        token = tokens[pos]
        if expected is not None and token != expected:
            raise ExprError(f"expected {expected!r}, got {token!r} in {text!r}")
        pos += 1
        return token

    def expr() -> tuple:
        node = mul()
        while peek() in ("+", "-"):
            op = take()
            node = ("add" if op == "+" else "sub", node, mul())
        return node

    def mul() -> tuple:
        node = unary()
        while peek() == "*":
            take()
            node = ("mul", node, unary())
        return node

    def unary() -> tuple:
        if (
            peek() == "("
            and pos + 2 < len(tokens)
            and tokens[pos + 1] in _WIDTHS
            and tokens[pos + 2] == ")"
        ):
            take("(")
            width = take()
            take(")")
            return ("cast", _WIDTHS[width], unary())
        return primary()

    def primary() -> tuple:
        token = take()
        if token == "(":
            node = expr()
            take(")")
            return node
        if token.isdigit():
            return ("num", int(token))
        if not token[0].isalpha() and token[0] != "_":
            raise ExprError(f"unexpected {token!r} in {text!r}")
        if peek() == "[":
            take("[")
            index = expr()
            take("]")
            return ("idx", token, index)
        return ("sym", token)

    node = expr()
    if pos != len(tokens):
        raise ExprError(f"trailing tokens {tokens[pos:]} in {text!r}")
    return node


def serialize(node: tuple) -> str:
    """Canonical text for an AST — used as the identity of array atoms."""
    kind = node[0]
    if kind == "num":
        return str(node[1])
    if kind == "sym":
        return node[1]
    if kind == "idx":
        return f"{node[1]}[{serialize(node[2])}]"
    if kind == "cast":
        return serialize(node[2])
    op = {"add": "+", "sub": "-", "mul": "*"}[kind]
    return f"({serialize(node[1])} {op} {serialize(node[2])})"


def _collect_atoms(node: tuple, into: List[Tuple[str, tuple]]) -> None:
    kind = node[0]
    if kind == "idx":
        into.append((node[1], node[2]))
        _collect_atoms(node[2], into)
    elif kind == "cast":
        _collect_atoms(node[2], into)
    elif kind in ("add", "sub", "mul"):
        _collect_atoms(node[1], into)
        _collect_atoms(node[2], into)


# --------------------------------------------------------------------------
# Polynomials: Dict[Tuple[str, ...], int] mapping a sorted tuple of
# factor names (symbols, loop vars, or atom strings like "targets[s]")
# to an integer coefficient.  The empty tuple is the constant term.
# --------------------------------------------------------------------------

Poly = Dict[Tuple[str, ...], int]


def _const(value: int) -> Poly:
    return {(): value} if value else {}


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, coeff in b.items():
        merged = out.get(mono, 0) + coeff
        if merged:
            out[mono] = merged
        else:
            out.pop(mono, None)
    return out


def _pscale(a: Poly, c: int) -> Poly:
    return {mono: coeff * c for mono, coeff in a.items()} if c else {}


def _psub(a: Poly, b: Poly) -> Poly:
    return _padd(a, _pscale(b, -1))


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            mono = tuple(sorted(mono_a + mono_b))
            merged = out.get(mono, 0) + ca * cb
            if merged:
                out[mono] = merged
            else:
                out.pop(mono, None)
    return out


def _expand(node: tuple, env: Dict[str, Poly]) -> Poly:
    """Lower an AST to a polynomial, substituting local defs."""
    kind = node[0]
    if kind == "num":
        return _const(node[1])
    if kind == "sym":
        name = node[1]
        if name in env:
            return dict(env[name])
        return {(name,): 1}
    if kind == "idx":
        return {(serialize(node),): 1}
    if kind == "cast":
        return _expand(node[2], env)
    lhs = _expand(node[1], env)
    rhs = _expand(node[2], env)
    if kind == "add":
        return _padd(lhs, rhs)
    if kind == "sub":
        return _psub(lhs, rhs)
    return _pmul(lhs, rhs)


def _format_poly(poly: Poly) -> str:
    if not poly:
        return "0"
    parts = []
    for mono, coeff in sorted(poly.items()):
        term = "*".join(mono) if mono else "1"
        parts.append(f"{coeff}*{term}" if mono else str(coeff))
    return " + ".join(parts)


@dataclass
class _Analysis:
    """Per-kernel bound/width context built from summary + parsed source."""

    summary: EffectSummary
    findings: List[Finding]
    defs: Dict[str, Poly] = field(default_factory=dict)
    def_widths: Dict[str, str] = field(default_factory=dict)
    var_max: Dict[str, Poly] = field(default_factory=dict)
    var_min: Dict[str, Poly] = field(default_factory=dict)
    var_width: Dict[str, str] = field(default_factory=dict)
    effective_loops: List[Loop] = field(default_factory=list)
    effective_defs: List[Tuple[str, str, str]] = field(default_factory=list)

    def fail(self, rule: str, message: str, snippet: str = "") -> None:
        self.findings.append(
            Finding(
                rule=rule,
                severity=SEVERITY_ERROR,
                path=CHECK_PATH,
                line=0,
                col=0,
                message=message,
                scope=self.summary.name,
                snippet=snippet,
            )
        )

    # -- symbolic bounds ---------------------------------------------------

    def _rewrite_pairs(self, poly: Poly) -> Poly:
        """Fold declared format-invariant pairs into their joint bound.

        HiCOO's ``out``/factors are *not* padded to a block multiple, so
        ``binds[b]*block_size`` and ``einds[e]`` must be bounded jointly
        (``<= dim - 1``), never factor-by-factor.
        """
        poly = dict(poly)
        for base_arr, scale_sym, fine_arr, bound_expr in self.summary.pairs:
            base_key = None
            fine_key = None
            for mono in poly:
                if (
                    len(mono) == 2
                    and scale_sym in mono
                    and any(f.startswith(f"{base_arr}[") for f in mono)
                ):
                    base_key = mono
                if len(mono) == 1 and mono[0].startswith(f"{fine_arr}["):
                    fine_key = mono
            if base_key is None or fine_key is None:
                continue
            shared = min(poly[base_key], poly[fine_key])
            if shared <= 0:
                continue
            for key in (base_key, fine_key):
                poly[key] -= shared
                if not poly[key]:
                    del poly[key]
            bound = _expand(parse_expr(bound_expr), {})
            poly = _padd(poly, _pscale(bound, shared))
        return poly

    def _factor_bound(self, name: str, want_max: bool) -> Optional[Poly]:
        summary = self.summary
        if name in summary.symbols:
            return {(name,): 1}
        if name in self.var_max:
            return dict(self.var_max[name] if want_max else self.var_min[name])
        if "[" in name:
            array = name.split("[", 1)[0]
            param = summary.param(array)
            if param is None:
                return None
            limit = param.value_max if want_max else param.value_min
            if limit is None:
                return None
            return _expand(parse_expr(limit), {})
        param = summary.param(name)
        if param is not None:
            limit = param.value_max if want_max else param.value_min
            if limit is None:
                return None
            return self._bound(_expand(parse_expr(limit), {}), want_max)
        return None

    def _bound(
        self, poly: Poly, want_max: bool, use_pairs: bool = False
    ) -> Optional[Poly]:
        """Substitute every non-symbol factor by its extreme value.

        Sound because every quantity involved is nonnegative (the
        summaries declare ``value_min`` of 0 and loop lows of 0), so a
        product's max is the product of maxes and its min the product
        of mins; a negative coefficient flips which side is needed.
        """
        if use_pairs and self.summary.pairs:
            poly = self._rewrite_pairs(poly)
        total: Poly = {}
        for mono, coeff in poly.items():
            want = want_max if coeff > 0 else not want_max
            term = _const(coeff)
            for factor in mono:
                bound = self._factor_bound(factor, want)
                if bound is None:
                    return None
                term = _pmul(term, bound)
            total = _padd(total, term)
        return total

    def _numeric(self, poly: Optional[Poly]) -> Optional[int]:
        """Evaluate a symbol polynomial at the documented size caps."""
        if poly is None:
            return None
        total = 0
        for mono, coeff in poly.items():
            value = coeff
            for factor in mono:
                if factor not in self.summary.symbols:
                    return None
                value *= self.summary.symbols[factor]
            total += value
        return total

    # -- width propagation -------------------------------------------------

    def _width_name(self, name: str) -> Tuple[Optional[str], Optional[int]]:
        summary = self.summary
        if name in self.def_widths:
            return self.def_widths[name], self._numeric(
                self._bound(self.defs[name], True, use_pairs=True)
            )
        if name in self.var_width:
            return self.var_width[name], self._numeric(self.var_max[name])
        if name in summary.symbols:
            return "i64", summary.symbols[name]
        param = summary.param(name)
        if param is not None and param.extent is None:
            limit = param.value_max
            cap = None
            if limit is not None:
                cap = self._numeric(self._bound(
                    _expand(parse_expr(limit), {}), True))
            return _WIDTHS.get(param.ctype, "i64"), cap
        return None, None

    def _width_eval(self, node: tuple, context: str) -> Tuple[str, int]:
        """(width, numeric max) with C promotion; findings on overflow."""
        kind = node[0]
        if kind == "num":
            return ("i32" if node[1] <= CAP_I32 else "i64"), node[1]
        if kind == "sym":
            width, cap = self._width_name(node[1])
            if width is None or cap is None:
                raise ExprError(f"no width/cap for {node[1]!r}")
            return width, cap
        if kind == "idx":
            param = self.summary.param(node[1])
            if param is None or param.value_max is None:
                raise ExprError(f"no value range for array {node[1]!r}")
            self._width_eval(node[2], context)
            elem = next(
                (w for key, w in _WIDTHS.items() if key in param.ctype), "i64"
            )
            cap = self._numeric(self._bound(
                _expand(parse_expr(param.value_max), {}), True))
            if cap is None:
                raise ExprError(f"unbounded values in {node[1]!r}")
            return elem, cap
        if kind == "cast":
            _, cap = self._width_eval(node[2], context)
            if node[1] == "i32" and cap > CAP_I32:
                self.fail(
                    RULE_WIDTH,
                    f"cast to i32 can truncate (max {cap}) in {context}",
                    serialize(node),
                )
            return node[1], cap
        lw, lc = self._width_eval(node[1], context)
        rw, rc = self._width_eval(node[2], context)
        width = "i64" if "i64" in (lw, rw) else "i32"
        if kind == "add":
            cap = lc + rc
        elif kind == "sub":
            cap = lc  # operands are nonnegative, so max(l - r) <= max(l)
        else:
            cap = lc * rc
        limit = CAP_I32 if width == "i32" else _CAP_I64
        if cap > limit:
            self.fail(
                RULE_WIDTH,
                f"{width} arithmetic can reach {cap} (> {limit}) "
                f"in {context}",
                serialize(node),
            )
            cap = limit
        return width, cap

    def check_width(self, node: tuple, context: str) -> None:
        try:
            self._width_eval(node, context)
        except ExprError as exc:
            self.fail(RULE_WIDTH, f"cannot bound {context}: {exc}")

    # -- bounds ------------------------------------------------------------

    def check_range(
        self, expr: tuple, extent: str, span: int, context: str
    ) -> None:
        poly = _expand(expr, self.defs)
        low = self._bound(poly, want_max=False)
        if low is None or any(c < 0 for c in low.values()):
            self.fail(
                RULE_BOUNDS,
                f"cannot prove {context} >= 0 "
                f"(min {_format_poly(low) if low else 'unknown'})",
                serialize(expr),
            )
        high = self._bound(poly, want_max=True, use_pairs=True)
        if high is None:
            self.fail(
                RULE_BOUNDS, f"cannot bound {context} from above",
                serialize(expr),
            )
            return
        try:
            extent_poly = _expand(parse_expr(extent), {})
        except ExprError as exc:
            self.fail(RULE_SUMMARY, f"bad extent {extent!r}: {exc}")
            return
        slack = _psub(extent_poly, _padd(high, _const(span)))
        if any(coeff < 0 for coeff in slack.values()):
            self.fail(
                RULE_BOUNDS,
                f"{context} can exceed extent {extent!r} "
                f"(slack {_format_poly(slack)})",
                serialize(expr),
            )


# --------------------------------------------------------------------------
# Source re-parsing: the C text is the ground truth.
# --------------------------------------------------------------------------

_LOOP_RE = re.compile(
    r"for \((i64|i32|int) ([A-Za-z_]\w*) = ([^;]+); "
    r"\2 (<=|<) ([^;]+); \+\+\2\)"
)
_DEF_RE = re.compile(r"const (i64|i32|int) ([A-Za-z_]\w*) = ([^;]+);")
_TEAM_MARKER = "\ntypedef void (*repro_chunk_fn)"


def _serial_region(source: str) -> str:
    return source.split(_TEAM_MARKER, 1)[0]


def _normalize(text: str) -> str:
    return " ".join(text.split())


def _parse_source_loops(
    region: str,
) -> Dict[str, List[Tuple[str, str, str, str]]]:
    """var -> [(width, lo, comparator, hi)] in source order."""
    loops: Dict[str, List[Tuple[str, str, str, str]]] = {}
    for match in _LOOP_RE.finditer(region):
        width, var, lo, cmp_op, hi = match.groups()
        loops.setdefault(var, []).append(
            (width, lo.strip(), cmp_op, hi.strip())
        )
    return loops


def _parse_source_defs(region: str) -> Dict[str, Tuple[str, str]]:
    """name -> (width, expr) for ``const <int-type>`` locals."""
    defs: Dict[str, Tuple[str, str]] = {}
    for match in _DEF_RE.finditer(region):
        width, name, expr = match.groups()
        defs[name] = (width, _normalize(expr))
    return defs


def _crosscheck_loops(ana: _Analysis, region: str) -> List[Loop]:
    """Reconcile summary loops with parsed headers; source wins.

    Returns the effective loop list: a ``<=`` comparator in the source
    widens the summary's exclusive bound to ``(hi) + 1``.
    """
    from ..perf.jit.effects import Loop

    summary = ana.summary
    parsed = _parse_source_loops(region)
    effective: List[Loop] = []
    for loop in summary.loops:
        occurrences = parsed.pop(loop.var, [])
        if not occurrences:
            ana.fail(
                RULE_SUMMARY,
                f"loop over {loop.var!r} declared in summary but absent "
                f"from generated C",
            )
            effective.append(loop)
            continue
        if len(set(occurrences)) > 1:
            ana.fail(
                RULE_SUMMARY,
                f"loop headers for {loop.var!r} disagree within the "
                f"kernel: {sorted(set(occurrences))}",
            )
        width, lo, cmp_op, hi = occurrences[0]
        if (width, lo, hi) != (loop.width, loop.lo, loop.hi) or cmp_op != "<":
            ana.fail(
                RULE_SUMMARY,
                f"loop over {loop.var!r} drifted from summary: source has "
                f"'for ({width} {loop.var} = {lo}; {loop.var} {cmp_op} "
                f"{hi}; ...)', summary claims [{loop.lo}, {loop.hi})",
            )
        hi_eff = hi if cmp_op == "<" else f"({hi}) + 1"
        effective.append(Loop(loop.var, lo, hi_eff, width))
    for var in parsed:
        ana.fail(
            RULE_SUMMARY,
            f"generated C loops over {var!r} but the summary does not "
            f"declare it",
        )
    return effective


def _crosscheck_defs(ana: _Analysis, region: str) -> List[Tuple[str, str, str]]:
    """Reconcile summary defs with parsed ``const`` locals; source wins."""
    summary = ana.summary
    parsed = _parse_source_defs(region)
    effective: List[Tuple[str, str, str]] = []
    for definition in summary.defs:
        entry = parsed.pop(definition.name, None)
        if entry is None:
            ana.fail(
                RULE_SUMMARY,
                f"local def {definition.name!r} declared in summary but "
                f"absent from generated C",
            )
            effective.append(
                (definition.name, definition.width, definition.expr)
            )
            continue
        width, expr = entry
        if expr != definition.expr or _WIDTHS[width] != _WIDTHS[
            definition.width
        ]:
            ana.fail(
                RULE_SUMMARY,
                f"local def {definition.name!r} drifted from summary: "
                f"source has 'const {width} {definition.name} = {expr}', "
                f"summary claims {definition.expr!r}",
            )
        effective.append((definition.name, width, expr))
    for name in parsed:
        ana.fail(
            RULE_SUMMARY,
            f"generated C defines local {name!r} but the summary does "
            f"not declare it",
        )
    return effective


def _crosscheck_accesses(ana: _Analysis, region: str) -> None:
    """Every listed access must appear verbatim in the serial C."""
    flat = _normalize(region)
    for access in ana.summary.accesses:
        # Row slabs appear as pointer adds, scalar elements as
        # subscripts; a rank-1 slab is spelled either way.
        candidates = (
            f"{access.array} + {access.offset}",
            f"{access.array}[{access.offset}]",
        )
        if not any(_normalize(n) in flat for n in candidates):
            ana.fail(
                RULE_SUMMARY,
                f"summary lists {access.kind} of {candidates[0]!r} but "
                f"the generated C does not contain it",
                candidates[0],
            )


# --------------------------------------------------------------------------
# Ownership: every store must be confined to the chunk's region.
# --------------------------------------------------------------------------

def _atom_index_text(atom: str) -> str:
    return atom.split("[", 1)[1][:-1]


def _check_row_blocks(ana: _Analysis, access: Access, poly: Poly) -> None:
    """Window ownership: the stored row must be exactly
    ``binds[b]*block_size + einds[e]`` (scaled by span) where ``b``
    walks this chunk's windows via ``block_perm`` positions."""
    summary = ana.summary
    binds_name, scale = summary.ownership[1], summary.ownership[2]
    binds_param = summary.param(binds_name)
    if binds_param is None or "window_row" not in binds_param.props:
        ana.fail(
            RULE_OWNERSHIP,
            f"ownership names {binds_name!r} which is not a window-row "
            f"index array",
        )
        return
    base_mono = fine_mono = None
    for mono, coeff in poly.items():
        if (
            len(mono) == 2
            and scale in mono
            and any(f.startswith(f"{binds_name}[") for f in mono)
            and coeff == access.span
        ):
            base_mono = mono
        elif len(mono) == 1 and "[" in mono[0] and coeff == access.span:
            fine_mono = mono
    if base_mono is None or fine_mono is None or len(poly) != 2:
        ana.fail(
            RULE_OWNERSHIP,
            f"store offset {access.offset!r} is not "
            f"span*({binds_name}[b]*{scale} + eind) "
            f"(got {_format_poly(poly)})",
            access.offset,
        )
        return
    fine_param = summary.param(fine_mono[0].split("[", 1)[0])
    if fine_param is None or fine_param.value_max != f"{scale} - 1":
        ana.fail(
            RULE_OWNERSHIP,
            f"in-block index {fine_mono[0]!r} not bounded by "
            f"{scale} - 1, so rows can escape the owned block",
            access.offset,
        )
    block_var = _atom_index_text(
        next(f for f in base_mono if f != scale)
    )
    definition = ana.defs.get(block_var)
    perm_match = None
    for name, width, expr in ana.effective_defs:
        if name == block_var:
            perm_match = re.fullmatch(r"([A-Za-z_]\w*)\[([A-Za-z_]\w*)\]", expr)
    if definition is None or perm_match is None:
        ana.fail(
            RULE_OWNERSHIP,
            f"block index {block_var!r} is not a permuted-position "
            f"lookup, cannot tie stores to the chunk's windows",
            access.offset,
        )
        return
    pos_var = perm_match.group(2)
    pos_loop = next(
        (l for l in ana.effective_loops if l.var == pos_var), None
    )
    window_ok = False
    if pos_loop is not None:
        lo_match = re.fullmatch(
            r"([A-Za-z_]\w*)\[" + re.escape(summary.unit_var) + r"\]",
            pos_loop.lo,
        )
        if lo_match is not None:
            win_arr = lo_match.group(1)
            win_param = summary.param(win_arr)
            window_ok = (
                pos_loop.hi == f"{win_arr}[{summary.unit_var} + 1]"
                and win_param is not None
                and "nondecreasing" in win_param.props
            )
    if not window_ok:
        ana.fail(
            RULE_OWNERSHIP,
            f"positions {pos_var!r} do not walk "
            f"[win[{summary.unit_var}], win[{summary.unit_var} + 1]) of a "
            f"nondecreasing window table",
            access.offset,
        )


def _check_ownership(ana: _Analysis) -> None:
    summary = ana.summary
    kind = summary.ownership[0]
    if kind == "serial":
        return
    for access in summary.accesses:
        if access.kind != "store":
            continue
        try:
            poly = _expand(parse_expr(access.offset), ana.defs)
        except ExprError as exc:
            ana.fail(RULE_SUMMARY, f"bad store offset: {exc}", access.offset)
            continue
        if kind == "unit":
            expected = {(summary.unit_var,): access.span}
            if poly != expected:
                ana.fail(
                    RULE_OWNERSHIP,
                    f"store to {access.array!r} at {access.offset!r} is "
                    f"not {access.span}*{summary.unit_var} "
                    f"(got {_format_poly(poly)}) — chunks may collide",
                    access.offset,
                )
        elif kind == "rows":
            targets = summary.ownership[1]
            target_param = summary.param(targets)
            if (
                target_param is None
                or "strictly_increasing" not in target_param.props
            ):
                ana.fail(
                    RULE_OWNERSHIP,
                    f"ownership names {targets!r} which is not declared "
                    f"strictly increasing",
                )
                continue
            expected = {(f"{targets}[{summary.unit_var}]",): access.span}
            if poly != expected:
                ana.fail(
                    RULE_OWNERSHIP,
                    f"store to {access.array!r} at {access.offset!r} is "
                    f"not {access.span}*{targets}[{summary.unit_var}] "
                    f"(got {_format_poly(poly)}) — rows may collide "
                    f"across chunks",
                    access.offset,
                )
        elif kind == "row_blocks":
            _check_row_blocks(ana, access, poly)
        else:
            ana.fail(
                RULE_OWNERSHIP, f"unknown ownership kind {kind!r}"
            )


# --------------------------------------------------------------------------
# Parallel entry: the bit-exactness precondition.
# --------------------------------------------------------------------------

_STATIC_LOOP = "for (i64 c = tid; c < team->num_chunks; c += team->num_threads)"
_PULL_QUEUE = "__atomic_fetch_add(&team->next, 1, __ATOMIC_RELAXED)"


def _check_par(ana: _Analysis, source: str) -> None:
    summary = ana.summary
    name = summary.name
    if summary.par_name is None:
        if f"{name}_par" in source:
            ana.fail(
                RULE_PAR,
                f"kernel is declared serial-only but the source exports "
                f"{name}_par — shared accumulation would race",
            )
        return
    if f"void {summary.par_name}(" not in source:
        ana.fail(
            RULE_PAR, f"summary declares {summary.par_name} but the "
            f"source does not export it",
        )
        return
    for schedule, snippet in (
        ("static round-robin", _STATIC_LOOP),
        ("pull-queue", _PULL_QUEUE),
    ):
        if snippet not in source:
            ana.fail(
                RULE_PAR,
                f"team runner lost its {schedule} schedule — disjointness "
                f"was only proven for both schedules together",
            )
    trampoline = re.search(
        re.escape(name)
        + r"\(a->chunk_bounds\[c\], a->chunk_bounds\[c \+ 1\],\s*(.*?)\);",
        source,
        re.DOTALL,
    )
    if trampoline is None:
        ana.fail(
            RULE_PAR,
            f"chunk trampoline does not call {name} on "
            f"[chunk_bounds[c], chunk_bounds[c + 1]) — store sequences "
            f"cannot match the serial entry",
        )
        return
    passed = [_normalize(arg) for arg in trampoline.group(1).split(",")]
    expected = [f"a->{pname}" for pname in summary.par_params]
    if passed != expected:
        ana.fail(
            RULE_PAR,
            f"trampoline passes {passed} but the summary expects "
            f"{expected} — serial and parallel stores would diverge",
        )
    serial_tail = [p.name for p in summary.params[2:]]
    if list(summary.par_params) != serial_tail:
        ana.fail(
            RULE_PAR,
            f"parallel ctx fields {list(summary.par_params)} do not "
            f"mirror the serial signature {serial_tail}",
        )


# --------------------------------------------------------------------------
# Per-kernel orchestration.
# --------------------------------------------------------------------------

def check_artifact(artifact: KernelArtifact) -> List[Finding]:
    """All findings for one generated kernel (empty list = verified)."""
    summary = artifact.effects
    findings: List[Finding] = []
    ana = _Analysis(summary=summary, findings=findings)
    region = _serial_region(artifact.source)
    if f"void {summary.name}(" not in region:
        ana.fail(
            RULE_SUMMARY,
            f"serial entry void {summary.name}(...) absent from source",
        )
        return findings

    # 1. Reconcile summary with the C text; parsed source is authoritative.
    ana.effective_loops = _crosscheck_loops(ana, region)
    ana.effective_defs = _crosscheck_defs(ana, region)
    _crosscheck_accesses(ana, region)

    # 2. Build the def environment (in declaration order — later defs and
    #    loop bounds reference earlier ones), then loop-var intervals.
    for name, width, expr in ana.effective_defs:
        try:
            ana.defs[name] = _expand(parse_expr(expr), ana.defs)
        except ExprError as exc:
            ana.fail(RULE_SUMMARY, f"bad def {name!r}: {exc}", expr)
            ana.defs[name] = {}
        ana.def_widths[name] = _WIDTHS[width]
    bound_exprs: List[Tuple[tuple, str]] = []
    for loop in ana.effective_loops:
        try:
            lo_ast = parse_expr(loop.lo)
            hi_ast = parse_expr(loop.hi)
        except ExprError as exc:
            ana.fail(
                RULE_SUMMARY, f"bad loop bounds for {loop.var!r}: {exc}"
            )
            continue
        lo_poly = _expand(lo_ast, ana.defs)
        hi_poly = _expand(hi_ast, ana.defs)
        low = ana._bound(lo_poly, want_max=False)
        high = ana._bound(hi_poly, want_max=True)
        if low is None or high is None:
            ana.fail(
                RULE_BOUNDS,
                f"cannot bound loop range of {loop.var!r} "
                f"([{loop.lo}, {loop.hi}))",
            )
            low, high = {}, _const(1)
        ana.var_min[loop.var] = low
        ana.var_max[loop.var] = _psub(high, _const(1))
        ana.var_width[loop.var] = _WIDTHS[loop.width]
        bound_exprs.append((lo_ast, f"loop {loop.var} lower bound"))
        bound_exprs.append((hi_ast, f"loop {loop.var} upper bound"))

    # 3. In-extent + width proofs over every expression the kernel uses.
    seen_atoms: Dict[str, tuple] = {}
    exprs: List[Tuple[tuple, str]] = list(bound_exprs)
    for name, _, expr in ana.effective_defs:
        try:
            exprs.append((parse_expr(expr), f"def {name}"))
        except ExprError:
            pass  # already reported above
    for access in summary.accesses:
        try:
            ast = parse_expr(access.offset)
        except ExprError as exc:
            ana.fail(
                RULE_SUMMARY,
                f"bad {access.kind} offset on {access.array!r}: {exc}",
                access.offset,
            )
            continue
        exprs.append((ast, f"{access.kind} {access.array}"))
        param = summary.param(access.array)
        if param is None or param.extent is None:
            ana.fail(
                RULE_SUMMARY,
                f"{access.kind} targets {access.array!r} which has no "
                f"declared extent",
            )
        else:
            ana.check_range(
                ast, param.extent, access.span,
                f"{access.kind} of {access.array}[{access.offset}]",
            )
    for ast, context in exprs:
        atoms: List[Tuple[str, tuple]] = []
        _collect_atoms(ast, atoms)
        for array, index_ast in atoms:
            key = f"{array}[{serialize(index_ast)}]"
            if key in seen_atoms:
                continue
            seen_atoms[key] = index_ast
            param = summary.param(array)
            if param is None or param.extent is None:
                ana.fail(
                    RULE_SUMMARY,
                    f"{context} reads {key} but {array!r} has no "
                    f"declared extent",
                )
                continue
            ana.check_range(index_ast, param.extent, 1, f"index {key}")
        ana.check_width(ast, context)

    # 4. Ownership and parallel-entry structure.
    _check_ownership(ana)
    _check_par(ana, artifact.source)
    return findings


@dataclass
class KernelCheckReport:
    """Outcome of checking a set of artifacts, mirroring ``LintReport``."""

    findings: List[Finding]
    kernels: int
    names: List[str]

    def to_dict(self) -> dict:
        return {
            "kernels": self.kernels,
            "findings": [f.to_dict() for f in self.findings],
        }


def check_kernels(
    orders: Optional[Sequence[int]] = None,
    ranks: Optional[Sequence[int]] = None,
    artifacts: Optional[Iterable[KernelArtifact]] = None,
) -> KernelCheckReport:
    """Verify the registered kernel matrix (or an explicit artifact set).

    ``orders``/``ranks`` default to the codegen registration matrix;
    both are ignored when ``artifacts`` is given.
    """
    from ..perf.jit import codegen

    if artifacts is None:
        artifacts = codegen.registered_artifacts(
            orders=tuple(orders or codegen.REGISTERED_ORDERS),
            ranks=tuple(ranks or codegen.REGISTERED_RANKS),
        )
    findings: List[Finding] = []
    names: List[str] = []
    for artifact in artifacts:
        names.append(artifact.name)
        findings.extend(check_artifact(artifact))
    return KernelCheckReport(
        findings=sort_findings(findings), kernels=len(names), names=names
    )
