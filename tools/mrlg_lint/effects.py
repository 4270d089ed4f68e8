"""Phase-effect analysis: proves the plan phase of the region-parallel
pipeline read-only.

The write side of the phase contract is enforced by clang thread-safety
analysis (GridWriteCap in src/db/write_cap.hpp, built by the
`analyze-effects` preset). This module enforces the read side without a
compiler: every function reachable from a read-only root must not

  * call a grid mutator (any entry point annotated
    MRLG_REQUIRES(grid_write_cap()) in the sources, plus the built-in
    seed set),                                       -> plan-mutation
  * bind a non-const reference to a tracked type,    -> plan-mutation
  * use const_cast,                                  -> const-cast
  * write an unsanctioned namespace-scope global or
    keep mutable function-local static state
    (thread_local is fine),                          -> global-state

Roots are (a) every function marked MRLG_EFFECT_READONLY and (b) every
function dispatched by the plan-stage parallel_for in the legalizer
(extracted from the MRLG_OBS_PHASE("plan") block). The same block must
pause the ambient tracer before fanning out            -> tracer-pause
and every MRLG_EFFECT_READONLY marker must name a
function the analyzer can find                          -> marker-unknown

The C++ model comes from one frontend, the dependency-free scanner in
cpp_model.py, which the fixture suite (tests/test_lint_fixtures.py)
tests.
"""

import os
import re

from . import cpp_model
from .framework import Finding

REQUIRES_MACRO = "MRLG_REQUIRES(grid_write_cap())"
READONLY_MARKER = "MRLG_EFFECT_READONLY"

# Mutators that exist even if annotation scanning finds nothing (the
# fixture tests run on files with no annotations at all).
SEED_FREE_MUTATORS = {"mll_commit", "mll_undo", "mll_place", "ripup_place"}
SEED_METHOD_MUTATORS = {
    "place", "remove", "set_x", "set_pos", "set_gp", "set_region",
    "set_orient", "unplace", "add_cell", "add_net", "add_pin",
    "freeze_fixed_cells", "mutable_cells_for_test", "mutable_segment",
}

# Accessor names with a const + non-const overload pair: a call is a
# mutation only when the receiver is provably non-const.
AMBIGUOUS_ACCESSORS = {"cell", "net", "floorplan"}

# Names too generic to match without an explicit receiver (std::remove,
# std::placeholders ... would alias them).
RECEIVER_ONLY = {"remove", "place", "x", "y"}

# Globals the plan phase may touch, and why. Reads of the ambient tracer
# pointer are safe because the plan dispatch pauses it (the tracer-pause
# rule checks that); writes remain forbidden.
SANCTIONED_GLOBAL_READS = {"g_current_tracer"}

# The synchronization substrate: files whose functions the closure walk
# treats as opaque read-only leaves. Their shared state is intentional
# (the pool singleton, its job queue) and is guarded by the annotated
# Mutex of util/mutex.hpp — clang -Wthread-safety checks that half of
# the proof (the `analyze-effects` preset); re-flagging the internals
# here would just duplicate findings the capability system owns.
SANCTIONED_SYNC_FILES = (
    os.path.join("util", "thread_pool.cpp"),
    os.path.join("util", "thread_pool.hpp"),
    os.path.join("util", "mutex.hpp"),
)

GLOBAL_WRITE_RE = re.compile(
    r"(\+\+|--)\s*(g_\w+)\b|"
    r"\b(g_\w+)\s*(\+\+|--|=(?!=)|\+=|-=|\*=|/=|\|=|&=)"
)
STATIC_LOCAL_RE = re.compile(
    r"\bstatic\s+(?!const\b|constexpr\b|thread_local\b|assert\b)"
)
CONST_CAST_RE = re.compile(r"\bconst_cast\b")
NONCONST_TRACKED_REF_RE = re.compile(
    r"(?<!const )(?<!const  )\b(?:mrlg::)?("
    + "|".join(cpp_model.TRACKED_TYPES)
    + r")\s*&\s*\w+\s*="
)


def _decl_name_before(text, pos):
    """Finds the declared name for a parameter list ending just before
    `pos` (walking back over whitespace/const and balanced parens)."""
    i = pos - 1
    while i >= 0 and text[i] in " \t\n":
        i -= 1
    if i >= 4 and text[i - 4 : i + 1] == "const":
        i -= 5
        while i >= 0 and text[i] in " \t\n":
            i -= 1
    if i < 0 or text[i] != ")":
        return None
    depth = 0
    while i >= 0:
        if text[i] == ")":
            depth += 1
        elif text[i] == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    if i < 0:
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", text[:i])
    return m.group(1) if m else None


def _decl_name_after(text, pos):
    """Finds the function name declared right after a marker at `pos`."""
    m = re.compile(r"([A-Za-z_][\w:]*)\s*\(").search(text, pos)
    if not m:
        return None
    return m.group(1).split("::")[-1]


def collect_annotated_mutators(prog):
    """Names declared with MRLG_REQUIRES(grid_write_cap()) anywhere."""
    names = set()
    for sf in prog.files.values():
        text = sf.code_text()
        start = 0
        while True:
            pos = text.find(REQUIRES_MACRO, start)
            if pos < 0:
                break
            name = _decl_name_before(text, pos)
            if name:
                names.add(name)
            start = pos + len(REQUIRES_MACRO)
    return names


def collect_readonly_markers(prog):
    """[(path, line, simple_name)] for every MRLG_EFFECT_READONLY use
    that precedes a declaration (the macro definition itself and comment
    mentions are filtered by requiring a following declaration)."""
    out = []
    for path, sf in sorted(prog.files.items()):
        text = sf.code_text()
        start = 0
        while True:
            pos = text.find(READONLY_MARKER, start)
            if pos < 0:
                break
            start = pos + len(READONLY_MARKER)
            # Skip the macro's own definition line.
            line_start = text.rfind("\n", 0, pos) + 1
            if text[line_start:pos].lstrip().startswith("#"):
                continue
            name = _decl_name_after(text, start)
            if name:
                line = text.count("\n", 0, pos) + 1
                out.append((path, line, name))
    return out


def collect_plan_dispatch(prog, findings):
    """Functions dispatched inside MRLG_OBS_PHASE("plan") fan-out blocks,
    plus the tracer-pause check on each such block."""
    roots = []
    for path, sf in sorted(prog.files.items()):
        text = sf.code_text()
        for m in re.finditer(r'MRLG_OBS_PHASE\(""\)|MRLG_OBS_PHASE\("plan"\)', text):
            # code_text() blanks string literals, so re-check the raw
            # source line for the actual phase name.
            line = text.count("\n", 0, m.start()) + 1
            raw = sf.raw_lines[line - 1]
            if '"plan"' not in raw:
                continue
            window = text[m.end() : m.end() + 4000]
            fan = window.find("parallel_for(")
            if fan < 0:
                continue
            if "TracerPause" not in window[:fan]:
                findings.append(
                    Finding(
                        rule="tracer-pause",
                        path=path,
                        line=line,
                        message=(
                            'plan-phase parallel_for without obs::TracerPause:'
                            " workers would race on the ambient tracer"
                        ),
                        key_hint="plan-dispatch",
                    )
                )
            # The dispatch region: parallel_for argument list (balanced).
            depth = 0
            end = fan
            for i in range(fan, len(window)):
                if window[i] == "(":
                    depth += 1
                elif window[i] == ")":
                    depth -= 1
                    if depth == 0:
                        end = i
                        break
            region = window[fan:end]
            for _recv, name, _off in cpp_model.extract_calls(region):
                if name == "parallel_for":
                    continue
                if prog.resolve(name):
                    roots.append((name, path, line))
    return roots


class EffectsAnalyzer:
    def __init__(self, prog, rel=lambda p: p):
        self.prog = prog
        self.rel = rel
        self.findings = []
        self.mutators = (
            collect_annotated_mutators(prog)
            | SEED_FREE_MUTATORS
            | SEED_METHOD_MUTATORS
        )
        self.proven_readonly = set()

    def run(self):
        markers = collect_readonly_markers(self.prog)
        roots = []  # (Function, chain, origin)
        seen_marker_names = set()
        for path, line, name in markers:
            fns = self.prog.resolve(name)
            if not fns:
                self.findings.append(
                    Finding(
                        rule="marker-unknown",
                        path=self.rel(path),
                        line=line,
                        message=(
                            f"MRLG_EFFECT_READONLY names '{name}' but no "
                            f"definition of it was found in the analyzed "
                            f"sources"
                        ),
                        key_hint=name,
                    )
                )
                continue
            if name in seen_marker_names:
                continue
            seen_marker_names.add(name)
            for fn in fns:
                roots.append((fn, [name], f"MRLG_EFFECT_READONLY {name}"))
        for name, path, line in collect_plan_dispatch(
            self.prog, self.findings
        ):
            for fn in self.prog.resolve(name):
                roots.append(
                    (fn, [f"plan-dispatch:{name}"], f"plan fan-out calls {name}")
                )
        # Rewrite finding paths from collect_plan_dispatch to relative.
        for fi in self.findings:
            fi.path = self.rel(fi.path)

        visited = set()
        for fn, chain, origin in roots:
            self._walk(fn, chain, origin, visited)
        return self.findings

    def _walk(self, fn, chain, origin, visited):
        if fn.key() in visited:
            return
        visited.add(fn.key())
        if fn.path.endswith(SANCTIONED_SYNC_FILES):
            self.proven_readonly.add(fn.name)
            return
        clean = True

        base_line = fn.line
        body = fn.body

        m = CONST_CAST_RE.search(body)
        if m:
            clean = False
            self._emit(
                "const-cast", fn, base_line, body, m.start(), chain, origin,
                "const_cast inside the read-only closure launders away the "
                "phase contract",
            )
        m = STATIC_LOCAL_RE.search(body)
        if m:
            clean = False
            self._emit(
                "global-state", fn, base_line, body, m.start(), chain, origin,
                "mutable function-local static in the read-only closure "
                "(concurrent plan calls would race); use thread_local or "
                "pass scratch explicitly",
            )
        for m in GLOBAL_WRITE_RE.finditer(body):
            g = m.group(2) or m.group(3)
            if g in SANCTIONED_GLOBAL_READS:
                # Writes to sanctioned globals are still writes.
                pass
            clean = False
            self._emit(
                "global-state", fn, base_line, body, m.start(), chain, origin,
                f"write to global '{g}' in the read-only closure",
            )
        m = NONCONST_TRACKED_REF_RE.search(body)
        if m:
            clean = False
            self._emit(
                "plan-mutation", fn, base_line, body, m.start(), chain,
                origin,
                f"binds a non-const {m.group(1)}& (mutable access to shared "
                f"placement state) in the read-only closure",
            )

        for recv, name, off in cpp_model.extract_calls(body):
            if self._is_mutator_call(fn, recv, name):
                clean = False
                self._emit(
                    "plan-mutation", fn, base_line, body, off, chain, origin,
                    f"calls grid mutator "
                    f"'{(recv + '.') if recv and recv != '<expr>' else ''}"
                    f"{name}' from the read-only closure",
                )
                continue
            for callee in self.prog.resolve(name):
                if callee.key() != fn.key():
                    self._walk(callee, chain + [name], origin, visited)
        if clean:
            self.proven_readonly.add(fn.name)

    def _is_mutator_call(self, fn, recv, name):
        if name not in self.mutators:
            return False
        if name in AMBIGUOUS_ACCESSORS:
            # Const + non-const overload pair: only a provably non-const
            # receiver selects the mutating one.
            return recv is not None and fn.receivers.get(recv) is False
        if recv is None and name in RECEIVER_ONLY:
            return False
        if recv is not None and recv != "<expr>":
            # Receiver of known-const tracked type calls the const API.
            if fn.receivers.get(recv) is True and name in RECEIVER_ONLY:
                return False
        return True

    def _emit(self, rule, fn, base_line, body, offset, chain, origin, what):
        line = cpp_model.line_of_offset(base_line, body, offset)
        via = " -> ".join(chain)
        self.findings.append(
            Finding(
                rule=rule,
                path=self.rel(fn.path),
                line=line,
                message=f"{fn.qualified}: {what} [{origin}; via {via}]",
                key_hint=fn.qualified,
            )
        )


def analyze(paths, root=None):
    """Runs the effects analysis over `paths`; returns its findings."""
    root = root or os.getcwd()

    def rel(p):
        try:
            return os.path.relpath(p, root)
        except ValueError:
            return p

    prog = cpp_model.Program.load(paths)
    return EffectsAnalyzer(prog, rel=rel).run()
