"""Self-contained C++ source model for the effects analyzer.

This is the analyzer's one frontend: a heuristic scanner that extracts
function definitions and an over-approximate name-based call graph from
stripped source text, with no compiler installed.

Scope of the heuristics — and why they are safe here:

* Function extraction tracks namespace/class scope by brace matching on
  comment- and literal-stripped text. Lambdas are folded into their
  enclosing function, which is conservative for effect analysis (any
  call inside a lambda is attributed to the function that owns it).
* Calls are matched by name. Method calls require an explicit receiver
  (``x.f(`` / ``x->f(``), so ``std::remove(`` never aliases
  ``grid.remove(``. Name-based resolution over-approximates: when two
  functions share a simple name the walker descends into both, so a
  mutator can only be missed by not being *named*, not by overload
  ambiguity. The known ambiguous accessor names (Database::cell etc.,
  const + non-const pairs) are resolved through receiver constness
  tracked from parameter and local reference declarations.
"""

import re
from dataclasses import dataclass, field

from . import framework

# Types whose mutation the pipeline cares about (the shared placement
# state). A non-const reference/pointer to one of these is "mutable
# access to the grid".
TRACKED_TYPES = ("Database", "SegmentGrid", "Cell", "Floorplan", "Net", "Segment")

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "throw",
    "new", "delete", "case", "do", "else", "alignof", "decltype", "assert",
    "defined", "not", "and", "or",
}

SCOPE_NAMESPACE = "namespace"
SCOPE_CLASS = "class"
SCOPE_FUNCTION = "function"
SCOPE_OTHER = "other"

NAME_BEFORE_PAREN_RE = re.compile(r"([A-Za-z_~][\w:]*|operator\S*)\s*$")
CLASS_HEAD_RE = re.compile(r"\b(?:class|struct)\b")
CLASS_NAME_RE = re.compile(r"\b(?:class|struct)\b(?:\s+MRLG_\w+\s*(?:\([^)]*\))?)*\s+([A-Za-z_]\w*)")
NAMESPACE_RE = re.compile(r"\bnamespace\b\s*([A-Za-z_]\w*)?\s*$")
PARAM_RE = re.compile(
    r"(const\s+)?(?:mrlg::)?(" + "|".join(TRACKED_TYPES) + r")\s*([&*])\s*(\w+)"
)
LOCAL_REF_RE = re.compile(
    r"(const\s+)?(?:mrlg::)?(" + "|".join(TRACKED_TYPES) + r")\s*&\s*(\w+)\s*="
)
CALL_RE = re.compile(r"(?:(\.|->)\s*)?([A-Za-z_]\w*)\s*\(")


@dataclass
class Function:
    name: str            # simple name
    qualified: str       # Namespace::Class::name when known
    cls: str             # enclosing class name or ""
    path: str
    line: int            # 1-based line of the opening brace
    head: str            # signature text before the body
    body: str            # stripped body text, braces included
    is_const_method: bool = False
    # Tracked-type receivers visible in this function: name -> is_const.
    receivers: dict = field(default_factory=dict)

    def key(self):
        return f"{self.path}:{self.qualified}"


def _classify_head(head):
    """What kind of scope does the `{` opening after `head` introduce?"""
    h = head.strip()
    if not h:
        return SCOPE_OTHER, ""
    if NAMESPACE_RE.search(h.split("{")[-1]) or re.search(
        r"\bnamespace\b(\s+[A-Za-z_]\w*)?\s*$", h
    ):
        m = re.search(r"\bnamespace\b\s*([A-Za-z_]\w*)?\s*$", h)
        return SCOPE_NAMESPACE, (m.group(1) or "<anon>") if m else "<anon>"
    # enum class Foo { ... } is not a scope we care about.
    if re.search(r"\benum\b", h):
        return SCOPE_OTHER, ""
    if CLASS_HEAD_RE.search(h):
        # Distinguish a class *definition* head from a function returning
        # a class type: a definition head has no parameter list after the
        # class name (base clauses contain ':' but no top-level parens
        # except attribute macros, already part of the head).
        m = CLASS_NAME_RE.search(h)
        if m and not re.search(r"\)\s*(const\s*)?(noexcept\s*)?$", h):
            return SCOPE_CLASS, m.group(1)
    # Function definition: last top-level construct is `(...)` possibly
    # followed by qualifiers / attribute macros / ctor init list.
    name, params, ok = _match_function_head(h)
    if ok:
        return SCOPE_FUNCTION, (name, params, h)
    return SCOPE_OTHER, ""


def _top_level_paren_groups(text):
    """Yields (start, end) index pairs of top-level (...) groups."""
    depth = 0
    start = -1
    groups = []
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and start >= 0:
                groups.append((start, i))
                start = -1
    return groups


def _match_function_head(h):
    """Recognizes `h` as a function definition head.

    Returns (simple_name, param_text, True) or ("", "", False).
    """
    if re.search(r"(^|\s)(if|for|while|switch|catch)\s*\($", h):
        return "", "", False
    groups = _top_level_paren_groups(h)
    if not groups:
        return "", "", False
    # The parameter list is the first top-level group whose preceding
    # token is an identifier that is not a control keyword or macro-only
    # head; everything after may be qualifiers or a ctor init list.
    for start, end in groups:
        before = h[:start].rstrip()
        m = NAME_BEFORE_PAREN_RE.search(before)
        if not m:
            continue
        name = m.group(1)
        bare = name.split("::")[-1]
        if bare in KEYWORDS:
            return "", "", False
        # Assignment before the candidate group means this is an
        # initializer (`auto f = ...(...)`), not a definition head —
        # unless the '=' belongs to a default argument inside an earlier
        # group (impossible: we scan top level only).
        eq = before.rfind("=")
        if eq >= 0 and not re.search(r"[=!<>+\-*/|&^]=$|==$", before[: eq + 1]):
            return "", "", False
        # Macro-style all-caps heads (MRLG_OBS_PHASE(...) etc.) are not
        # definitions.
        if re.fullmatch(r"[A-Z0-9_]+", name):
            return "", "", False
        tail = h[end + 1 :].strip()
        if tail and not re.match(
            r"^(const|noexcept|override|final|:|->|MRLG_\w+|\(|,|\w|<|>|:{2})",
            tail,
        ):
            return "", "", False
        return name, h[start + 1 : end], True
    return "", "", False


def parse_file(sf):
    """Extracts Function objects from a framework.SourceFile."""
    text = sf.code_text()
    functions = []
    # Scope stack entries: (kind, name, brace_depth_at_entry)
    stack = []
    head_start = 0  # index where the current head text begins
    i = 0
    n = len(text)
    line = 1
    head_line = 1
    func_depth = None  # brace depth inside an active function body
    func_start = None
    func_info = None
    depth = 0

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch == "{":
            depth += 1
            if func_depth is not None:
                i += 1
                continue
            head = text[head_start:i]
            kind, info = _classify_head(head)
            if kind == SCOPE_FUNCTION:
                func_depth = depth
                func_start = i
                name, params, full_head = info
                func_info = (name, params, full_head, head_line)
            else:
                stack.append((kind, info if isinstance(info, str) else "", depth))
            head_start = i + 1
            head_line = line
            i += 1
            continue
        if ch == "}":
            depth -= 1
            if func_depth is not None and depth < func_depth:
                # Function body closed.
                name, params, full_head, fline = func_info
                body = text[func_start : i + 1]
                namespaces = [s[1] for s in stack if s[0] == SCOPE_NAMESPACE]
                classes = [s[1] for s in stack if s[0] == SCOPE_CLASS]
                cls = classes[-1] if classes else ""
                simple = name.split("::")[-1]
                if "::" in name:
                    cls = name.rsplit("::", 2)[-2]
                qual_parts = [p for p in namespaces if p != "<anon>"]
                if cls:
                    qual_parts.append(cls)
                qual_parts.append(simple)
                fn = Function(
                    name=simple,
                    qualified="::".join(qual_parts),
                    cls=cls,
                    path=sf.path,
                    line=fline,
                    head=full_head,
                    body=body,
                    is_const_method=bool(
                        re.search(r"\)\s*const(\s|$|\s*MRLG_)", full_head)
                    ),
                )
                for m in PARAM_RE.finditer(params):
                    is_const = bool(m.group(1)) or m.group(3) == "*" and False
                    fn.receivers[m.group(4)] = bool(m.group(1))
                for m in LOCAL_REF_RE.finditer(body):
                    fn.receivers.setdefault(m.group(3), bool(m.group(1)))
                functions.append(fn)
                func_depth = None
                func_info = None
            else:
                while stack and stack[-1][2] > depth:
                    stack.pop()
            head_start = i + 1
            head_line = line
            i += 1
            continue
        if ch == ";" and func_depth is None:
            head_start = i + 1
            head_line = line
            i += 1
            continue
        if ch == "#" and func_depth is None:
            # Preprocessor line: skip to end of line.
            j = text.find("\n", i)
            if j < 0:
                break
            head_start = j + 1
            i = j
            continue
        i += 1
    return functions


@dataclass
class Program:
    functions: list = field(default_factory=list)
    by_name: dict = field(default_factory=dict)  # simple name -> [Function]
    files: dict = field(default_factory=dict)  # path -> SourceFile

    @classmethod
    def load(cls, paths):
        prog = cls()
        for path in paths:
            sf = framework.SourceFile.load(path)
            prog.files[path] = sf
            for fn in parse_file(sf):
                prog.functions.append(fn)
                prog.by_name.setdefault(fn.name, []).append(fn)
        return prog

    def resolve(self, name):
        return self.by_name.get(name, [])


# Namespaces whose functions are never mrlg code (std::remove must not
# alias SegmentGrid::remove).
FOREIGN_NAMESPACES = {"std", "fs", "filesystem", "chrono", "detail"}


def extract_calls(body):
    """Yields (receiver_or_None, name, offset) for every call in body.

    Calls qualified into a foreign namespace (std:: etc.) are dropped.
    """
    for m in CALL_RE.finditer(body):
        name = m.group(2)
        if name in KEYWORDS or re.fullmatch(r"[A-Z0-9_]+", name):
            continue
        receiver = None
        if m.group(1):
            rm = re.search(r"([A-Za-z_]\w*)\s*(?:\.|->)\s*$", body[: m.start(2)])
            receiver = rm.group(1) if rm else "<expr>"
        else:
            qm = re.search(r"([A-Za-z_]\w*)\s*::\s*$", body[: m.start(2)])
            if qm and qm.group(1) in FOREIGN_NAMESPACES:
                continue
        yield receiver, name, m.start()


def line_of_offset(body_base_line, body, offset):
    return body_base_line + body.count("\n", 0, offset)
