#!/usr/bin/env python3
"""AST-grounded hot-path purity lint (ci.sh astlint, DESIGN.md §16).

The paper's performance argument rests on the mining inner loops
(Visit / Freq / FindLB containment) and the serving request path staying
tight. TKRGS_HOT (util/hot_path.h) marks those functions as hot-path
roots; this lint builds a call graph over src/ and enforces, for every
function TRANSITIVELY REACHABLE from a root:

  hot-alloc          no heap allocation: operator new, make_unique /
                     make_shared, allocating container/string growth
                     (push_back, emplace, resize, reserve, append,
                     insert, assign), std::to_string.
  hot-lock           no lock acquisition of any kind: ranked
                     MutexLock/ReaderMutexLock/WriterMutexLock or raw
                     std:: lock guards.
  hot-blocking       no blocking syscalls or I/O: sleeps, yields,
                     condition-variable waits, streams, stdio, sockets.
  hot-copy           no implicit copy of the expensive set types
                     (Bitset, RowSet, PrefixTree, RuleGroup):
                     pass-by-value parameters, copy-init from an lvalue,
                     and NRVO-defeating `return std::move(...)`.
  hot-status-format  no throw, and no Status/StatusOr construction with
                     formatted strings (std::to_string / concatenation)
                     inside hot regions — error formatting belongs on
                     cold paths.

Why reachability, not per-function: the hazards hide in callees — the
per-node allocation the miner must not do lives in a RowSet helper, not
in Visit itself. A per-function check would pass Visit and miss the
chain; the call-graph walk follows it.

Escape hatch: `// NOLINT(hotpath: <why>)` on the offending line (or the
contiguous comment block above) suppresses the finding; placed on a
call-site line it justifies the whole chain behind that call. The
justification is mandatory — a bare NOLINT(hotpath) anywhere in the
analyzed tree is itself a finding (nolint-needs-justification).

Engines: with libclang importable (clang.cindex) and a
compile_commands.json, function extents, annotations and call edges come
from the real AST. Without it — gcc-only hosts — a built-in tokenizer
frontend reconstructs the same program model textually; downstream
analysis (reachability, events, NOLINT, baseline, fingerprints) is
shared, so findings and fingerprints agree across engines. `--engine`
forces one; auto prefers libclang and prints a notice when falling back.

Baseline: tools/lint/hotpath_baseline.txt, shrink-only (house policy).
src/mine/ and src/util/ are zero-baseline dirs: the miner core and the
set-algebra kernels ship clean, never parked.

Self-test: --self-test runs the never-compiled fixture pair —
testdata/hotpath_fixture.cc must reproduce its EXPECT-FINDING
annotations exactly, and testdata/hotpath_clean_fixture.cc must produce
zero findings.

Exit code 0 = clean (or skip), 1 = findings/stale baseline, 2 = usage.
"""

import argparse
import json
import os
import re
import sys

import lintlib
from lintlib import REPO_ROOT, Finding

BASELINE_PATH = os.path.join(REPO_ROOT, "tools/lint/hotpath_baseline.txt")
FIXTURE_PATH = os.path.join(REPO_ROOT,
                            "tools/lint/testdata/hotpath_fixture.cc")
CLEAN_FIXTURE_PATH = os.path.join(
    REPO_ROOT, "tools/lint/testdata/hotpath_clean_fixture.cc")

ANALYSIS_ZONES = ("src/",)
ZERO_BASELINE_DIRS = ("src/mine/", "src/util/")
EXPENSIVE_TYPES = ("Bitset", "RowSet", "PrefixTree", "RuleGroup")
JUSTIFY = "<why this is bounded/amortized/unreachable here>"

BASELINE_HEADER = (
    "Hot-path purity baseline (tools/lint/astlint.py).",
    "This file must only shrink: entries park PRE-EXISTING findings;",
    "new hazards fail the gate outright, and fixed ones make their",
    "entry stale (also an error) until removed. src/mine and src/util",
    "are zero-baseline zones: no entry may name them.",
)

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "alignof", "decltype", "new", "delete", "throw",
    "static_assert", "defined", "assert", "case", "goto", "co_return",
    "co_await", "co_yield", "requires", "noexcept", "alignas",
}

# --- shared line-level event detection -----------------------------------
# Both engines detect events with these patterns over comment-stripped
# code lines, so fingerprints agree regardless of which frontend built
# the call graph.

ALLOC_RES = [
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new"),
    (re.compile(r"\bmake_(?:unique|shared)\s*<"), "make_unique/make_shared"),
    (re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|emplace|append|"
                r"insert|assign|resize|reserve)\s*\("),
     "allocating container/string growth"),
    (re.compile(r"\bstd::to_string\s*\("), "std::to_string allocates"),
]
# Constructing one of the expensive set types allocates its backing
# buffers; checked separately so return types in signatures don't match.
EXPENSIVE_CTOR_RE = re.compile(
    r"\b(?:" + "|".join(EXPENSIVE_TYPES) + r")\s+\w+\s*[({=]")
BLOCKING_RES = [
    (re.compile(r"\bstd::this_thread::(?:sleep_for|sleep_until|yield)\b"),
     "sleep/yield"),
    (re.compile(r"(?<![\w:])(?:sleep|usleep|nanosleep)\s*\("), "sleep"),
    (re.compile(r"\bstd::[io]?fstream\b"), "file stream"),
    (re.compile(r"(?<![\w:])f(?:open|close|read|write|gets|puts|printf|"
                r"scanf|flush|sync)\s*\("), "stdio"),
    (re.compile(r"\bstd::c(?:out|err|log|in)\b"), "console stream"),
    (re.compile(r"(?<![\w:])printf\s*\("), "stdio"),
    (re.compile(r"(?:\.|->)\s*wait(?:_for|_until)?\s*\("),
     "condition-variable wait"),
    (re.compile(r"(?<![\w:])(?:recv|send|accept|connect|poll|select|"
                r"epoll_wait)\s*\("), "socket/blocking syscall"),
]
EXPENSIVE_ALT = "|".join(EXPENSIVE_TYPES)
COPY_INIT_RE = re.compile(
    r"\b(" + EXPENSIVE_ALT + r")\s+(\w+)\s*=\s*([^;=][^;]*);")
LVALUE_RHS_RE = re.compile(r"^\*?[A-Za-z_]\w*(?:(?:\.|->)\w+|\[[^\]]*\])*$")
RETURN_MOVE_RE = re.compile(r"\breturn\s+std::move\s*\(")
PARAM_BYVAL_RE = re.compile(
    r"^(?:const\s+)?(" + EXPENSIVE_ALT + r")\s+(\w+)$")
STATUS_CTOR_RE = re.compile(r"\b(?:Status|StatusOr<[^;>]*>)\s*(?:::\s*\w+\s*)?\(")
STATUS_FORMAT_RE = re.compile(r"std::to_string\s*\(|\"\s*\+|\+\s*\"")
THROW_RE = re.compile(r"\bthrow\b")
LOCK_RES = [
    (re.compile(r"\b(?:MutexLock|ReaderMutexLock|WriterMutexLock)\s+\w+"
                r"\s*[({]"), "lock acquisition"),
    (re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock|"
                r"shared_lock)\b"), "raw std:: lock guard"),
]

QUAL_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*::\s*(~?[A-Za-z_]\w*)\s*\(")
MEMBER_CALL_RE = re.compile(r"(?:\b(\w+))?\s*(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
# Local declarations and parameters whose class type is knowable from the
# text alone; the member-call resolver prefers that class's method over
# the name-match fallback (e.g. `out.Set(...)` on a local `Bitset out`
# binds to Bitset::Set, never to some other class's Set).
LOCAL_DECL_RE = re.compile(
    r"^(?:const\s+)?([A-Z]\w*)(?:<[^<>;]*>)?(?:\s+|\s*[&*]\s*)"
    r"(\w+)\s*(?:[;=({]|$)")
PARAM_TYPE_RE = re.compile(
    r"^(?:const\s+)?([A-Z]\w*)(?:<[^<>]*>)?\s*[&*]?\s*(\w+)$")
FREE_CALL_RE = re.compile(r"(?<![\w.:>~])([A-Za-z_]\w*)\s*\(")
DECL_CTOR_RE = re.compile(r"\b([A-Z]\w*)\s+\w+\s*[({]")

NAME_BEFORE_RE = re.compile(
    r"(~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*"
    r"|operator\s*(?:\(\s*\)|\[\s*\]|[^\s(]+))\s*$")
CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{]*)?$")
NAMESPACE_RE = re.compile(r"\bnamespace\b(?:\s+[A-Za-z_]\w*)?\s*$")


class Func:
    """One function definition: identity, extent, hotness, and the body
    lines the event/call scans run over."""

    def __init__(self, path, fa, cls, name, sig_text, sig_lines):
        self.path = path
        self.fa = fa
        self.cls = cls          # innermost enclosing class, or None
        self.name = name        # unqualified
        self.qual = f"{cls}::{name}" if cls else name
        self.sig_text = sig_text
        self.sig_lines = sig_lines  # 0-based line indices of the signature
        self.body = []          # 0-based line indices inside the braces
        self.hot = "TKRGS_HOT" in sig_text
        self.events = []        # (line_idx, check, message)
        self.calls = []         # (line_idx, kind, qualifier, name)

    def start_line(self):
        return (self.sig_lines[0] if self.sig_lines else 0) + 1


def _find_matching(s, i):
    depth = 0
    for j in range(i, len(s)):
        if s[j] == "(":
            depth += 1
        elif s[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return -1


def extract_signature(stmt):
    """(name, params, trailing) for a statement that looks like a
    function signature, else None. Scans top-level '(' candidates and
    takes the first preceded by a plausible (possibly qualified) name."""
    depth = 0
    for i, c in enumerate(stmt):
        if c == "(":
            if depth == 0:
                m = NAME_BEFORE_RE.search(stmt[:i])
                if m:
                    name = re.sub(r"\s+", "", m.group(1))
                    if name.split("::")[-1] not in CONTROL_KEYWORDS:
                        close = _find_matching(stmt, i)
                        if close != -1:
                            return name, stmt[i + 1:close], stmt[close + 1:]
            depth += 1
        elif c == ")":
            depth = max(0, depth - 1)
    return None


def split_params(params):
    parts, depth, cur = [], 0, []
    for c in params:
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if "".join(cur).strip():
        parts.append("".join(cur))
    return [p.strip() for p in parts]


class _Scope:
    def __init__(self, kind, name=None, func=None):
        self.kind = kind  # "namespace" | "class" | "function" | "block"
        self.name = name
        self.func = func


class Program:
    """The whole-program model both engines populate: functions and hot
    declarations."""

    def __init__(self):
        self.funcs = []
        self.by_qual = {}
        self.by_name = {}
        self.classes = set()
        self.hot_decls = set()
        self.analyses = {}          # path -> FileAnalysis

    def add_func(self, fn):
        self.funcs.append(fn)
        self.by_qual.setdefault(fn.qual, []).append(fn)
        self.by_name.setdefault(fn.name, []).append(fn)
        if fn.cls:
            self.classes.add(fn.cls)

    def finalize(self):
        for fn in self.funcs:
            if fn.qual in self.hot_decls:
                fn.hot = True


def parse_file_internal(path, text, program):
    """Tokenizer frontend: reconstructs function extents, class context
    and TKRGS_HOT markers by tracking braces/parens over comment-stripped
    code. Statement boundaries are ';' '{' '}' at paren depth 0, so
    brace-initializers and lambda bodies inside argument lists never open
    scopes of their own."""
    fa = lintlib.FileAnalysis(path, text, nolint_tag="hotpath")
    program.analyses[path] = fa
    scopes = []
    stmt_parts = []  # (line_idx, text) segments of the current statement
    paren_depth = 0

    def innermost_function():
        for scope in reversed(scopes):
            if scope.kind == "function":
                return scope.func
        return None

    def enclosing_class():
        for scope in reversed(scopes):
            if scope.kind == "class":
                return scope.name
        return None

    def stmt_text():
        return " ".join(t for _, t in stmt_parts).strip()

    def handle_open(idx):
        sig = stmt_text()
        fn = innermost_function()
        if fn is not None:
            scopes.append(_Scope("block"))
            return
        if NAMESPACE_RE.search(sig):
            scopes.append(_Scope("namespace"))
            return
        if re.search(r"\benum\b", sig):
            scopes.append(_Scope("block"))
            return
        m = CLASS_RE.search(sig)
        if m:
            scopes.append(_Scope("class", name=m.group(1)))
            return
        ext = extract_signature(sig)
        if ext is not None:
            name, params, trailing = ext
            cls = enclosing_class()
            if "::" in name:
                segs = name.split("::")
                cls, name = segs[-2], segs[-1]
            new_fn = Func(path, fa, cls, name, sig,
                          sorted({i for i, _ in stmt_parts} | {idx}))
            new_fn.params = params
            program.add_func(new_fn)
            scopes.append(_Scope("function", func=new_fn))
            return
        scopes.append(_Scope("block"))

    def handle_semi(idx):
        if innermost_function() is not None:
            return
        sig = stmt_text()
        if "TKRGS_HOT" not in sig:
            return
        ext = extract_signature(sig)
        if ext is None:
            return
        name = ext[0]
        cls = enclosing_class()
        if "::" in name:
            segs = name.split("::")
            cls, name = segs[-2], segs[-1]
        program.hot_decls.add(f"{cls}::{name}" if cls else name)

    in_directive = False
    for idx, code in enumerate(fa.code_lines):
        if in_directive or code.lstrip().startswith("#"):
            in_directive = fa.raw_lines[idx].rstrip().endswith("\\")
            continue
        # A line belongs to every function that was innermost at any
        # statement boundary on it (or at end of line) — this keeps
        # single-line definitions like `void F() { v_.push_back(x); }`
        # attributed, which the header-heavy util code is full of.
        touched = []

        def mark():
            fn = innermost_function()
            if fn is not None and (not touched or touched[-1] is not fn):
                touched.append(fn)

        seg_start = 0
        for i, c in enumerate(code):
            if c in "([":
                paren_depth += 1
            elif c in ")]":
                paren_depth = max(0, paren_depth - 1)
            elif c == "{" and paren_depth == 0:
                mark()
                stmt_parts.append((idx, code[seg_start:i]))
                handle_open(idx)
                mark()
                stmt_parts = []
                seg_start = i + 1
            elif c == "}" and paren_depth == 0:
                mark()
                stmt_parts = []
                seg_start = i + 1
                if scopes:
                    scopes.pop()
            elif c == ";" and paren_depth == 0:
                mark()
                stmt_parts.append((idx, code[seg_start:i]))
                handle_semi(idx)
                stmt_parts = []
                seg_start = i + 1
        rest = code[seg_start:]
        if rest.strip():
            stmt_parts.append((idx, rest))
        mark()
        for fn in touched:
            if not fn.body or fn.body[-1] != idx:
                fn.body.append(idx)



def paired_path(path):
    if path.endswith(".cc"):
        return path[:-3] + ".h"
    if path.endswith(".h"):
        return path[:-2] + ".cc"
    return path


def detect_events(program):
    """Populates fn.events and fn.calls for every parsed function."""
    for fn in program.funcs:
        fa = fn.fa
        # Receiver-type map: parameter and local declarations whose class
        # is visible in the text, so member calls on them resolve exactly.
        local_types = {}
        for param in split_params(getattr(fn, "params", "")):
            m = PARAM_TYPE_RE.match(param.split("=")[0].strip())
            if m:
                local_types[m.group(2)] = m.group(1)
        for idx in fn.body:
            m = LOCAL_DECL_RE.match(fa.code_lines[idx].lstrip())
            if m:
                local_types[m.group(2)] = m.group(1)
        # Signature events: pass-by-value expensive parameters.
        for param in split_params(getattr(fn, "params", "")):
            param = param.split("=")[0].strip()
            m = PARAM_BYVAL_RE.match(param)
            if not m:
                continue
            anchor = fn.sig_lines[-1] if fn.sig_lines else 0
            token = m.group(1) + " " + m.group(2)
            for idx in fn.sig_lines:
                if token in re.sub(r"\s+", " ", fa.code_lines[idx]):
                    anchor = idx
                    break
            fn.events.append((anchor, "hot-copy",
                              f"parameter '{m.group(2)}' takes {m.group(1)} "
                              "by value: every call copies the full "
                              "payload; pass by const reference (or move "
                              "explicitly at the one sink that owns it)"))

        # Status-construction statements claim their lines first so the
        # to_string inside is reported once, as hot-status-format.
        status_lines = set()
        body = fn.body
        for pos, idx in enumerate(body):
            code = fa.code_lines[idx]
            if not STATUS_CTOR_RE.search(code):
                continue
            stmt_idx = [idx]
            probe = pos
            while ";" not in fa.code_lines[stmt_idx[-1]] and \
                    probe + 1 < len(body) and len(stmt_idx) < 8:
                probe += 1
                stmt_idx.append(body[probe])
            stmt = " ".join(fa.code_lines[i] for i in stmt_idx)
            if STATUS_FORMAT_RE.search(stmt):
                status_lines.update(stmt_idx)
                fn.events.append((idx, "hot-status-format",
                                  "Status/StatusOr built with a formatted "
                                  "string on a hot path: formatting "
                                  "allocates; return a static message or "
                                  "move the formatting to a cold helper"))

        for idx in body:
            code = fa.code_lines[idx]
            if code.lstrip().startswith("#"):
                continue
            if THROW_RE.search(code):
                fn.events.append((idx, "hot-status-format",
                                  "throw in a hot region: exceptions "
                                  "allocate and unwind; return Status from "
                                  "cold validation instead"))
            if idx not in status_lines:
                for rx, what in ALLOC_RES:
                    if rx.search(code):
                        fn.events.append((idx, "hot-alloc",
                                          f"heap allocation ({what}) on a "
                                          "hot path"))
                        break
                else:
                    if idx not in fn.sig_lines and \
                            EXPENSIVE_CTOR_RE.search(code):
                        fn.events.append((idx, "hot-alloc",
                                          "heap allocation (expensive-type "
                                          "construction: the backing buffers "
                                          "allocate) on a hot path"))
            for rx, what in BLOCKING_RES:
                if rx.search(code):
                    fn.events.append((idx, "hot-blocking",
                                      f"blocking operation ({what}) on a "
                                      "hot path"))
                    break
            for rx, what in LOCK_RES:
                if rx.search(code):
                    fn.events.append((idx, "hot-lock",
                                      f"{what} on a hot path: a lock "
                                      "serializes the fast path; hot "
                                      "regions take no locks"))
                    break
            m = COPY_INIT_RE.search(code)
            if m and LVALUE_RHS_RE.match(m.group(3).strip()):
                fn.events.append((idx, "hot-copy",
                                  f"copy-initialization of {m.group(1)} "
                                  f"'{m.group(2)}' from an lvalue: deep "
                                  "copy of the full payload; bind a const "
                                  "reference or reuse a scratch instance"))
            if RETURN_MOVE_RE.search(code) and any(
                    t in fn.sig_text for t in EXPENSIVE_TYPES):
                fn.events.append((idx, "hot-copy",
                                  "return std::move(...) defeats NRVO for "
                                  "an expensive type; return the local "
                                  "directly"))

            # Call edges.
            claimed = set()
            for cm in QUAL_CALL_RE.finditer(code):
                claimed.add(cm.start(2))
                fn.calls.append((idx, "qual", cm.group(1), cm.group(2)))
            for cm in MEMBER_CALL_RE.finditer(code):
                claimed.add(cm.start(2))
                receiver = cm.group(1)
                rtype = local_types.get(receiver) if receiver else None
                fn.calls.append((idx, "member", rtype, cm.group(2)))
            for cm in FREE_CALL_RE.finditer(code):
                if cm.start(1) in claimed:
                    continue
                name = cm.group(1)
                if name in CONTROL_KEYWORDS or name == "TKRGS_HOT":
                    continue
                fn.calls.append((idx, "free", None, name))
            for cm in DECL_CTOR_RE.finditer(code):
                fn.calls.append((idx, "ctor", None, cm.group(1)))


def resolve_calls(program, caller, kind, qualifier, name):
    by_qual, by_name = program.by_qual, program.by_name
    near = (caller.path, paired_path(caller.path))
    if kind == "qual":
        if qualifier == "std":
            return []
        cands = by_qual.get(f"{qualifier}::{name}")
        if cands:
            return cands
        return [f for f in by_name.get(name, []) if f.cls is None]
    if kind == "member":
        cands = [f for f in by_name.get(name, []) if f.cls is not None]
        if qualifier:  # receiver's declared class is known from the text
            typed = [f for f in cands if f.cls == qualifier]
            if typed:
                return typed
        if caller.cls:
            own = [f for f in cands if f.cls == caller.cls]
            if own:
                return own
        same = [f for f in cands if f.path in near]
        return same or cands
    if kind == "free":
        if caller.cls:
            own = by_qual.get(f"{caller.cls}::{name}")
            if own:
                return own
        cands = [f for f in by_name.get(name, []) if f.cls is None]
        if cands:
            same = [f for f in cands if f.path in near]
            return same or cands
        if name in program.classes:
            return by_qual.get(f"{name}::{name}", [])
        return []
    if kind == "ctor":
        return by_qual.get(f"{name}::{name}", [])
    return []


def analyze_program(program):
    """Reachability walk from every TKRGS_HOT root; returns findings."""
    program.finalize()
    findings = []
    emitted = set()   # (path, line, check) dedupe across roots/chains

    def emit(fa, idx, check, message):
        key = (fa.path, idx, check)
        if key in emitted:
            return
        nolint = fa.nolint_for(idx)
        if nolint is not None:
            return  # justified or bare; bare handled by the global sweep
        emitted.add(key)
        findings.append(Finding(fa.path, idx + 1, check, message,
                                fa.raw_lines[idx]))

    reach = {}  # id(fn) -> chain (list of qual names from the root)
    roots = sorted((fn for fn in program.funcs if fn.hot),
                   key=lambda f: (f.path, f.start_line()))

    def walk(fn, chain):
        if id(fn) in reach:
            return
        reach[id(fn)] = (fn, chain)
        for idx, kind, qualifier, name in fn.calls:
            if fn.fa.nolint_for(idx) is not None:
                continue  # the whole chain behind this call is justified
            for callee in resolve_calls(program, fn, kind, qualifier, name):
                if callee is fn:
                    continue
                walk(callee, chain + [callee.qual])

    for root in roots:
        walk(root, [root.qual])

    for fn, chain in sorted(reach.values(),
                            key=lambda fc: (fc[0].path, fc[0].start_line())):
        via = (f" [hot root: {chain[0]}"
               + (f", via {' -> '.join(chain[1:])}" if len(chain) > 1 else "")
               + "]")
        for idx, check, message in fn.events:
            emit(fn.fa, idx, check, message + via)

    # Every NOLINT(hotpath) in the analyzed tree needs a justification,
    # reachable or not — a bare one is dead weight that would silently
    # suppress a future finding.
    for path in sorted(program.analyses):
        fa = program.analyses[path]
        for idx, raw in enumerate(fa.raw_lines):
            m = fa.nolint_re.search(fa.comment_lines[idx])
            if m and (m.group(1) is None or not m.group(1).strip()):
                findings.append(Finding(
                    path, idx + 1, "nolint-needs-justification",
                    "NOLINT(hotpath) requires a justification: "
                    f"NOLINT(hotpath: {JUSTIFY})", raw))

    return findings, roots, reach


# --- libclang frontend ---------------------------------------------------

def libclang_index():
    """A clang.cindex Index, or None with a reason string."""
    try:
        from clang import cindex  # noqa: F401
    except ImportError:
        return None, "python clang bindings not importable"
    from clang import cindex
    try:
        return cindex.Index.create(), None
    except Exception as exc:  # library missing / version mismatch
        return None, f"libclang unusable: {exc}"


def parse_file_libclang(index, path, text, program, compile_args):
    """AST frontend: the same Program model, but function extents,
    annotations and call edges come from clang cursors. Events stay with
    the shared line-level detectors, so fingerprints match the internal
    engine."""
    from clang import cindex
    fa = lintlib.FileAnalysis(path, text, nolint_tag="hotpath")
    program.analyses[path] = fa
    full = os.path.join(REPO_ROOT, path)
    tu = index.parse(full, args=compile_args)
    func_kinds = {
        cindex.CursorKind.FUNCTION_DECL, cindex.CursorKind.CXX_METHOD,
        cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR,
        cindex.CursorKind.FUNCTION_TEMPLATE,
    }
    by_usr = {}

    def in_this_file(cursor):
        return (cursor.location.file is not None
                and os.path.samefile(cursor.location.file.name, full))

    def visit(cursor, cls):
        for child in cursor.get_children():
            kind = child.kind
            if kind in (cindex.CursorKind.CLASS_DECL,
                        cindex.CursorKind.STRUCT_DECL,
                        cindex.CursorKind.CLASS_TEMPLATE):
                visit(child, child.spelling or cls)
                continue
            if kind in func_kinds and child.is_definition() \
                    and in_this_file(child):
                name = child.spelling
                sem = child.semantic_parent
                fn_cls = cls
                if sem is not None and sem.kind in (
                        cindex.CursorKind.CLASS_DECL,
                        cindex.CursorKind.STRUCT_DECL,
                        cindex.CursorKind.CLASS_TEMPLATE):
                    fn_cls = sem.spelling
                start = child.extent.start.line - 1
                body_first = start
                hot = False
                for sub in child.get_children():
                    if sub.kind == cindex.CursorKind.ANNOTATE_ATTR \
                            and sub.spelling == "tkrgs_hot":
                        hot = True
                    if sub.kind == cindex.CursorKind.COMPOUND_STMT:
                        body_first = sub.extent.start.line - 1
                sig = " ".join(
                    fa.code_lines[start:body_first + 1]).strip()
                fn = Func(path, fa, fn_cls, name, sig,
                          list(range(start, body_first + 1)))
                fn.params = ", ".join(
                    f"{a.type.spelling} {a.spelling}"
                    for a in child.get_arguments())
                fn.hot = hot or "TKRGS_HOT" in sig
                fn.body = list(range(body_first + 1,
                                     child.extent.end.line))
                fn.clang_cursor = child
                program.add_func(fn)
                by_usr[child.get_usr()] = fn
            visit(child, cls)

    visit(tu.cursor, None)

    # AST-resolved call edges replace the textual resolution: record them
    # as pre-resolved pairs the analyzer consumes directly.
    for fn in program.funcs:
        cursor = getattr(fn, "clang_cursor", None)
        if cursor is None:
            continue
        def collect(c):
            for child in c.get_children():
                if child.kind == cindex.CursorKind.CALL_EXPR \
                        and child.referenced is not None:
                    usr = child.referenced.get_usr()
                    target = by_usr.get(usr)
                    if target is not None:
                        fn.calls.append((child.location.line - 1, "resolved",
                                         None, target))
                collect(child)
        collect(cursor)
    return tu


def default_compile_args(compile_commands):
    args = ["-std=c++20", "-I" + os.path.join(REPO_ROOT, "src")]
    if compile_commands and os.path.exists(compile_commands):
        try:
            with open(compile_commands, encoding="utf-8") as f:
                db = json.load(f)
            for entry in db:
                cmd = entry.get("command", "")
                extra = [a for a in cmd.split() if a.startswith(("-I", "-D",
                                                                 "-std="))]
                if extra:
                    return extra
        except (OSError, ValueError):
            pass
    return args


def find_compile_commands(explicit):
    if explicit:
        return explicit if os.path.exists(explicit) else None
    for candidate in ("build-lint/compile_commands.json",
                      "build/compile_commands.json"):
        full = os.path.join(REPO_ROOT, candidate)
        if os.path.exists(full):
            return full
    return None


# --- analysis drivers ----------------------------------------------------

def build_program_internal(file_texts):
    program = Program()
    for path, text in file_texts:
        parse_file_internal(path, text, program)
    detect_events(program)
    return program


def build_program_libclang(file_texts, compile_commands):
    index, reason = libclang_index()
    if index is None:
        return None, reason
    program = Program()
    args = default_compile_args(compile_commands)
    for path, text in file_texts:
        parse_file_libclang(index, path, text, program, args)
    # Line-level events are shared with the internal engine (fingerprint
    # parity).
    detect_events(program)
    return program, None


def run_analysis(file_texts, engine, compile_commands):
    """Returns (findings, roots, reach, engine_used)."""
    if engine in ("libclang", "auto"):
        result = build_program_libclang(file_texts, compile_commands)
        program, reason = result
        if program is not None:
            findings, roots, reach = analyze_program(program)
            return findings, roots, reach, "libclang"
        if engine == "libclang":
            print(f"astlint: libclang engine requested but unavailable "
                  f"({reason})", file=sys.stderr)
            sys.exit(2)
        print(f"(libclang unavailable — {reason}; internal tokenizer "
              "frontend used. Call graph and extents are textual, not "
              "AST-exact, on this machine.)")
    program = build_program_internal(file_texts)
    findings, roots, reach = analyze_program(program)
    return findings, roots, reach, "internal"


def read_zone_files(files):
    out = []
    for rel in files:
        full = os.path.join(REPO_ROOT, rel)
        if not os.path.exists(full):
            print(f"warning: no such file {rel}")
            continue
        with open(full, encoding="utf-8") as f:
            out.append((rel, f.read()))
    return out


def run_self_test():
    """The fixture pair is the analyzer's own regression test: the hazard
    fixture must reproduce its EXPECT-FINDING annotations exactly, and
    the clean fixture must stay at zero."""
    ok = True
    for fixture in (FIXTURE_PATH, CLEAN_FIXTURE_PATH):
        if not os.path.exists(fixture):
            print(f"self-test fixture missing: {fixture}")
            return 1
    rel = os.path.relpath(FIXTURE_PATH, REPO_ROOT)
    with open(FIXTURE_PATH, encoding="utf-8") as f:
        text = f.read()
    findings, _, _, _ = run_analysis([(rel, text)], "internal", None)
    found = {(f2.line_number, f2.check) for f2 in findings}
    expected = lintlib.expected_findings(text)
    for missing in sorted(expected - found):
        print(f"self-test FAIL: expected finding not produced: "
              f"{rel}:{missing[0]} [{missing[1]}]")
        ok = False
    for extra in sorted(found - expected):
        print(f"self-test FAIL: unexpected finding: "
              f"{rel}:{extra[0]} [{extra[1]}]")
        ok = False

    rel_clean = os.path.relpath(CLEAN_FIXTURE_PATH, REPO_ROOT)
    with open(CLEAN_FIXTURE_PATH, encoding="utf-8") as f:
        clean_text = f.read()
    clean_findings, roots, _, _ = run_analysis([(rel_clean, clean_text)],
                                               "internal", None)
    if not roots:
        print("self-test FAIL: clean fixture declared no TKRGS_HOT roots")
        ok = False
    for f2 in clean_findings:
        print(f"self-test FAIL: finding in the clean fixture: {f2.render()}")
        ok = False

    if ok:
        print(f"astlint self-test OK: {len(expected)} expected findings "
              f"produced over the hazard fixture, clean fixture at zero, "
              "NOLINT escape respected")
        return 0
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="verify the analyzer against the checked-in "
                             "fixture pair")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with the current findings "
                             "(review the diff: it must only shrink)")
    parser.add_argument("--engine", choices=("auto", "internal", "libclang"),
                        default="auto",
                        help="frontend selection (default: libclang when "
                             "importable, else internal)")
    parser.add_argument("--compile-commands", default=None,
                        help="explicit compile_commands.json path (libclang "
                             "engine)")
    parser.add_argument("--list-roots", action="store_true",
                        help="print the hot roots and reachable functions, "
                             "then exit")
    parser.add_argument("files", nargs="*",
                        help="restrict to these files (default: all of src/)")
    args = parser.parse_args()

    if args.self_test:
        return run_self_test()

    files = args.files or lintlib.zone_files(REPO_ROOT, ANALYSIS_ZONES)
    file_texts = read_zone_files(files)
    compile_commands = find_compile_commands(args.compile_commands)
    findings, roots, reach, engine = run_analysis(
        file_texts, args.engine, compile_commands)

    if args.list_roots:
        print(f"{len(roots)} hot roots ({engine} engine):")
        for fn in roots:
            print(f"  {fn.path}:{fn.start_line()}: {fn.qual}")
        print(f"{len(reach)} reachable functions:")
        for fn, chain in sorted(reach.values(),
                                key=lambda fc: (fc[0].path,
                                                fc[0].start_line())):
            print(f"  {fn.path}:{fn.start_line()}: {fn.qual}  "
                  f"(root {chain[0]})")
        return 0

    if args.update_baseline:
        lintlib.write_baseline(BASELINE_PATH, findings, BASELINE_HEADER,
                               ZERO_BASELINE_DIRS)
        print("baseline rewritten")
        return 0

    baseline = lintlib.load_baseline(BASELINE_PATH)
    for entry in sorted(baseline):
        if entry.startswith(ZERO_BASELINE_DIRS):
            print(f"astlint: baseline entry in a zero-baseline dir "
                  f"(src/mine, src/util must stay clean): {entry}")
            return 1
    new, stale, suppressed = lintlib.diff_against_baseline(findings, baseline)

    failed = False
    if new:
        failed = True
        print(f"astlint: {len(new)} new finding(s) on TKRGS_HOT paths:")
        for f2 in new:
            print(f2.render())
        print("\nFix the hazard, or justify it in place with "
              f"// NOLINT(hotpath: {JUSTIFY}).")
    if stale:
        failed = True
        print(f"astlint: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} (the baseline must only "
              "shrink — remove them):")
        for entry in stale:
            print(f"  {entry}")
    if not failed:
        print(f"astlint clean ({engine} engine): {len(file_texts)} files, "
              f"{len(roots)} hot roots, {len(reach)} reachable functions, "
              f"{suppressed} baselined finding(s), 0 new, 0 stale")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
