#!/usr/bin/env python3
"""Project-specific concurrency lint for the smq tree.

Encodes the repo conventions that generic tooling cannot check:

  order    every operation on a std::atomic must pass an explicit
           std::memory_order argument (operator forms like ++/+=/= are
           implicit seq_cst and are banned outright).
  seq-cst  memory_order_seq_cst is permitted only with an inline
           waiver comment stating why the full barrier is load-bearing:
               // smq-lint: seq-cst <reason>
  pin      a call to a function marked SMQ_REQUIRES_PIN (it dereferences
           epoch-retireable nodes) must sit lexically inside an
           EpochManager::Guard scope, inside another SMQ_REQUIRES_PIN
           function, or carry a `// smq-lint: no-pin <reason>` waiver.
           Only files naming EpochManager in code (not in comments or
           strings) are checked.
  pad      per-thread state stored in an array sized by num_threads must
           be cacheline-padded (Padded<T> / alignas). Waiver:
           `// smq-lint: no-pad <reason>`.
  rand     std::rand / srand / wall-clock seeding are banned in src/
           (runs must be reproducible from --seed). Waiver:
           `// smq-lint: rand-ok <reason>`.

A waiver comment covers its own line and the four lines that follow it.
The linter is purely lexical by design: no compiler, no third-party
packages, fast enough for a pre-commit hook.

Usage:
  tools/concurrency_lint.py [--root DIR] [--report FILE]
  tools/concurrency_lint.py --self-test [--root DIR]

Exit status: 0 when clean, 1 when violations were found, 2 on usage
errors. --self-test lints every fixture under tests/lint_fixtures/:
good_*.h must be clean, bad_<rule>_*.h must trip exactly <rule>.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

ATOMIC_OPS = (
    "load|store|exchange|compare_exchange_weak|compare_exchange_strong|"
    "fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|test_and_set|clear"
)

WAIVER_RE = re.compile(r"//\s*smq-lint:\s*(seq-cst|no-pin|no-pad|rand-ok)\b")
WAIVER_WINDOW = 4  # a waiver covers its line plus the next N lines

ATOMIC_DECL_RE = re.compile(r"std::atomic<[^;{}]*?>\s*&?\s*(\w+)")
ATOMIC_FLAG_DECL_RE = re.compile(r"std::atomic_flag\s+(\w+)")
ATOMIC_CALL_RE = re.compile(r"(\w+)\s*(?:\.|->)\s*(" + ATOMIC_OPS + r")\s*\(")
ATOMIC_TYPE_ON_LINE_RE = re.compile(r"std::atomic")

SEQ_CST_RE = re.compile(r"memory_order_seq_cst")

PIN_MARKER = "SMQ_REQUIRES_PIN"
GUARD_RE = re.compile(r"EpochManager::[Gg]uard\b")

VECTOR_DECL_RE = re.compile(r"std::vector<\s*(.+?)\s*>\s+(\w+)")
PAD_EXEMPT_ELEM_RE = re.compile(
    r"Padded<|alignas|unique_ptr|shared_ptr|jthread|std::thread")

RAND_RE = re.compile(
    r"std::rand\b|\bsrand\s*\(|std::time\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)|"
    r"random_device")


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def mask_comments_and_strings(text: str) -> str:
    """Replace comment and string literal contents with spaces, keeping
    newlines so positions and line numbers survive."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.masked = mask_comments_and_strings(text)
        self.line_starts = [0]
        for m in re.finditer("\n", text):
            self.line_starts.append(m.end())
        # rule -> set of line numbers covered by a waiver
        self.waivers: dict[str, set[int]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = WAIVER_RE.search(line)
            if m:
                covered = self.waivers.setdefault(m.group(1), set())
                covered.update(range(lineno, lineno + WAIVER_WINDOW + 1))
        # brace depth *before* each character of the masked text
        self.depth = [0] * (len(self.masked) + 1)
        d = 0
        for i, ch in enumerate(self.masked):
            self.depth[i] = d
            if ch == "{":
                d += 1
            elif ch == "}":
                d = max(0, d - 1)
        self.depth[len(self.masked)] = d
        # per-file atomic names (for the operator-form ban)
        self.atomic_names = set(ATOMIC_DECL_RE.findall(self.masked))
        self.atomic_names.update(ATOMIC_FLAG_DECL_RE.findall(self.masked))

    def line_of(self, pos: int) -> int:
        lo, hi = 0, len(self.line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def waived(self, rule: str, lineno: int) -> bool:
        return lineno in self.waivers.get(rule, set())

    def enclosing_block_end(self, pos: int) -> int:
        """Position of the '}' closing the block that contains `pos`.

        depth[] holds the depth *before* each character, so the closing
        brace of a block whose interior sits at depth `base` is the
        first '}' whose before-depth equals `base`.
        """
        base = self.depth[pos]
        if base == 0:
            return len(self.masked)
        for i in range(pos, len(self.masked)):
            if self.masked[i] == "}" and self.depth[i] == base:
                return i
        return len(self.masked)


def balanced_args(masked: str, open_paren: int) -> str:
    """Argument text of the call whose '(' is at open_paren."""
    depth = 0
    for i in range(open_paren, len(masked)):
        if masked[i] == "(":
            depth += 1
        elif masked[i] == ")":
            depth -= 1
            if depth == 0:
                return masked[open_paren + 1 : i]
    return masked[open_paren + 1 :]


def find_pin_marked(src: SourceFile):
    """(name, def_start, body_end) for each SMQ_REQUIRES_PIN function.

    The marker sits between the parameter list and the body (or the ';'
    of a declaration): `T name(args) [const] [noexcept] SMQ_REQUIRES_PIN`.
    """
    results = []
    for m in re.finditer(re.escape(PIN_MARKER), src.masked):
        # Walk back over const/noexcept/whitespace to the ')' closing
        # the parameter list.
        j = m.start() - 1
        while j >= 0:
            tail = src.masked[max(0, j - 9) : j + 1]
            if src.masked[j].isspace():
                j -= 1
            elif tail.endswith("const"):
                j -= len("const")
            elif tail.endswith("noexcept"):
                j -= len("noexcept")
            else:
                break
        if j < 0 or src.masked[j] != ")":
            continue  # the macro definition itself, or something odd
        depth = 0
        while j >= 0:
            if src.masked[j] == ")":
                depth += 1
            elif src.masked[j] == "(":
                depth -= 1
                if depth == 0:
                    break
            j -= 1
        k = j - 1
        while k >= 0 and src.masked[k].isspace():
            k -= 1
        name_end = k + 1
        while k >= 0 and (src.masked[k].isalnum() or src.masked[k] == "_"):
            k -= 1
        name = src.masked[k + 1 : name_end]
        if not name:
            continue
        # Body span: the '{' after the marker (if this is a definition).
        body_end = m.end()
        t = m.end()
        while t < len(src.masked) and src.masked[t].isspace():
            t += 1
        if t < len(src.masked) and src.masked[t] == "{":
            d = 0
            for i in range(t, len(src.masked)):
                if src.masked[i] == "{":
                    d += 1
                elif src.masked[i] == "}":
                    d -= 1
                    if d == 0:
                        body_end = i + 1
                        break
        results.append((name, k + 1, body_end))
    return results


def lint_file(src: SourceFile, global_atomics: set, pin_marked_names: set,
              check_atomics: bool) -> list:
    violations = []
    masked = src.masked

    # --- order: atomic ops must pass an explicit memory_order ----------
    if check_atomics:
        for m in ATOMIC_CALL_RE.finditer(masked):
            receiver, op = m.group(1), m.group(2)
            if receiver not in global_atomics:
                continue
            open_paren = masked.index("(", m.end() - 1)
            args = balanced_args(masked, open_paren)
            lineno = src.line_of(m.start())
            if "memory_order" not in args:
                violations.append(Violation(
                    src.path, lineno, "order",
                    f"atomic op `{receiver}.{op}(...)` without an explicit "
                    f"std::memory_order argument (implicit seq_cst)"))

        # operator forms on atomics declared in this file: ++ -- += etc.
        # and plain assignment, all of which are implicit seq_cst.
        # Names that are *also* declared as plain variables in this file
        # (e.g. a local `epoch` next to an atomic member `epoch`) are
        # skipped — a lexical pass cannot tell the two apart.
        for name in src.atomic_names:
            has_plain_decl = False
            for pd in re.finditer(
                    r"[\w>*&\]]\s+" + re.escape(name) + r"\s*[=;{]", masked):
                decl_line_no = src.line_of(pd.start())
                start = src.line_starts[decl_line_no - 1]
                end = (src.line_starts[decl_line_no]
                       if decl_line_no < len(src.line_starts) else len(masked))
                if "atomic" not in masked[start:end]:
                    has_plain_decl = True
                    break
            if has_plain_decl:
                continue
            # Plain assignment is only checked for unqualified uses:
            # `x.name = v` may be a plain field of another type that
            # happens to share the atomic's name.
            op_re = re.compile(
                r"\b" + re.escape(name) + r"\s*(\+\+|--|[+\-|&^]=)"
                r"|(?<![.\w])(?<!->)" + re.escape(name) + r"\s*=(?![=])"
                r"|(\+\+|--)\s*" + re.escape(name) + r"\b")
            for m in op_re.finditer(masked):
                lineno = src.line_of(m.start())
                line_text = masked[src.line_starts[lineno - 1]:
                                   src.line_starts[lineno]
                                   if lineno < len(src.line_starts)
                                   else len(masked)]
                # Skip declarations/initialisations of the atomic itself.
                if ATOMIC_TYPE_ON_LINE_RE.search(line_text):
                    continue
                violations.append(Violation(
                    src.path, lineno, "order",
                    f"operator form on atomic `{name}` (implicit seq_cst); "
                    f"use .load/.store/.fetch_* with an explicit order"))

        # --- seq-cst: full barriers need a written justification -------
        for m in SEQ_CST_RE.finditer(masked):
            lineno = src.line_of(m.start())
            if not src.waived("seq-cst", lineno):
                violations.append(Violation(
                    src.path, lineno, "seq-cst",
                    "memory_order_seq_cst without a "
                    "`// smq-lint: seq-cst <reason>` waiver"))

    # --- pin: marked calls need a Guard scope --------------------------
    # Gate on code, not prose: a comment naming EpochManager must not
    # switch the rule on for every `find(`/`insert(` in the file.
    if "EpochManager" in masked and pin_marked_names:
        defs = find_pin_marked(src)
        def_spans = [(start, end) for (_n, start, end) in defs]
        guard_spans = []
        for g in GUARD_RE.finditer(masked):
            guard_spans.append((g.start(), src.enclosing_block_end(g.start())))

        def inside(spans, pos):
            return any(s <= pos < e for (s, e) in spans)

        for name in sorted(pin_marked_names):
            call_re = re.compile(r"(?<![\w:~])" + re.escape(name) + r"\s*\(")
            for m in call_re.finditer(masked):
                pos = m.start()
                if inside(def_spans, pos):
                    continue  # the definition itself, or inside a marked body
                lineno = src.line_of(pos)
                if inside(guard_spans, pos):
                    continue
                if src.waived("no-pin", lineno):
                    continue
                violations.append(Violation(
                    src.path, lineno, "pin",
                    f"call to `{name}` (SMQ_REQUIRES_PIN) outside an "
                    f"EpochManager::Guard scope"))

    # --- pad: per-thread arrays must be cacheline padded ---------------
    for m in VECTOR_DECL_RE.finditer(masked):
        elem, name = m.group(1), m.group(2)
        if PAD_EXEMPT_ELEM_RE.search(elem):
            continue
        sized_by_threads = re.search(
            r"\b" + re.escape(name) +
            r"\s*(?:\(|\{|\.resize\s*\(|\.reserve\s*\()\s*[^;)]*num_threads",
            masked)
        if not sized_by_threads:
            continue
        lineno = src.line_of(m.start())
        if src.waived("no-pad", lineno):
            continue
        violations.append(Violation(
            src.path, lineno, "pad",
            f"`{name}` holds per-thread state (sized by num_threads) but "
            f"`{elem}` is not Padded<>/alignas-ed (false sharing)"))

    # --- rand: reproducibility -----------------------------------------
    for m in RAND_RE.finditer(masked):
        lineno = src.line_of(m.start())
        if src.waived("rand-ok", lineno):
            continue
        violations.append(Violation(
            src.path, lineno, "rand",
            "std::rand / wall-clock seeding is banned in src/ "
            "(seed through support/rng.h so runs reproduce)"))

    return violations


# The default scan set, spelled out so a new src/ subsystem must be
# added here deliberately (and a renamed one fails loudly instead of
# silently dropping out of the lint).
SCAN_DIRS = [
    "algorithms", "core", "graph", "queues", "rank", "registry",
    "sched", "service", "support", "tuning",
]


def collect_sources(root: str):
    files = []
    src_dir = os.path.join(root, "src")
    for subdir in SCAN_DIRS:
        scan_root = os.path.join(src_dir, subdir)
        if not os.path.isdir(scan_root):
            raise SystemExit(
                f"concurrency_lint: scan dir {scan_root} is missing; "
                "update SCAN_DIRS in tools/concurrency_lint.py")
        for dirpath, _dirs, names in os.walk(scan_root):
            for name in sorted(names):
                if name.endswith((".h", ".hpp", ".cc", ".cpp")):
                    files.append(os.path.join(dirpath, name))
    # Anything sitting directly in src/ (or in a dir not listed above)
    # would dodge the lint: fail so the list stays exhaustive.
    for dirpath, dirs, names in os.walk(src_dir):
        if dirpath == src_dir:
            unlisted = sorted(set(dirs) - set(SCAN_DIRS))
            if unlisted:
                raise SystemExit(
                    f"concurrency_lint: src/ dirs {unlisted} are not in "
                    "SCAN_DIRS; add them in tools/concurrency_lint.py")
            stray = [n for n in names
                     if n.endswith((".h", ".hpp", ".cc", ".cpp"))]
            if stray:
                raise SystemExit(
                    f"concurrency_lint: sources {sorted(stray)} sit "
                    "directly in src/; move them into a SCAN_DIRS subdir")
        break
    return files


def run_lint(paths, atomic_dirs=None):
    sources = []
    for path in paths:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            sources.append(SourceFile(path, f.read()))

    global_atomics = set()
    pin_marked = set()
    for src in sources:
        global_atomics |= src.atomic_names
        for (name, _s, _e) in find_pin_marked(src):
            if name != "SMQ_REQUIRES_PIN":
                pin_marked.add(name)

    violations = []
    for src in sources:
        check_atomics = True
        if atomic_dirs is not None:
            check_atomics = any(d in src.path for d in atomic_dirs)
        violations.extend(
            lint_file(src, global_atomics, pin_marked, check_atomics))
    return violations


def self_test(root: str) -> int:
    fixtures_dir = os.path.join(root, "tests", "lint_fixtures")
    if not os.path.isdir(fixtures_dir):
        print(f"self-test: no fixtures directory at {fixtures_dir}",
              file=sys.stderr)
        return 2
    failures = 0
    count = 0
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith((".h", ".hpp", ".cc", ".cpp")):
            continue
        path = os.path.join(fixtures_dir, name)
        violations = run_lint([path])
        count += 1
        if name.startswith("good_"):
            if violations:
                failures += 1
                print(f"FAIL {name}: expected clean, got:")
                for v in violations:
                    print(f"  {v}")
            else:
                print(f"ok   {name}: clean as expected")
        elif name.startswith("bad_"):
            rule = name.split("_")[1].replace(".h", "")
            hit = [v for v in violations if v.rule == rule]
            if not hit:
                failures += 1
                print(f"FAIL {name}: expected a [{rule}] violation, got "
                      f"{[str(v) for v in violations] or 'nothing'}")
            else:
                print(f"ok   {name}: tripped [{rule}] as expected")
        else:
            failures += 1
            print(f"FAIL {name}: fixture names must start with good_ or bad_")
    if count == 0:
        print("self-test: no fixtures found", file=sys.stderr)
        return 2
    print(f"self-test: {count - failures}/{count} fixtures behaved")
    return 1 if failures else 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    parser.add_argument("--report", default=None,
                        help="also write the violation list to this file")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the fixtures under tests/lint_fixtures/")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(args.root)

    paths = collect_sources(args.root)
    if not paths:
        print(f"no sources found under {args.root}/src", file=sys.stderr)
        return 2
    violations = run_lint(paths)
    report_lines = [str(v) for v in violations]
    for line in report_lines:
        print(line)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write("\n".join(report_lines) + ("\n" if report_lines else ""))
            f.write(f"# {len(violations)} violation(s) across "
                    f"{len(paths)} file(s)\n")
    print(f"{len(violations)} violation(s) across {len(paths)} file(s)",
          file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
