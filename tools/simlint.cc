/**
 * @file
 * simlint — the dsasim determinism and architecture linter.
 *
 * A standalone checker (no libclang) that enforces the project rules
 * that make the simulator bit-deterministic: figure CSVs and
 * chaos-soak replay hashes are only reproducible because sim code
 * never consults host time, host entropy, or unordered-container
 * iteration order. v2 grows the per-file token scanner into a
 * project-wide engine: a lightweight symbol index (classes, methods,
 * fields, free functions, with const-ness), an include graph across
 * src/ bench/ tools/, and a name-based call-graph approximation that
 * powers flow-aware rules. The rules (see DESIGN.md §9 and §14):
 *
 *   wall-clock      no host time sources (std::chrono clocks, time(),
 *                   clock_gettime(), ...) in tick-affecting code
 *                   (src/sim, src/dsa, src/mem); simulated time comes
 *                   from Simulation::now().
 *   entropy         no host entropy (rand(), std::random_device,
 *                   std::mt19937, ...) in tick-affecting code outside
 *                   sim/random.hh; use dsasim::Rng with an explicit
 *                   seed.
 *   unordered-iter  no range-for / begin()/end() iteration over
 *                   std::unordered_map / std::unordered_set in
 *                   tick-affecting code — iteration order is
 *                   unspecified and silently reorders events between
 *                   runs or standard libraries. Keyed lookups
 *                   (find/count/operator[]) are fine.
 *   raw-alloc       no raw new/delete/malloc in tick-affecting code;
 *                   use the event arena, InlineCallback SBO,
 *                   containers, or smart pointers (placement new is
 *                   allowed — it is how the arenas are built).
 *   cross-domain    no host threading primitives (std::mutex,
 *                   std::atomic, std::thread, std::condition_variable,
 *                   ..., thread_local) in tick-affecting code outside
 *                   sim/partition.* — cross-domain interaction goes
 *                   through PartitionChannel::post() so event order
 *                   stays canonical; ad-hoc synchronization makes
 *                   delivery order depend on the worker-thread count
 *                   (DESIGN.md §11).
 *   tenant-rng      no stateful Rng in per-tenant traffic code
 *                   (sim/traffic.*) — arrival streams must be
 *                   counter-based (CounterRng::at(k)) so the k-th
 *                   variate is a pure function of (seed, tenant, k),
 *                   independent of event interleaving and
 *                   DSASIM_PARTITIONS (DESIGN.md §12).
 *   banned-fn       no unbounded C string functions (strcpy, strcat,
 *                   sprintf, vsprintf, gets) anywhere.
 *   volatile-sync   no 'volatile' anywhere — it is not a
 *                   synchronization primitive; use std::atomic or the
 *                   kernel's deterministic event order.
 *   include-hygiene headers carry a DSASIM_<PATH>_HH include guard
 *                   matching their path, and no #include crosses a
 *                   parent directory ("../").
 *   layer-hygiene   the include graph respects the layer order
 *                   sim < mem < ops < cpu < dsa < cbdma < driver <
 *                   dml < dto < apps (lower layers must not include
 *                   higher ones: sim/ never sees driver/ or dml/),
 *                   and mem/ internals (cache, page_table, phys_mem,
 *                   iommu) stay behind the facades (mem_system,
 *                   address_space, types, remote_port, tlb).
 *   observer-purity code reachable from a declared observer surface
 *                   (`// simlint:observer` on the declaration:
 *                   stream-hash readers, telemetry samplers, --check
 *                   reporters) may not write namespace-scope state,
 *                   const_cast, or call methods that every indexed
 *                   candidate says are non-const — observers must not
 *                   perturb the event stream (DESIGN.md §14).
 *   domain-escape   a cross-domain accessor result (domainSim(...) or
 *                   any method marked `// simlint:domain-accessor`)
 *                   may be used inline but not stored through a
 *                   reference/pointer binding, and no non-const
 *                   `Simulation *` field may live outside the
 *                   partition boundary (sim/partition.*,
 *                   mem/remote_port.*, driver/cluster.*) — stored
 *                   peer-domain handles bypass PartitionChannel
 *                   ordering (DESIGN.md §11).
 *   seed-flow       stateful Rng reachable (via the call graph) from
 *                   open-loop traffic entry points (functions defined
 *                   in sim/traffic.* or marked
 *                   `// simlint:traffic-entry`) — the flow-aware
 *                   generalization of tenant-rng (DESIGN.md §12).
 *
 * Suppressions: `// simlint:allow(rule)` (comma-separated list) on
 * the offending line, or on its own line to cover the next line.
 * Markers (`simlint:observer`, `simlint:traffic-entry`,
 * `simlint:domain-accessor`) follow the same placement grammar and
 * tag the declaration they cover.
 *
 * Usage: simlint [options] PATH...
 *   PATH          files or directories (recursed: .cc/.hh/.cpp/.h)
 *   --treat-as=P  classify the single input file as if it lived at
 *                 the given repo-relative path (fixture tests)
 *   --root=DIR    strip DIR/ from input paths when classifying them
 *                 (multi-file fixture trees)
 *   --fix         apply mechanical fixes in place (include-guard
 *                 renames); other rules print a `note:` only
 *   --sarif=FILE  also write SARIF 2.1.0 for code-scanning upload
 *   --list-rules  print the rule table and exit
 *
 * Exit status: 0 clean, 1 diagnostics were reported, 2 usage or
 * internal error (unreadable input, parser failure).
 */

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace
{

struct Diagnostic
{
    std::string path;
    int line = 0;
    int col = 0;
    std::string rule;
    std::string message;
    std::string note;      ///< optional fix suggestion
    bool advisory = false; ///< note-level: printed, never fails
};

struct Token
{
    std::string text;
    int line = 0;
    int col = 0;
    bool isIdent = false;
};

/** Per-line rule suppressions parsed from simlint:allow comments. */
struct Suppressions
{
    /// line -> rules allowed on that line
    std::map<int, std::set<std::string>> onLine;

    bool
    allows(int line, const std::string &rule) const
    {
        auto it = onLine.find(line);
        if (it == onLine.end())
            return false;
        return it->second.count(rule) > 0 ||
               it->second.count("*") > 0;
    }
};

/** Declaration markers parsed from simlint:<kind> comments. The set
 * holds the line each marker covers (its own line for a trailing
 * comment, the next line for a standalone one), matched against the
 * declaration's [start, header-end] line span. */
struct Markers
{
    std::set<int> observer;
    std::set<int> trafficEntry;
    std::set<int> domainAccessor;

    static bool
    covers(const std::set<int> &s, int lo, int hi)
    {
        auto it = s.lower_bound(lo);
        return it != s.end() && *it <= hi;
    }
};

/** One quoted #include directive. */
struct IncludeRef
{
    std::string target;
    int line = 0;
    int col = 0;
};

/** A source file scanned into comment-free tokens plus raw lines. */
struct ScannedFile
{
    std::string path;        ///< path used for reporting
    std::string logicalPath; ///< path used for rule classification
    std::vector<std::string> rawLines;
    std::vector<Token> tokens;
    Suppressions allow;
    Markers marks;
    std::vector<IncludeRef> includes;
};

/** Parse `simlint:allow(a,b)` out of one comment's text. */
void
parseAllow(const std::string &comment, int line, bool commentOnly,
           Suppressions &out)
{
    const std::string key = "simlint:allow(";
    std::size_t pos = comment.find(key);
    if (pos == std::string::npos)
        return;
    std::size_t open = pos + key.size();
    std::size_t close = comment.find(')', open);
    if (close == std::string::npos)
        return;
    std::stringstream list(comment.substr(open, close - open));
    std::string rule;
    // A comment alone on its line covers the next line; a trailing
    // comment covers its own line.
    const int target = commentOnly ? line + 1 : line;
    while (std::getline(list, rule, ',')) {
        std::size_t b = rule.find_first_not_of(" \t");
        std::size_t e = rule.find_last_not_of(" \t");
        if (b != std::string::npos)
            out.onLine[target].insert(rule.substr(b, e - b + 1));
    }
}

/** Parse declaration markers out of one comment's text. */
void
parseMarkers(const std::string &comment, int line, bool commentOnly,
             Markers &out)
{
    const int target = commentOnly ? line + 1 : line;
    if (comment.find("simlint:observer") != std::string::npos)
        out.observer.insert(target);
    if (comment.find("simlint:traffic-entry") != std::string::npos)
        out.trafficEntry.insert(target);
    if (comment.find("simlint:domain-accessor") != std::string::npos)
        out.domainAccessor.insert(target);
}

/**
 * Strip comments and string/char literal contents (preserving line
 * structure), collect suppression/marker comments, tokenize, and
 * record quoted #include directives.
 */
ScannedFile
scanFile(const std::string &path, const std::string &logical_path,
         const std::string &text)
{
    ScannedFile out;
    out.path = path;
    out.logicalPath = logical_path;

    // Split raw lines (keeping them for --fix rewrites).
    {
        std::string cur;
        for (char ch : text) {
            if (ch == '\n') {
                out.rawLines.push_back(cur);
                cur.clear();
            } else {
                cur += ch;
            }
        }
        if (!cur.empty())
            out.rawLines.push_back(cur);
    }

    // Preprocessor lines (and their backslash continuations) are
    // invisible to the token rules: `#include <new>` is not a raw
    // allocation. include-hygiene and the include graph read
    // rawLines directly.
    std::vector<bool> ppLine(out.rawLines.size() + 1, false);
    {
        bool cont = false;
        for (std::size_t li = 0; li < out.rawLines.size(); ++li) {
            const std::string &l = out.rawLines[li];
            std::size_t h = l.find_first_not_of(" \t");
            if (cont || (h != std::string::npos && l[h] == '#'))
                ppLine[li] = true;
            cont = ppLine[li] && !l.empty() && l.back() == '\\';
        }
    }

    // Build the code view: same length as text, comments and literal
    // bodies blanked.
    std::string code(text.size(), ' ');
    enum class St
    {
        Code,
        LineComment,
        BlockComment,
        Str,
        Chr,
        RawStr
    } st = St::Code;
    std::string comment;     // text of the comment being scanned
    int commentLine = 1;     // line the comment started on
    bool lineHadCode = false;
    std::string rawDelim;    // raw-string delimiter incl. )..."
    int line = 1;
    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
          case St::Code:
            if (c == '/' && n == '/') {
                st = St::LineComment;
                comment.clear();
                commentLine = line;
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::BlockComment;
                comment.clear();
                commentLine = line;
                ++i;
            } else if (c == '"') {
                // R"delim( ... )delim"
                std::size_t r = i;
                bool raw = r > 0 && text[r - 1] == 'R' &&
                           (r < 2 || !(std::isalnum(
                                           static_cast<unsigned char>(
                                               text[r - 2])) ||
                                       text[r - 2] == '_'));
                if (raw) {
                    std::size_t p = i + 1;
                    std::string d;
                    while (p < text.size() && text[p] != '(')
                        d += text[p++];
                    rawDelim = ")" + d + "\"";
                    st = St::RawStr;
                    code[i] = '"';
                } else {
                    st = St::Str;
                    code[i] = '"';
                }
            } else if (c == '\'') {
                // A quote right after an alphanumeric is a digit
                // separator (1'000) or literal suffix, not the start
                // of a char literal.
                if (i > 0 && std::isalnum(static_cast<unsigned char>(
                                 text[i - 1]))) {
                    code[i] = ' ';
                } else {
                    st = St::Chr;
                    code[i] = '\'';
                }
            } else {
                code[i] = c;
                if (!std::isspace(static_cast<unsigned char>(c)))
                    lineHadCode = true;
            }
            break;
          case St::LineComment:
            if (c == '\n') {
                parseAllow(comment, commentLine, !lineHadCode,
                           out.allow);
                parseMarkers(comment, commentLine, !lineHadCode,
                             out.marks);
                st = St::Code;
            } else {
                comment += c;
            }
            break;
          case St::BlockComment:
            if (c == '*' && n == '/') {
                parseAllow(comment, commentLine, !lineHadCode,
                           out.allow);
                parseMarkers(comment, commentLine, !lineHadCode,
                             out.marks);
                st = St::Code;
                ++i;
            } else {
                comment += c;
            }
            break;
          case St::Str:
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                code[i] = '"';
                st = St::Code;
            }
            break;
          case St::Chr:
            if (c == '\\') {
                ++i;
            } else if (c == '\'') {
                code[i] = '\'';
                st = St::Code;
            }
            break;
          case St::RawStr:
            if (text.compare(i, rawDelim.size(), rawDelim) == 0) {
                i += rawDelim.size() - 1;
                code[i] = '"';
                st = St::Code;
            }
            break;
        }
        if (c == '\n') {
            code[i] = '\n';
            lineHadCode = false;
            ++line;
        }
    }
    if (st == St::LineComment || st == St::BlockComment) {
        parseAllow(comment, commentLine, !lineHadCode, out.allow);
        parseMarkers(comment, commentLine, !lineHadCode, out.marks);
    }

    // Tokenize the code view.
    line = 1;
    int col = 1;
    for (std::size_t i = 0; i < code.size(); ++i, ++col) {
        char c = code[i];
        if (c == '\n') {
            ++line;
            col = 0;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        if (static_cast<std::size_t>(line) <= out.rawLines.size() &&
            ppLine[static_cast<std::size_t>(line) - 1])
            continue;
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            Token t;
            t.line = line;
            t.col = col;
            t.isIdent = true;
            while (i < code.size() &&
                   (std::isalnum(static_cast<unsigned char>(code[i])) ||
                    code[i] == '_')) {
                t.text += code[i];
                ++i;
                ++col;
            }
            --i;
            --col;
            out.tokens.push_back(std::move(t));
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
            // Numbers (incl. suffixes/hex) collapse to one token.
            Token t;
            t.line = line;
            t.col = col;
            t.text = "0";
            while (i < code.size() &&
                   (std::isalnum(static_cast<unsigned char>(code[i])) ||
                    code[i] == '.' || code[i] == '\'')) {
                ++i;
                ++col;
            }
            --i;
            --col;
            out.tokens.push_back(std::move(t));
        } else {
            Token t;
            t.line = line;
            t.col = col;
            t.text = c;
            // Fuse :: into one token; everything else single-char.
            if (c == ':' && i + 1 < code.size() &&
                code[i + 1] == ':') {
                t.text = "::";
                ++i;
                ++col;
            }
            out.tokens.push_back(std::move(t));
        }
    }

    // Quoted #include directives (the include graph's edges).
    for (std::size_t li = 0; li < out.rawLines.size(); ++li) {
        const std::string &raw = out.rawLines[li];
        std::size_t h = raw.find_first_not_of(" \t");
        if (h == std::string::npos || raw[h] != '#')
            continue;
        if (raw.find("include", h) == std::string::npos)
            continue;
        std::size_t q = raw.find('"');
        if (q == std::string::npos)
            continue;
        std::size_t q2 = raw.find('"', q + 1);
        if (q2 == std::string::npos)
            continue;
        out.includes.push_back(
            IncludeRef{raw.substr(q + 1, q2 - q - 1),
                       static_cast<int>(li) + 1,
                       static_cast<int>(q) + 1});
    }
    return out;
}

/** Normalize to forward slashes and strip leading "./". */
std::string
normalPath(std::string p)
{
    std::replace(p.begin(), p.end(), '\\', '/');
    while (p.rfind("./", 0) == 0)
        p = p.substr(2);
    return p;
}

/** Tick-affecting / hot-path directories. */
bool
isHotPath(const std::string &p)
{
    return p.find("src/sim/") != std::string::npos ||
           p.find("src/dsa/") != std::string::npos ||
           p.find("src/mem/") != std::string::npos;
}

bool
isHeader(const std::string &p)
{
    return p.size() > 3 && (p.ends_with(".hh") || p.ends_with(".h"));
}

/**
 * Expected include guard: DSASIM_<PATH>_HH, where <PATH> is the path
 * below the repo root with a leading src/ stripped (src/sim/x.hh ->
 * DSASIM_SIM_X_HH, bench/common.hh -> DSASIM_BENCH_COMMON_HH). Works
 * for absolute inputs by anchoring on the last src/bench/tools/tests
 * path component.
 */
std::string
expectedGuard(const std::string &p)
{
    std::string rel = normalPath(p);
    auto anchor = [&rel](const std::string &dir, bool keep) {
        const std::string mid = "/" + dir + "/";
        std::size_t pos = rel.rfind(mid);
        if (pos != std::string::npos) {
            rel = rel.substr(keep ? pos + 1 : pos + mid.size());
            return true;
        }
        if (rel.rfind(dir + "/", 0) == 0) {
            if (!keep)
                rel = rel.substr(dir.size() + 1);
            return true;
        }
        return false;
    };
    if (!anchor("src", false)) {
        anchor("bench", true) || anchor("tools", true) ||
            anchor("tests", true) || anchor("examples", true);
    }
    std::string g = "DSASIM_";
    for (char c : rel) {
        g += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
    }
    return g;
}

// ==================== symbol index ====================

/** One call site inside a function body (name-based). */
struct CallRef
{
    std::string name;
    bool memberForm = false; ///< obj.f(...) / ptr->f(...)
    bool qualified = false;  ///< X::f(...)
    std::string qualHead;    ///< X for qualified calls
};

/** A function or method declaration/definition. */
struct FuncRecord
{
    std::string cls;  ///< enclosing class ("" = free function)
    std::string name;
    std::string qual; ///< cls.empty() ? name : cls + "::" + name
    int line = 0;     ///< of the name token
    int col = 0;
    int startLine = 0;     ///< first token of the declaration
    int headerEndLine = 0; ///< line of the '{', ';' or '=' header end
    bool isConst = false;
    bool hasBody = false;
    std::size_t bodyBegin = 0; ///< token index just inside '{'
    std::size_t bodyEnd = 0;   ///< token index of the closing '}'
    bool observerMarked = false;
    bool trafficMarked = false;
    bool accessorMarked = false;
    std::vector<CallRef> calls;
    std::size_t fileIdx = 0; ///< set when the project index is built
};

/** A class-scope data member. */
struct FieldRecord
{
    std::string cls;
    std::string name;
    int line = 0;
    int col = 0;
    bool simPtr = false;    ///< declared `Simulation *`
    bool constQual = false; ///< any `const` in the declaration head
    /** Declared `stats::Counter`/`stats::Gauge` (value or ref). */
    bool counterTyped = false;
};

/** A namespace-scope variable. */
struct GlobalRecord
{
    std::string name;
    int line = 0;
    bool mutableVar = false; ///< no const/constexpr in the head
};

struct FileSymbols
{
    std::vector<FuncRecord> funcs;
    std::vector<FieldRecord> fields;
    std::vector<GlobalRecord> globals;
};

/**
 * Heuristic structural parser over the token stream. Not a C++ front
 * end: it recovers just enough structure for the flow-aware rules —
 * namespace/class nesting, method const-ness, function body token
 * ranges, class-scope fields and namespace-scope variables — and
 * errs toward recording nothing when a construct is too exotic to
 * classify.
 */
class StructureParser
{
  public:
    explicit StructureParser(const ScannedFile &file) : f(file) {}

    FileSymbols
    run()
    {
        i = 0;
        while (i < f.tokens.size()) {
            const std::size_t before = i;
            statement();
            if (i == before)
                ++i; // never stall on unrecognized syntax
        }
        return std::move(out);
    }

  private:
    const ScannedFile &f;
    FileSymbols out;
    std::size_t i = 0;

    struct Scope
    {
        bool isClass = false;
        std::string name; ///< class name ("" for namespace/linkage)
    };
    std::vector<Scope> scopes;

    const std::string &
    tok(std::size_t k) const
    {
        static const std::string empty;
        return k < f.tokens.size() ? f.tokens[k].text : empty;
    }

    bool
    ident(std::size_t k) const
    {
        return k < f.tokens.size() && f.tokens[k].isIdent;
    }

    std::string
    curClass() const
    {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
            if (it->isClass)
                return it->name;
        return "";
    }

    /** Skip past a balanced group whose opener is at i. */
    void
    skipBalanced(const char *open, const char *close)
    {
        int depth = 0;
        while (i < f.tokens.size()) {
            if (tok(i) == open) {
                ++depth;
            } else if (tok(i) == close && --depth == 0) {
                ++i;
                return;
            }
            ++i;
        }
    }

    /** Skip to just past the next ';' at bracket depth zero. */
    void
    skipToSemi()
    {
        int depth = 0;
        while (i < f.tokens.size()) {
            const std::string &t = tok(i);
            if (t == "(" || t == "{" || t == "[") {
                ++depth;
            } else if (t == ")" || t == "}" || t == "]") {
                --depth;
            } else if (t == ";" && depth <= 0) {
                ++i;
                return;
            }
            ++i;
        }
    }

    static bool
    isDeclKeyword(const std::string &t)
    {
        static const std::set<std::string> kw = {
            "const",    "constexpr", "consteval", "constinit",
            "static",   "inline",    "virtual",   "explicit",
            "mutable",  "typename",  "unsigned",  "signed",
            "long",     "short",     "int",       "char",
            "bool",     "float",     "double",    "void",
            "auto",     "struct",    "class",     "enum",
            "register", "extern",    "typedef",   "co_await",
            "requires", "concept",   "final",     "override",
            "noexcept", "alignas",   "thread_local"};
        return kw.count(t) > 0;
    }

    /** Statement dispatcher at namespace/class scope. */
    void
    statement()
    {
        const std::string &t = tok(i);
        if (t == ";") {
            ++i;
            return;
        }
        if (t == "}") {
            if (!scopes.empty())
                scopes.pop_back();
            ++i;
            return;
        }
        if (t == "namespace") {
            parseNamespace();
            return;
        }
        if (t == "class" || t == "struct" || t == "union") {
            parseClass();
            return;
        }
        if (t == "enum") {
            skipEnum();
            return;
        }
        if (t == "using" || t == "typedef" || t == "friend" ||
            t == "static_assert") {
            skipToSemi();
            return;
        }
        if (t == "extern") {
            parseExtern();
            return;
        }
        if (t == "template") {
            ++i;
            if (tok(i) == "<")
                skipBalanced("<", ">");
            return; // the declaration that follows parses normally
        }
        if ((t == "public" || t == "private" || t == "protected") &&
            tok(i + 1) == ":") {
            i += 2;
            return;
        }
        parseDecl();
    }

    void
    parseNamespace()
    {
        ++i; // 'namespace'
        if (tok(i) == "[")
            skipBalanced("[", "]"); // attributes
        std::size_t nameStart = i;
        while (ident(i) || tok(i) == "::")
            ++i;
        if (tok(i) == "{") {
            scopes.push_back(Scope{});
            ++i;
        } else {
            i = nameStart;
            skipToSemi(); // namespace alias / using-directive tail
        }
    }

    void
    parseExtern()
    {
        ++i; // 'extern'
        while (tok(i) == "\"")
            ++i;
        if (tok(i) == "{") {
            scopes.push_back(Scope{}); // linkage block, transparent
            ++i;
            return;
        }
        statement(); // extern declaration: parse normally
    }

    void
    parseClass()
    {
        ++i; // class/struct/union
        std::string name;
        bool inBases = false;
        while (i < f.tokens.size()) {
            const std::string &t = tok(i);
            if (t == ";") {
                ++i; // forward declaration
                return;
            }
            if (t == "{") {
                scopes.push_back(Scope{true, name});
                ++i;
                return;
            }
            if (t == ":") {
                inBases = true;
            } else if (t == "<") {
                skipBalanced("<", ">");
                continue;
            } else if (t == "(") {
                skipBalanced("(", ")");
                continue;
            } else if (ident(i) && !inBases && name.empty() &&
                       t != "final" && t != "alignas") {
                name = t;
            }
            ++i;
        }
    }

    void
    skipEnum()
    {
        while (i < f.tokens.size() && tok(i) != "{" && tok(i) != ";")
            ++i;
        if (tok(i) == "{")
            skipBalanced("{", "}");
        if (tok(i) == ";")
            ++i;
    }

    /** Constructor initializer list: from ':' up to the body '{'. */
    void
    skipInitList()
    {
        ++i; // ':'
        int depth = 0;
        while (i < f.tokens.size()) {
            const std::string &t = tok(i);
            if (t == "(" || t == "[") {
                ++depth;
            } else if (t == ")" || t == "]") {
                --depth;
            } else if (t == "{") {
                // `member{...}` init braces follow an identifier or
                // template closer; the function body never does.
                if (depth == 0 && !ident(i - 1) && tok(i - 1) != ">")
                    return;
                ++depth;
            } else if (t == "}") {
                --depth;
            }
            ++i;
        }
    }

    /** Function trailer shared by the skip paths (no record). */
    void
    finishFunctionTail()
    {
        while (i < f.tokens.size()) {
            const std::string &t = tok(i);
            if (t == ";") {
                ++i;
                return;
            }
            if (t == "=") {
                skipToSemi();
                return;
            }
            if (t == ":") {
                skipInitList();
                continue;
            }
            if (t == "{") {
                skipBalanced("{", "}");
                return;
            }
            if (t == "(") {
                skipBalanced("(", ")");
                continue;
            }
            if (t == "<") {
                skipBalanced("<", ">");
                continue;
            }
            ++i;
        }
    }

    void
    skipOperator()
    {
        while (i < f.tokens.size() && tok(i) != "(" && tok(i) != ";")
            ++i;
        if (tok(i) == "(" && tok(i + 1) == ")" && tok(i + 2) == "(")
            i += 2; // operator()
        if (tok(i) == "(")
            skipBalanced("(", ")");
        finishFunctionTail();
    }

    void
    skipDestructor()
    {
        ++i; // '~'
        if (ident(i))
            ++i;
        if (tok(i) == "(")
            skipBalanced("(", ")");
        finishFunctionTail();
    }

    /**
     * A declaration statement: either a function (record + skip
     * body) or a variable/field (record head, skip initializer).
     */
    void
    parseDecl()
    {
        const std::size_t start = i;
        bool sawConst = false;
        std::size_t nameIdx = std::string::npos;
        while (i < f.tokens.size()) {
            const std::string &t = tok(i);
            if (t == "const" || t == "constexpr" ||
                t == "consteval")
                sawConst = true;
            if (t == "operator") {
                skipOperator();
                return;
            }
            if (t == "~") {
                skipDestructor();
                return;
            }
            if (t == "<") {
                skipBalanced("<", ">");
                continue;
            }
            if (t == "[") {
                skipBalanced("[", "]");
                continue;
            }
            if (t == ";") {
                finishVariable(start, i, sawConst, nameIdx);
                ++i;
                return;
            }
            if (t == "=") {
                finishVariable(start, i, sawConst, nameIdx);
                skipToSemi();
                return;
            }
            if (t == "{") {
                // Brace initializer (no declarator parens seen).
                finishVariable(start, i, sawConst, nameIdx);
                skipBalanced("{", "}");
                if (tok(i) == ";")
                    ++i;
                return;
            }
            if (t == "(") {
                if (nameIdx != std::string::npos &&
                    nameIdx == i - 1) {
                    parseFunction(start, nameIdx);
                    return;
                }
                skipBalanced("(", ")");
                continue;
            }
            if (ident(i) && !isDeclKeyword(t))
                nameIdx = i;
            ++i;
        }
    }

    void
    finishVariable(std::size_t start, std::size_t end, bool sawConst,
                   std::size_t nameIdx)
    {
        if (nameIdx == std::string::npos || nameIdx >= end)
            return;
        const Token &nt = f.tokens[nameIdx];
        const std::string cls = curClass();
        bool simPtr = false;
        for (std::size_t k = start; k + 1 < end; ++k) {
            if (ident(k) && tok(k) == "Simulation" &&
                tok(k + 1) == "*") {
                simPtr = true;
                break;
            }
        }
        // stats::Counter / stats::Gauge members (by value or by
        // reference), the registry's only metric kinds. Exact-token
        // match: CounterRng never collides.
        bool counterTyped = false;
        for (std::size_t k = start; k < end && k < nameIdx; ++k) {
            if (ident(k) &&
                (tok(k) == "Counter" || tok(k) == "Gauge")) {
                counterTyped = true;
                break;
            }
        }
        if (!cls.empty()) {
            out.fields.push_back(FieldRecord{cls, nt.text, nt.line,
                                             nt.col, simPtr,
                                             sawConst,
                                             counterTyped});
        } else {
            out.globals.push_back(
                GlobalRecord{nt.text, nt.line, !sawConst});
        }
    }

    void
    parseFunction(std::size_t start, std::size_t nameIdx)
    {
        FuncRecord fr;
        fr.cls = curClass();
        // Out-of-class definition: Class::name(...).
        if (nameIdx >= 2 && tok(nameIdx - 1) == "::" &&
            ident(nameIdx - 2))
            fr.cls = tok(nameIdx - 2);
        const Token &nt = f.tokens[nameIdx];
        fr.name = nt.text;
        fr.qual = fr.cls.empty() ? fr.name : fr.cls + "::" + fr.name;
        fr.line = nt.line;
        fr.col = nt.col;
        fr.startLine = f.tokens[start].line;
        skipBalanced("(", ")"); // parameter list
        bool afterArrow = false;
        while (i < f.tokens.size()) {
            const std::string &t = tok(i);
            if (t == "const") {
                if (!afterArrow)
                    fr.isConst = true;
                ++i;
            } else if (t == "-" && tok(i + 1) == ">") {
                afterArrow = true;
                i += 2;
            } else if (t == "noexcept") {
                ++i;
                if (tok(i) == "(")
                    skipBalanced("(", ")");
            } else if (t == "<") {
                skipBalanced("<", ">");
            } else if (t == "(") {
                skipBalanced("(", ")");
            } else if (t == "[") {
                skipBalanced("[", "]");
            } else if (t == ";") {
                fr.headerEndLine = f.tokens[i].line;
                ++i;
                break;
            } else if (t == "=") {
                fr.headerEndLine = f.tokens[i].line;
                skipToSemi(); // = default / = delete / = 0
                break;
            } else if (t == ":") {
                skipInitList();
            } else if (t == "{") {
                fr.headerEndLine = f.tokens[i].line;
                fr.hasBody = true;
                fr.bodyBegin = i + 1;
                skipBalanced("{", "}");
                fr.bodyEnd = i > 0 ? i - 1 : 0;
                break;
            } else {
                ++i; // override/final/&/&&/return-type tokens
            }
        }
        if (fr.headerEndLine == 0)
            fr.headerEndLine = fr.line;
        fr.observerMarked = Markers::covers(
            f.marks.observer, fr.startLine, fr.headerEndLine);
        fr.trafficMarked = Markers::covers(
            f.marks.trafficEntry, fr.startLine, fr.headerEndLine);
        fr.accessorMarked = Markers::covers(
            f.marks.domainAccessor, fr.startLine, fr.headerEndLine);
        if (fr.hasBody)
            extractCalls(fr);
        out.funcs.push_back(std::move(fr));
    }

    void
    extractCalls(FuncRecord &fr)
    {
        static const std::set<std::string> keywords = {
            "if",       "for",      "while",    "switch",
            "return",   "sizeof",   "alignof",  "decltype",
            "catch",    "new",      "delete",   "co_await",
            "co_return", "co_yield", "throw",   "assert",
            "defined",  "alignas",  "noexcept", "requires"};
        for (std::size_t k = fr.bodyBegin; k < fr.bodyEnd; ++k) {
            if (!f.tokens[k].isIdent || tok(k + 1) != "(")
                continue;
            const std::string &name = tok(k);
            if (keywords.count(name))
                continue;
            CallRef c;
            c.name = name;
            if (k > 0 && (tok(k - 1) == "." ||
                          (k >= 2 && tok(k - 1) == ">" &&
                           tok(k - 2) == "-")))
                c.memberForm = true;
            else if (k >= 2 && tok(k - 1) == "::" && ident(k - 2)) {
                c.qualified = true;
                c.qualHead = tok(k - 2);
            }
            if (c.qualified && c.qualHead == "std")
                continue;
            fr.calls.push_back(std::move(c));
        }
    }
};

// ==================== per-file rules ====================

/** Directory layering (DESIGN.md §14): lower ranks must not include
 * higher ones. Unknown directories are exempt. */
int
layerRank(const std::string &dir)
{
    static const std::map<std::string, int> ranks = {
        {"sim", 0},   {"mem", 1},    {"ops", 2}, {"cpu", 3},
        {"dsa", 4},   {"cbdma", 5},  {"driver", 6}, {"dml", 7},
        {"dto", 8},   {"apps", 9}};
    auto it = ranks.find(dir);
    return it == ranks.end() ? -1 : it->second;
}

/** mem/ headers other components may include. */
bool
isMemFacade(const std::string &header)
{
    static const std::set<std::string> facades = {
        "mem_system.hh", "address_space.hh", "types.hh",
        "remote_port.hh", "tlb.hh"};
    return facades.count(header) > 0;
}

class Linter
{
  public:
    explicit Linter(bool apply_fixes) : fix(apply_fixes) {}

    std::vector<Diagnostic> diags;
    std::size_t suppressed = 0;
    std::size_t fixesApplied = 0;

    void
    lint(ScannedFile &f)
    {
        const std::string lp = normalPath(f.logicalPath);
        const bool hot = isHotPath(lp);
        if (hot) {
            checkWallClock(f);
            if (lp.find("sim/random.hh") == std::string::npos)
                checkEntropy(f);
            checkUnorderedIter(f);
            checkRawAlloc(f);
            // The partition layer is the one sanctioned home of host
            // threading: everything else posts through its channels.
            if (lp.find("sim/partition.") == std::string::npos)
                checkCrossDomain(f);
        }
        if (lp.find("sim/traffic") != std::string::npos)
            checkTenantRng(f);
        // Advisory only: anywhere in src/ a new `+= cacheLineSize`
        // loop is probably re-growing an O(lines) walk the span API
        // replaced (DESIGN.md §13).
        if (lp.find("src/") != std::string::npos)
            checkAcctLoop(f);
        checkBannedFn(f);
        checkVolatile(f);
        if (isHeader(lp))
            checkIncludeHygiene(f, lp);
        if (lp.find("src/") != std::string::npos)
            checkLayerHygiene(f, lp);
    }

  private:
    bool fix;

    void
    report(const ScannedFile &f, int line, int col,
           const std::string &rule, const std::string &msg,
           const std::string &note = "", bool advisory = false)
    {
        if (f.allow.allows(line, rule)) {
            ++suppressed;
            return;
        }
        diags.push_back(
            Diagnostic{f.path, line, col, rule, msg, note, advisory});
    }

    /// @name Token-stream helpers.
    /// @{
    static bool
    nextIs(const ScannedFile &f, std::size_t i, std::string_view s)
    {
        return i + 1 < f.tokens.size() && f.tokens[i + 1].text == s;
    }

    static bool
    prevIs(const ScannedFile &f, std::size_t i, std::string_view s)
    {
        return i > 0 && f.tokens[i - 1].text == s;
    }

    /** True if token i is a member access (obj.x / obj->x). */
    static bool
    isMember(const ScannedFile &f, std::size_t i)
    {
        if (prevIs(f, i, "."))
            return true;
        return i >= 2 && f.tokens[i - 1].text == ">" &&
               f.tokens[i - 2].text == "-";
    }
    /// @}

    void
    checkWallClock(ScannedFile &f)
    {
        static const std::set<std::string> clocks = {
            "system_clock", "steady_clock", "high_resolution_clock",
            "utc_clock",    "file_clock",   "gettimeofday",
            "clock_gettime", "timespec_get"};
        static const std::set<std::string> calls = {"time", "clock"};
        for (std::size_t i = 0; i < f.tokens.size(); ++i) {
            const Token &t = f.tokens[i];
            if (!t.isIdent)
                continue;
            const bool named = clocks.count(t.text) > 0;
            const bool call = calls.count(t.text) > 0 &&
                              nextIs(f, i, "(") && !isMember(f, i);
            if ((named || call) && !isMember(f, i)) {
                report(f, t.line, t.col, "wall-clock",
                       "host time source '" + t.text +
                           "' in tick-affecting code",
                       "simulated time comes from Simulation::now(); "
                       "host clocks break replay determinism");
            }
        }
    }

    void
    checkEntropy(ScannedFile &f)
    {
        static const std::set<std::string> types = {
            "random_device", "mt19937", "mt19937_64",
            "default_random_engine", "minstd_rand", "minstd_rand0",
            "ranlux24", "ranlux48", "knuth_b"};
        static const std::set<std::string> calls = {"rand", "srand",
                                                    "random"};
        for (std::size_t i = 0; i < f.tokens.size(); ++i) {
            const Token &t = f.tokens[i];
            if (!t.isIdent)
                continue;
            const bool named = types.count(t.text) > 0;
            const bool call = calls.count(t.text) > 0 &&
                              nextIs(f, i, "(") && !isMember(f, i);
            if ((named || call) && !isMember(f, i)) {
                report(f, t.line, t.col, "entropy",
                       "non-deterministic entropy source '" + t.text +
                           "' outside sim/random.hh",
                       "use dsasim::Rng (sim/random.hh) with an "
                       "explicit seed");
            }
        }
    }

    void
    checkUnorderedIter(ScannedFile &f)
    {
        // Pass 1: names declared with an unordered container type
        // (including `using Alias = std::unordered_map<...>` and
        // variables declared via such an alias).
        std::set<std::string> unorderedVars;
        std::set<std::string> unorderedTypes = {"unordered_map",
                                                "unordered_set",
                                                "unordered_multimap",
                                                "unordered_multiset"};
        for (std::size_t i = 0; i < f.tokens.size(); ++i) {
            const Token &t = f.tokens[i];
            if (!t.isIdent || unorderedTypes.count(t.text) == 0)
                continue;
            // `using X = std::unordered_map<...>`: X becomes an
            // unordered type name.
            if (i >= 3 && f.tokens[i - 1].text == "::" &&
                f.tokens[i - 2].text == "std" &&
                f.tokens[i - 3].text == "=" && i >= 5 &&
                f.tokens[i - 5].text == "using") {
                unorderedTypes.insert(f.tokens[i - 4].text);
            }
            // Skip balanced template args, then take the declared
            // name (built-in containers are always followed by
            // <...>; aliases may not be).
            std::size_t j = i + 1;
            if (j < f.tokens.size() && f.tokens[j].text == "<") {
                int depth = 0;
                for (; j < f.tokens.size(); ++j) {
                    if (f.tokens[j].text == "<")
                        ++depth;
                    else if (f.tokens[j].text == ">" && --depth == 0) {
                        ++j;
                        break;
                    }
                }
            }
            if (j < f.tokens.size() && f.tokens[j].isIdent)
                unorderedVars.insert(f.tokens[j].text);
        }
        // Alias-typed declarations: `Alias name ...`.
        for (std::size_t i = 0; i + 1 < f.tokens.size(); ++i) {
            if (f.tokens[i].isIdent &&
                unorderedTypes.count(f.tokens[i].text) > 0 &&
                f.tokens[i].text.rfind("unordered_", 0) != 0 &&
                f.tokens[i + 1].isIdent &&
                !prevIs(f, i, "using")) {
                unorderedVars.insert(f.tokens[i + 1].text);
            }
        }
        if (unorderedVars.empty())
            return;

        // Pass 2a: range-for `for (... : var)`.
        for (std::size_t i = 0; i + 2 < f.tokens.size(); ++i) {
            if (!(f.tokens[i].text == "for" && nextIs(f, i, "(")))
                continue;
            int depth = 0;
            for (std::size_t j = i + 1; j < f.tokens.size(); ++j) {
                if (f.tokens[j].text == "(")
                    ++depth;
                else if (f.tokens[j].text == ")" && --depth == 0)
                    break;
                else if (f.tokens[j].text == ":" && depth == 1 &&
                         j + 1 < f.tokens.size() &&
                         f.tokens[j + 1].isIdent &&
                         unorderedVars.count(f.tokens[j + 1].text) >
                             0) {
                    const Token &v = f.tokens[j + 1];
                    report(f, v.line, v.col, "unordered-iter",
                           "range-for over unordered container '" +
                               v.text + "' in tick-affecting code",
                           "iteration order is unspecified and can "
                           "change replay order; use a sorted "
                           "container or iterate a deterministic "
                           "index");
                }
            }
        }
        // Pass 2b: explicit iteration `var.begin()`. end()/cend()
        // alone is the find()-sentinel idiom and stays legal.
        static const std::set<std::string> iterFns = {"begin",
                                                      "cbegin"};
        for (std::size_t i = 0; i + 2 < f.tokens.size(); ++i) {
            if (f.tokens[i].isIdent &&
                unorderedVars.count(f.tokens[i].text) > 0 &&
                nextIs(f, i, ".") && f.tokens[i + 2].isIdent &&
                iterFns.count(f.tokens[i + 2].text) > 0) {
                const Token &t = f.tokens[i];
                report(f, t.line, t.col, "unordered-iter",
                       "iterator walk over unordered container '" +
                           t.text + "' in tick-affecting code",
                       "iteration order is unspecified and can "
                       "change replay order; use a sorted container "
                       "or iterate a deterministic index");
            }
        }
    }

    void
    checkRawAlloc(ScannedFile &f)
    {
        static const std::set<std::string> cAlloc = {
            "malloc", "calloc", "realloc", "free"};
        for (std::size_t i = 0; i < f.tokens.size(); ++i) {
            const Token &t = f.tokens[i];
            if (t.text == "new" && t.isIdent) {
                // Placement new (`new (addr) T`) is how the arenas
                // themselves are built — allowed.
                if (nextIs(f, i, "(") || prevIs(f, i, "operator"))
                    continue;
                report(f, t.line, t.col, "raw-alloc",
                       "raw 'new' in hot-path code",
                       "use the event arena, InlineCallback SBO, a "
                       "container, or std::make_unique at setup "
                       "time");
            } else if (t.text == "delete" && t.isIdent) {
                // `= delete` declarations are not deallocations.
                if (prevIs(f, i, "=") || prevIs(f, i, "operator"))
                    continue;
                report(f, t.line, t.col, "raw-alloc",
                       "raw 'delete' in hot-path code",
                       "pair allocations with owning containers or "
                       "smart pointers");
            } else if (t.isIdent && cAlloc.count(t.text) > 0 &&
                       nextIs(f, i, "(") && !isMember(f, i)) {
                report(f, t.line, t.col, "raw-alloc",
                       "C allocation '" + t.text +
                           "' in hot-path code",
                       "use a container or the event arena");
            }
        }
    }

    void
    checkCrossDomain(ScannedFile &f)
    {
        // Host threading vocabulary. Only the std::-qualified form
        // is flagged so model-level identifiers (a member named
        // `barrier`, say) stay legal.
        static const std::set<std::string> prims = {
            "mutex", "timed_mutex", "recursive_mutex",
            "recursive_timed_mutex", "shared_mutex",
            "shared_timed_mutex", "condition_variable",
            "condition_variable_any", "atomic", "atomic_flag",
            "atomic_ref", "thread", "jthread", "barrier", "latch",
            "counting_semaphore", "binary_semaphore", "future",
            "shared_future", "promise", "packaged_task", "async",
            "stop_token", "stop_source", "call_once", "once_flag"};
        for (std::size_t i = 0; i < f.tokens.size(); ++i) {
            const Token &t = f.tokens[i];
            if (!t.isIdent)
                continue;
            if (t.text == "thread_local") {
                report(f, t.line, t.col, "cross-domain",
                       "'thread_local' state in tick-affecting code",
                       "per-domain state belongs to the domain's "
                       "Simulation; thread-local state varies with "
                       "the worker-thread count (DESIGN.md §11)");
                continue;
            }
            const bool stdQualified =
                i >= 2 && f.tokens[i - 1].text == "::" &&
                f.tokens[i - 2].text == "std";
            if (stdQualified && prims.count(t.text) > 0) {
                report(f, t.line, t.col, "cross-domain",
                       "host threading primitive 'std::" + t.text +
                           "' in tick-affecting code",
                       "cross-domain interaction goes through "
                       "PartitionChannel::post() (sim/partition.hh) "
                       "so delivery order stays canonical for any "
                       "worker-thread count");
            }
        }
    }

    void
    checkTenantRng(ScannedFile &f)
    {
        // Traffic-generation code feeds thousands of concurrent
        // tenant streams: a stateful generator would make the k-th
        // variate depend on which tenant drew before it (and hence
        // on event interleaving / the partition count). CounterRng
        // is a distinct token and stays legal.
        for (std::size_t i = 0; i < f.tokens.size(); ++i) {
            const Token &t = f.tokens[i];
            if (t.isIdent && t.text == "Rng" && !isMember(f, i)) {
                report(f, t.line, t.col, "tenant-rng",
                       "stateful 'Rng' in per-tenant traffic code",
                       "arrival streams must be counter-based "
                       "(CounterRng::at(k), sim/traffic.hh) so every "
                       "variate is a pure function of "
                       "(seed, tenant, k)");
            }
        }
    }

    void
    checkAcctLoop(ScannedFile &f)
    {
        // `for (...; ...; a += cacheLineSize)` headers in src/:
        // almost always a per-line cache-accounting walk that the
        // span API made O(sets-touched).
        // Note-level — legitimate uses exist (per-victim occupy()
        // rounding) and carry a simlint:allow(acct-loop).
        for (std::size_t i = 0; i + 1 < f.tokens.size(); ++i) {
            if (!(f.tokens[i].text == "for" && f.tokens[i].isIdent &&
                  nextIs(f, i, "(")))
                continue;
            int depth = 0;
            for (std::size_t j = i + 1; j < f.tokens.size(); ++j) {
                if (f.tokens[j].text == "(") {
                    ++depth;
                } else if (f.tokens[j].text == ")") {
                    if (--depth == 0)
                        break;
                } else if (depth >= 1 && f.tokens[j].text == "+" &&
                           nextIs(f, j, "=") &&
                           j + 2 < f.tokens.size() &&
                           f.tokens[j + 2].text == "cacheLineSize") {
                    const Token &t = f.tokens[j];
                    report(f, t.line, t.col, "acct-loop",
                           "per-line '+= cacheLineSize' loop in "
                           "simulator code",
                           "batch through the CacheModel span API "
                           "(probeSpan/fillSpan/evictSpan/flushSpan, "
                           "DESIGN.md §13); if per-call occupy() "
                           "rounding truly needs line granularity, "
                           "suppress with // simlint:allow(acct-loop)",
                           /*advisory=*/true);
                }
            }
        }
    }

    void
    checkBannedFn(ScannedFile &f)
    {
        static const std::map<std::string, std::string> banned = {
            {"strcpy", "use std::memcpy with an explicit size, or "
                       "std::string"},
            {"strcat", "use std::string or bounded std::snprintf"},
            {"sprintf", "use std::snprintf with the buffer size"},
            {"vsprintf", "use std::vsnprintf with the buffer size"},
            {"gets", "use std::fgets"},
        };
        for (std::size_t i = 0; i < f.tokens.size(); ++i) {
            const Token &t = f.tokens[i];
            if (!t.isIdent || !nextIs(f, i, "(") || isMember(f, i))
                continue;
            auto it = banned.find(t.text);
            if (it == banned.end())
                continue;
            report(f, t.line, t.col, "banned-fn",
                   "unbounded '" + t.text + "'", it->second);
        }
    }

    void
    checkVolatile(ScannedFile &f)
    {
        for (const Token &t : f.tokens) {
            if (t.isIdent && t.text == "volatile") {
                report(f, t.line, t.col, "volatile-sync",
                       "'volatile' is not a synchronization "
                       "primitive",
                       "use std::atomic, or rely on the kernel's "
                       "deterministic single-threaded event order");
            }
        }
    }

    void
    checkIncludeHygiene(ScannedFile &f, const std::string &lp)
    {
        const std::string want = expectedGuard(lp);
        // Locate the first #ifndef / #define pair.
        std::string gotIfndef, gotDefine;
        int ifndefLine = 0, defineLine = 0;
        auto directiveArg = [](const std::string &raw,
                               const char *name) -> std::string {
            std::size_t h = raw.find_first_not_of(" \t");
            if (h == std::string::npos || raw[h] != '#')
                return "";
            std::size_t k = raw.find_first_not_of(" \t", h + 1);
            std::size_t n = std::strlen(name);
            if (k == std::string::npos ||
                raw.compare(k, n, name) != 0)
                return "";
            std::size_t b = raw.find_first_not_of(" \t", k + n);
            if (b == std::string::npos)
                return "";
            std::size_t e = b;
            while (e < raw.size() &&
                   (std::isalnum(static_cast<unsigned char>(raw[e])) ||
                    raw[e] == '_'))
                ++e;
            return e > b ? raw.substr(b, e - b) : "";
        };
        for (std::size_t li = 0; li < f.rawLines.size(); ++li) {
            const std::string &raw = f.rawLines[li];
            if (gotIfndef.empty()) {
                std::string v = directiveArg(raw, "ifndef");
                if (!v.empty()) {
                    gotIfndef = v;
                    ifndefLine = static_cast<int>(li) + 1;
                }
            } else {
                std::string v = directiveArg(raw, "define");
                if (!v.empty()) {
                    gotDefine = v;
                    defineLine = static_cast<int>(li) + 1;
                }
                break;
            }
        }
        if (gotIfndef.empty() || gotDefine != gotIfndef) {
            report(f, 1, 1, "include-hygiene",
                   "missing include guard (expected '" + want + "')",
                   "wrap the header in #ifndef " + want +
                       " / #define " + want + " / #endif");
        } else if (gotIfndef != want) {
            if (fix && rewriteGuard(f, gotIfndef, want, ifndefLine,
                                    defineLine)) {
                ++fixesApplied;
            } else {
                report(f, ifndefLine, 1, "include-hygiene",
                       "include guard '" + gotIfndef +
                           "' does not match path (expected '" +
                           want + "')",
                       "rename the guard (simlint --fix does this "
                       "mechanically)");
            }
        }
        // Parent-relative includes.
        for (const IncludeRef &inc : f.includes) {
            if (inc.target.find("../") != std::string::npos) {
                report(f, inc.line, inc.col, "include-hygiene",
                       "parent-relative #include \"" + inc.target +
                           "\"",
                       "include with a source-root-relative path "
                       "(e.g. \"sim/ticks.hh\")");
            }
        }
    }

    void
    checkLayerHygiene(ScannedFile &f, const std::string &lp)
    {
        std::size_t pos = lp.rfind("src/");
        if (pos == std::string::npos)
            return;
        const std::string rest = lp.substr(pos + 4);
        std::size_t slash = rest.find('/');
        if (slash == std::string::npos)
            return;
        const std::string ownDir = rest.substr(0, slash);
        const int ownRank = layerRank(ownDir);
        for (const IncludeRef &inc : f.includes) {
            const std::string tgt = normalPath(inc.target);
            std::size_t ts = tgt.find('/');
            if (ts == std::string::npos)
                continue;
            const std::string tgtDir = tgt.substr(0, ts);
            const int tgtRank = layerRank(tgtDir);
            if (tgtRank < 0)
                continue;
            if (ownRank >= 0 && tgtRank > ownRank) {
                report(f, inc.line, inc.col, "layer-hygiene",
                       "'src/" + ownDir + "' must not include '" +
                           tgt + "' (layer '" + tgtDir +
                           "' is above '" + ownDir + "')",
                       "lower layers stay ignorant of higher ones "
                       "(sim < mem < ops < cpu < dsa < cbdma < "
                       "driver < dml < dto < apps, DESIGN.md §14); "
                       "invert the dependency with a callback or a "
                       "registration hook");
                continue;
            }
            if (tgtDir == "mem" && ownDir != "mem" &&
                !isMemFacade(tgt.substr(ts + 1))) {
                report(f, inc.line, inc.col, "layer-hygiene",
                       "mem/ internal header '" + tgt +
                           "' included outside src/mem",
                       "go through the facades (mem_system.hh, "
                       "address_space.hh, types.hh, remote_port.hh, "
                       "tlb.hh); cache/page-table/phys-mem/iommu "
                       "stay private to src/mem (DESIGN.md §14)");
            }
        }
    }

    /** Mechanical guard rename for --fix. */
    bool
    rewriteGuard(ScannedFile &f, const std::string &from,
                 const std::string &to, int ifndef_line,
                 int define_line)
    {
        auto subst = [&](int line1) {
            std::string &l = f.rawLines[static_cast<std::size_t>(
                line1 - 1)];
            std::size_t p = l.find(from);
            if (p == std::string::npos)
                return false;
            l.replace(p, from.size(), to);
            return true;
        };
        if (ifndef_line <= 0 || define_line <= 0 ||
            static_cast<std::size_t>(ifndef_line) > f.rawLines.size() ||
            static_cast<std::size_t>(define_line) > f.rawLines.size())
            return false;
        bool ok = subst(ifndef_line) && subst(define_line);
        // Trailing `#endif // GUARD` comments, if present.
        for (auto &l : f.rawLines) {
            if (l.rfind("#endif", 0) == 0) {
                std::size_t p = l.find(from);
                if (p != std::string::npos)
                    l.replace(p, from.size(), to);
            }
        }
        if (!ok)
            return false;
        std::ofstream os(f.path, std::ios::binary | std::ios::trunc);
        for (const auto &l : f.rawLines)
            os << l << '\n';
        return os.good();
    }
};

/** Everything the scan phase produces for one file. */
struct FileResult
{
    ScannedFile sf;
    FileSymbols syms;
    std::vector<Diagnostic> diags;
    std::size_t suppressed = 0;
    std::size_t fixesApplied = 0;
};

// ==================== cross-TU analysis ====================

/**
 * Project-wide passes over the merged symbol index: a name-based
 * call-graph BFS for observer-purity and seed-flow, and the
 * domain-escape accessor/field rules. Conservative by construction —
 * an edge exists whenever a call site's name matches a record, so
 * reachability over-approximates; the purity checks then only fire
 * when *every* indexed candidate agrees the callee mutates.
 */
class ProjectAnalyzer
{
  public:
    explicit ProjectAnalyzer(std::vector<FileResult> &results)
        : files(results)
    {
        for (std::size_t fi = 0; fi < files.size(); ++fi) {
            for (FuncRecord &fr : files[fi].syms.funcs) {
                fr.fileIdx = fi;
                const std::size_t idx = funcs.size();
                funcs.push_back(&fr);
                byName[fr.name].push_back(idx);
                byQual[fr.qual].push_back(idx);
                if (!fr.cls.empty())
                    methodsByName[fr.name].push_back(idx);
                if (fr.accessorMarked)
                    accessorNames.insert(fr.name);
            }
            for (const GlobalRecord &g : files[fi].syms.globals)
                if (g.mutableVar)
                    mutableGlobals.insert(g.name);
            for (const FieldRecord &fd : files[fi].syms.fields)
                if (fd.counterTyped)
                    counterFields[fd.name] = fd.cls;
        }
        accessorNames.insert("domainSim");
    }

    void
    run()
    {
        checkDomainEscape();
        checkObserverPurity();
        checkSeedFlow();
        checkCounterMutation();
    }

  private:
    std::vector<FileResult> &files;
    std::vector<FuncRecord *> funcs;
    std::map<std::string, std::vector<std::size_t>> byName;
    std::map<std::string, std::vector<std::size_t>> byQual;
    std::map<std::string, std::vector<std::size_t>> methodsByName;
    std::set<std::string> mutableGlobals;
    std::set<std::string> accessorNames;
    /** counter/gauge-typed field name -> declaring class. */
    std::map<std::string, std::string> counterFields;

    void
    report(std::size_t file_idx, int line, int col,
           const std::string &rule, const std::string &msg,
           const std::string &note)
    {
        FileResult &fr = files[file_idx];
        if (fr.sf.allow.allows(line, rule)) {
            ++fr.suppressed;
            return;
        }
        fr.diags.push_back(Diagnostic{fr.sf.path, line, col, rule,
                                      msg, note, false});
    }

    static bool
    isMemberAt(const std::vector<Token> &T, std::size_t i)
    {
        if (i > 0 && T[i - 1].text == ".")
            return true;
        return i >= 2 && T[i - 1].text == ">" && T[i - 2].text == "-";
    }

    /** A lone '=' (not ==, <=, >=, !=) at index j. */
    static bool
    isAssignEq(const std::vector<Token> &T, std::size_t j)
    {
        if (T[j].text != "=")
            return false;
        if (j + 1 < T.size() && T[j + 1].text == "=")
            return false;
        if (j > 0) {
            const std::string &p = T[j - 1].text;
            if (p == "=" || p == "!" || p == "<" || p == ">")
                return false;
        }
        return true;
    }

    /**
     * BFS over qualified names from @p roots; fills qual ->
     * first-reaching root (function index). Roots must be passed in
     * deterministic order (file order, then declaration order).
     */
    void
    reach(const std::vector<std::size_t> &roots,
          std::map<std::string, std::size_t> &origin_of)
    {
        std::vector<std::string> queue;
        for (std::size_t r : roots) {
            const std::string &q = funcs[r]->qual;
            if (origin_of.emplace(q, r).second)
                queue.push_back(q);
        }
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const std::string qual = queue[head];
            const std::size_t root = origin_of.at(qual);
            auto qit = byQual.find(qual);
            if (qit == byQual.end())
                continue;
            for (std::size_t fi : qit->second) {
                for (const CallRef &c : funcs[fi]->calls) {
                    const std::vector<std::size_t> *targets =
                        nullptr;
                    std::vector<std::size_t> filtered;
                    if (c.memberForm) {
                        auto it = methodsByName.find(c.name);
                        if (it == methodsByName.end())
                            continue;
                        targets = &it->second;
                    } else {
                        auto it = byName.find(c.name);
                        if (it == byName.end())
                            continue;
                        if (c.qualified) {
                            for (std::size_t ti : it->second)
                                if (funcs[ti]->cls == c.qualHead)
                                    filtered.push_back(ti);
                        }
                        targets = filtered.empty() ? &it->second
                                                   : &filtered;
                    }
                    for (std::size_t ti : *targets) {
                        const std::string &tq = funcs[ti]->qual;
                        if (origin_of.emplace(tq, root).second)
                            queue.push_back(tq);
                    }
                }
            }
        }
    }

    std::string
    whereDeclared(std::size_t func_idx) const
    {
        const FuncRecord &fr = *funcs[func_idx];
        return "'" + fr.qual + "' (" +
               files[fr.fileIdx].sf.path + ":" +
               std::to_string(fr.line) + ")";
    }

    // -------- domain-escape --------

    static bool
    isBoundaryFile(const std::string &lp)
    {
        return lp.find("sim/partition.") != std::string::npos ||
               lp.find("mem/remote_port.") != std::string::npos ||
               lp.find("driver/cluster.") != std::string::npos;
    }

    void
    checkDomainEscape()
    {
        for (std::size_t fi = 0; fi < files.size(); ++fi) {
            const std::string lp =
                normalPath(files[fi].sf.logicalPath);
            if (lp.find("src/") == std::string::npos ||
                isBoundaryFile(lp))
                continue;
            escapeBindings(fi);
            escapeFields(fi);
        }
    }

    /** Arm 1: `T &x = obj.domainSim(...)` style stored bindings. */
    void
    escapeBindings(std::size_t fi)
    {
        const std::vector<Token> &T = files[fi].sf.tokens;
        for (std::size_t i = 0; i < T.size(); ++i) {
            if (!T[i].isIdent || accessorNames.count(T[i].text) == 0)
                continue;
            if (!isMemberAt(T, i) || i + 1 >= T.size() ||
                T[i + 1].text != "(")
                continue;
            // Statement start: just after the previous ; { or }.
            std::size_t stmt = i;
            while (stmt > 0) {
                const std::string &p = T[stmt - 1].text;
                if (p == ";" || p == "{" || p == "}")
                    break;
                --stmt;
            }
            bool hasAssign = false, hasBind = false;
            for (std::size_t j = stmt; j < i; ++j) {
                if (isAssignEq(T, j))
                    hasAssign = true;
                if (T[j].text == "&" || T[j].text == "*")
                    hasBind = true;
            }
            if (hasAssign && hasBind) {
                report(fi, T[i].line, T[i].col, "domain-escape",
                       "stored result of cross-domain accessor '" +
                           T[i].text + "'",
                       "domain handles may be used inline but not "
                       "bound through a reference/pointer; route "
                       "cross-domain interaction through "
                       "PartitionChannel/RemotePort "
                       "(sim/partition.hh, mem/remote_port.hh, "
                       "DESIGN.md §14)");
            }
        }
    }

    /** Arm 2: non-const `Simulation *` fields outside the boundary. */
    void
    escapeFields(std::size_t fi)
    {
        for (const FieldRecord &fd : files[fi].syms.fields) {
            if (!fd.simPtr || fd.constQual)
                continue;
            report(fi, fd.line, fd.col, "domain-escape",
                   "non-const 'Simulation *' field '" + fd.cls +
                       "::" + fd.name +
                       "' outside the partition boundary",
                   "peer-domain pointers live in the sanctioned "
                   "boundary (sim/partition.*, mem/remote_port.*, "
                   "driver/cluster.*); store a RemotePort instead, "
                   "or make the pointer const (DESIGN.md §14)");
        }
    }

    // -------- observer-purity --------

    /** std container/member vocabulary that must never be treated as
     * a simulated-component mutator even when a model class happens
     * to share the name. */
    static bool
    isNeutralMember(const std::string &name)
    {
        static const std::set<std::string> neutral = {
            "push_back", "emplace_back", "pop_back", "clear",
            "resize",    "reserve",      "insert",   "erase",
            "emplace",   "assign",       "append",   "store",
            "exchange",  "str",          "c_str",    "substr",
            "reset",     "release",      "swap",     "size",
            "empty",     "at",           "find",     "count",
            "data",      "front",        "back",     "begin",
            "end",       "cbegin",       "cend",     "rbegin",
            "rend",      "contains",     "length",   "capacity",
            "to_string", "value",        "has_value"};
        return neutral.count(name) > 0;
    }

    void
    checkObserverPurity()
    {
        // Roots: every record sharing a qual with a marked
        // declaration (the marker may sit on the header decl while
        // the body lives in the .cc).
        std::set<std::string> markedQuals;
        for (const FuncRecord *fr : funcs)
            if (fr->observerMarked)
                markedQuals.insert(fr->qual);
        // The registry's sample/export surface is an observer by
        // definition: every sim/stats.* function named sample*/
        // snapshot*/write* roots the purity walk even without an
        // explicit // simlint:observer marker.
        for (const FuncRecord *fr : funcs) {
            const std::string lp =
                normalPath(files[fr->fileIdx].sf.logicalPath);
            if (lp.find("sim/stats.") == std::string::npos)
                continue;
            if (fr->name.rfind("sample", 0) == 0 ||
                fr->name.rfind("snapshot", 0) == 0 ||
                fr->name.rfind("write", 0) == 0)
                markedQuals.insert(fr->qual);
        }
        if (markedQuals.empty())
            return;
        std::vector<std::size_t> roots;
        for (std::size_t i = 0; i < funcs.size(); ++i)
            if (markedQuals.count(funcs[i]->qual))
                roots.push_back(i);
        std::map<std::string, std::size_t> originOf;
        reach(roots, originOf);
        for (const auto &[qual, root] : originOf) {
            auto qit = byQual.find(qual);
            if (qit == byQual.end())
                continue;
            for (std::size_t fi : qit->second)
                if (funcs[fi]->hasBody)
                    scanObserverBody(*funcs[fi], root);
        }
    }

    void
    scanObserverBody(const FuncRecord &fn, std::size_t root)
    {
        const std::vector<Token> &T =
            files[fn.fileIdx].sf.tokens;
        for (std::size_t k = fn.bodyBegin;
             k < fn.bodyEnd && k < T.size(); ++k) {
            const Token &t = T[k];
            if (!t.isIdent)
                continue;
            if (t.text == "const_cast") {
                report(fn.fileIdx, t.line, t.col, "observer-purity",
                       "'const_cast' in code reachable from "
                       "observer " + whereDeclared(root),
                       "observer surfaces (stream hashes, telemetry "
                       "samplers, --check reporters) must stay "
                       "read-only so they cannot perturb the event "
                       "stream (DESIGN.md §14)");
                continue;
            }
            // Non-const member call: every indexed candidate of
            // this method name is non-const.
            if (isMemberAt(T, k) && k + 1 < T.size() &&
                T[k + 1].text == "(" && !isNeutralMember(t.text)) {
                auto it = methodsByName.find(t.text);
                if (it != methodsByName.end()) {
                    bool anyConst = false;
                    for (std::size_t mi : it->second)
                        if (funcs[mi]->isConst)
                            anyConst = true;
                    if (!anyConst) {
                        report(fn.fileIdx, t.line, t.col,
                               "observer-purity",
                               "call to non-const method '" + t.text +
                                   "' in code reachable from "
                                   "observer " + whereDeclared(root),
                               "observer surfaces must stay "
                               "read-only; add a const overload or "
                               "sample a published counter instead "
                               "(DESIGN.md §14)");
                    }
                }
                continue;
            }
            // Write to a namespace-scope variable.
            if (mutableGlobals.count(t.text) > 0 &&
                !isMemberAt(T, k) &&
                !(k > 0 && (T[k - 1].isIdent ||
                            T[k - 1].text == "::"))) {
                bool write = false;
                if (k + 1 < T.size() && isAssignEq(T, k + 1))
                    write = true;
                static const std::set<std::string> compound = {
                    "+", "-", "*", "/", "%", "&", "|", "^"};
                if (k + 2 < T.size() &&
                    compound.count(T[k + 1].text) > 0 &&
                    T[k + 2].text == "=")
                    write = true;
                if (k + 2 < T.size() &&
                    ((T[k + 1].text == "+" && T[k + 2].text == "+") ||
                     (T[k + 1].text == "-" && T[k + 2].text == "-")))
                    write = true;
                if (k >= 2 &&
                    ((T[k - 1].text == "+" && T[k - 2].text == "+") ||
                     (T[k - 1].text == "-" && T[k - 2].text == "-")))
                    write = true;
                if (write) {
                    report(fn.fileIdx, t.line, t.col,
                           "observer-purity",
                           "write to namespace-scope variable '" +
                               t.text +
                               "' in code reachable from observer " +
                               whereDeclared(root),
                           "observer surfaces must stay read-only "
                           "so they cannot perturb the event stream "
                           "(DESIGN.md §14)");
                }
            }
        }
    }

    // -------- counter-mutation --------

    /**
     * Registered counters change only through the typed interface
     * (Counter::add/inc, Gauge::set); a direct write to a
     * Counter/Gauge-typed field outside sim/stats.* bypasses the
     * registry's monotonicity and checkpoint contracts. Reference
     * members bind in constructor init lists, which sit outside the
     * scanned body range, so registration itself never trips this.
     */
    void
    checkCounterMutation()
    {
        if (counterFields.empty())
            return;
        for (std::size_t fi = 0; fi < files.size(); ++fi) {
            const std::string lp =
                normalPath(files[fi].sf.logicalPath);
            if (lp.find("sim/stats.") != std::string::npos)
                continue;
            for (const FuncRecord &fn : files[fi].syms.funcs) {
                if (!fn.hasBody)
                    continue;
                scanCounterWrites(fi, fn);
            }
        }
    }

    void
    scanCounterWrites(std::size_t fi, const FuncRecord &fn)
    {
        const std::vector<Token> &T = files[fi].sf.tokens;
        for (std::size_t k = fn.bodyBegin;
             k < fn.bodyEnd && k < T.size(); ++k) {
            const Token &t = T[k];
            if (!t.isIdent)
                continue;
            auto it = counterFields.find(t.text);
            if (it == counterFields.end())
                continue;
            // A declaration/parameter mention (preceded by another
            // identifier or ::) is not an access to the field.
            if (k > 0 &&
                (T[k - 1].isIdent || T[k - 1].text == "::" ||
                 T[k - 1].text == "&"))
                continue;
            bool write = false;
            if (k + 1 < T.size() && isAssignEq(T, k + 1)) {
                // Exempt pointer/null (re)binding forms.
                const std::string &rhs =
                    k + 2 < T.size() ? T[k + 2].text : "";
                if (rhs != "&" && rhs != "nullptr")
                    write = true;
            }
            static const std::set<std::string> compound = {
                "+", "-", "*", "/", "%", "&", "|", "^"};
            if (k + 2 < T.size() &&
                compound.count(T[k + 1].text) > 0 &&
                T[k + 2].text == "=")
                write = true;
            if (k + 2 < T.size() &&
                ((T[k + 1].text == "+" && T[k + 2].text == "+") ||
                 (T[k + 1].text == "-" && T[k + 2].text == "-")))
                write = true;
            if (k >= 2 &&
                ((T[k - 1].text == "+" && T[k - 2].text == "+") ||
                 (T[k - 1].text == "-" && T[k - 2].text == "-")))
                write = true;
            if (write) {
                report(fi, t.line, t.col, "counter-mutation",
                       "direct write to registry metric field '" +
                           it->second + "::" + t.text + "'",
                       "registered counters change only through "
                       "Counter::add/inc and Gauge::set so the "
                       "registry's monotonicity and checkpoint "
                       "contracts hold (DESIGN.md §15)");
            }
        }
    }

    // -------- seed-flow --------

    void
    checkSeedFlow()
    {
        std::vector<std::size_t> roots;
        for (std::size_t i = 0; i < funcs.size(); ++i) {
            const std::string lp = normalPath(
                files[funcs[i]->fileIdx].sf.logicalPath);
            if (funcs[i]->trafficMarked ||
                lp.find("sim/traffic") != std::string::npos)
                roots.push_back(i);
        }
        if (roots.empty())
            return;
        std::map<std::string, std::size_t> originOf;
        reach(roots, originOf);
        for (const auto &[qual, root] : originOf) {
            auto qit = byQual.find(qual);
            if (qit == byQual.end())
                continue;
            for (std::size_t fi : qit->second) {
                const FuncRecord &fn = *funcs[fi];
                if (!fn.hasBody)
                    continue;
                const std::string lp = normalPath(
                    files[fn.fileIdx].sf.logicalPath);
                // tenant-rng already polices the traffic layer
                // itself, and sim/random.hh defines Rng.
                if (lp.find("src/") == std::string::npos ||
                    lp.find("sim/traffic") != std::string::npos ||
                    lp.find("sim/random.hh") != std::string::npos)
                    continue;
                const std::vector<Token> &T =
                    files[fn.fileIdx].sf.tokens;
                for (std::size_t k = fn.bodyBegin;
                     k < fn.bodyEnd && k < T.size(); ++k) {
                    const Token &t = T[k];
                    if (t.isIdent && t.text == "Rng" &&
                        !isMemberAt(T, k)) {
                        report(
                            fn.fileIdx, t.line, t.col, "seed-flow",
                            "stateful 'Rng' reachable from "
                            "open-loop traffic entry " +
                                whereDeclared(root),
                            "arrival-driven paths must stay "
                            "counter-based (CounterRng::at(k), "
                            "DESIGN.md §12) so every variate is "
                            "independent of event interleaving and "
                            "DSASIM_PARTITIONS");
                    }
                }
            }
        }
    }
};

// ==================== output ====================

const char *kRuleHelp =
    "rules:\n"
    "  wall-clock       host time sources in src/sim, src/dsa, "
    "src/mem\n"
    "  entropy          host entropy sources outside sim/random.hh\n"
    "  unordered-iter   iteration over unordered containers in "
    "tick-affecting code\n"
    "  raw-alloc        raw new/delete/malloc in hot-path "
    "directories\n"
    "  cross-domain     host threading primitives in tick-affecting "
    "code outside sim/partition.*\n"
    "  tenant-rng       stateful Rng in per-tenant traffic code "
    "(sim/traffic.*)\n"
    "  banned-fn        strcpy/strcat/sprintf/vsprintf/gets "
    "anywhere\n"
    "  volatile-sync    'volatile' used anywhere\n"
    "  acct-loop        (note-level) '+= cacheLineSize' for-loops "
    "in src/\n"
    "  include-hygiene  DSASIM_<PATH>_HH guards; no \"../\" "
    "includes\n"
    "  layer-hygiene    include graph respects sim < mem < ops < "
    "cpu < dsa < cbdma < driver < dml < dto < apps; mem/ internals "
    "behind facades\n"
    "  observer-purity  code reachable from // simlint:observer "
    "declarations must not mutate sim state\n"
    "  domain-escape    cross-domain accessor results are not "
    "stored; no non-const Simulation* fields outside the partition "
    "boundary\n"
    "  seed-flow        stateful Rng reachable from traffic entry "
    "points (call-graph tenant-rng)\n"
    "  counter-mutation direct writes to stats::Counter/Gauge "
    "fields outside sim/stats.* (use add/inc/set)\n"
    "markers: // simlint:observer, // simlint:traffic-entry, "
    "// simlint:domain-accessor\n"
    "suppress with: // simlint:allow(rule[,rule...])\n";

const char *kAllRuleIds[] = {
    "wall-clock",      "entropy",       "unordered-iter",
    "raw-alloc",       "cross-domain",  "tenant-rng",
    "banned-fn",       "volatile-sync", "acct-loop",
    "include-hygiene", "layer-hygiene", "observer-purity",
    "domain-escape",   "seed-flow",     "counter-mutation"};

bool
lintableExtension(const fs::path &p)
{
    const std::string e = p.extension().string();
    return e == ".cc" || e == ".hh" || e == ".cpp" || e == ".h";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** SARIF 2.1.0 for GitHub code scanning. */
std::string
sarifReport(const std::vector<Diagnostic> &diags)
{
    std::string s;
    s += "{\n"
         "  \"$schema\": \"https://raw.githubusercontent.com/oasis-"
         "tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": \"simlint\",\n"
         "          \"informationUri\": "
         "\"DESIGN.md\",\n"
         "          \"rules\": [\n";
    for (std::size_t i = 0;
         i < sizeof kAllRuleIds / sizeof kAllRuleIds[0]; ++i) {
        s += std::string("            {\"id\": \"") +
             kAllRuleIds[i] + "\"}";
        s += i + 1 < sizeof kAllRuleIds / sizeof kAllRuleIds[0]
                 ? ",\n"
                 : "\n";
    }
    s += "          ]\n"
         "        }\n"
         "      },\n"
         "      \"results\": [\n";
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        std::string text = d.message;
        if (!d.note.empty())
            text += " — " + d.note;
        s += "        {\n";
        s += "          \"ruleId\": \"" + jsonEscape(d.rule) +
             "\",\n";
        s += std::string("          \"level\": \"") +
             (d.advisory ? "note" : "error") + "\",\n";
        s += "          \"message\": {\"text\": \"" +
             jsonEscape(text) + "\"},\n";
        s += "          \"locations\": [\n"
             "            {\n"
             "              \"physicalLocation\": {\n"
             "                \"artifactLocation\": {\"uri\": \"" +
             jsonEscape(normalPath(d.path)) +
             "\"},\n"
             "                \"region\": {\"startLine\": " +
             std::to_string(d.line > 0 ? d.line : 1) +
             ", \"startColumn\": " +
             std::to_string(d.col > 0 ? d.col : 1) +
             "}\n"
             "              }\n"
             "            }\n"
             "          ]\n";
        s += i + 1 < diags.size() ? "        },\n" : "        }\n";
    }
    s += "      ]\n"
         "    }\n"
         "  ]\n"
         "}\n";
    return s;
}

/** Diagnostic and file counts of one run. */
struct RunTotals
{
    std::size_t errors = 0;
    std::size_t notes = 0;
    std::size_t suppressed = 0;
    std::size_t fileCount = 0;
};

void
printSummary(const RunTotals &t, std::size_t fixes)
{
    if (t.errors + t.notes == 0 && t.suppressed == 0 && fixes == 0)
        return;
    std::fprintf(stderr,
                 "simlint: %zu error(s), %zu note(s), %zu "
                 "suppressed, %zu fixed, %zu file(s)\n",
                 t.errors, t.notes, t.suppressed, fixes,
                 t.fileCount);
}

} // namespace

int
main(int argc, char **argv)
{
    bool fix = false;
    std::string treatAs, rootPrefix, sarifPath;
    std::vector<std::string> inputs;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--fix") {
            fix = true;
        } else if (a == "--list-rules") {
            std::fputs(kRuleHelp, stdout);
            return 0;
        } else if (a.rfind("--treat-as=", 0) == 0) {
            treatAs = a.substr(11);
        } else if (a.rfind("--root=", 0) == 0) {
            rootPrefix = normalPath(a.substr(7));
            while (!rootPrefix.empty() && rootPrefix.back() == '/')
                rootPrefix.pop_back();
        } else if (a.rfind("--sarif=", 0) == 0) {
            sarifPath = a.substr(8);
        } else if (a.rfind("--", 0) == 0) {
            std::fprintf(stderr, "simlint: unknown option %s\n",
                         a.c_str());
            return 2;
        } else {
            inputs.push_back(a);
        }
    }
    if (inputs.empty()) {
        std::fprintf(stderr,
                     "usage: simlint [--fix] [--list-rules] "
                     "[--treat-as=PATH] [--root=DIR] [--sarif=FILE] "
                     "PATH...\n");
        return 2;
    }
    if (!treatAs.empty() && inputs.size() != 1) {
        std::fprintf(stderr,
                     "simlint: --treat-as needs exactly one input "
                     "file\n");
        return 2;
    }

    // Expand directories, deterministically ordered.
    std::vector<std::string> files;
    for (const auto &in : inputs) {
        fs::path p(in);
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (fs::recursive_directory_iterator it(p, ec), end;
                 it != end; it.increment(ec)) {
                if (!ec && it->is_regular_file() &&
                    lintableExtension(it->path()))
                    files.push_back(it->path().generic_string());
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p.generic_string());
        } else {
            std::fprintf(stderr, "simlint: cannot read %s\n",
                         in.c_str());
            return 2;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()),
                files.end());

    // Read every file up front.
    std::vector<std::string> contents(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        std::ifstream is(files[i], std::ios::binary);
        if (!is) {
            std::fprintf(stderr, "simlint: cannot read %s\n",
                         files[i].c_str());
            return 2;
        }
        std::ostringstream ss;
        ss << is.rdbuf();
        contents[i] = std::move(ss).str();
    }

    auto logicalFor = [&](const std::string &path) {
        if (!treatAs.empty())
            return treatAs;
        std::string p = normalPath(path);
        if (!rootPrefix.empty() &&
            p.rfind(rootPrefix + "/", 0) == 0)
            p = p.substr(rootPrefix.size() + 1);
        return p;
    };

    // Phase 1: per-file scan, parse and single-file rules.
    std::vector<FileResult> results(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        FileResult &r = results[i];
        try {
            r.sf = scanFile(files[i], logicalFor(files[i]),
                            contents[i]);
            r.syms = StructureParser(r.sf).run();
            Linter linter(fix);
            linter.lint(r.sf);
            r.diags = std::move(linter.diags);
            r.suppressed = linter.suppressed;
            r.fixesApplied = linter.fixesApplied;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "simlint: internal error: %s: %s\n",
                         files[i].c_str(), e.what());
            return 2;
        } catch (...) {
            std::fprintf(stderr,
                         "simlint: internal error: %s: unknown parse "
                         "failure\n",
                         files[i].c_str());
            return 2;
        }
    }

    // Phase 2: cross-TU rules over the merged symbol index.
    try {
        ProjectAnalyzer(results).run();
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "simlint: internal error: cross-TU analysis: "
                     "%s\n",
                     e.what());
        return 2;
    }

    // Deterministic merge: file order is sorted, per-file order is
    // rule order; position sort is stable across both.
    std::vector<Diagnostic> diags;
    RunTotals totals;
    std::size_t fixesApplied = 0;
    totals.fileCount = files.size();
    for (FileResult &r : results) {
        for (Diagnostic &d : r.diags)
            diags.push_back(std::move(d));
        totals.suppressed += r.suppressed;
        fixesApplied += r.fixesApplied;
    }
    std::stable_sort(diags.begin(), diags.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         if (a.path != b.path)
                             return a.path < b.path;
                         if (a.line != b.line)
                             return a.line < b.line;
                         return a.col < b.col;
                     });
    std::string outText;
    for (const auto &d : diags) {
        if (!d.advisory)
            ++totals.errors;
        outText += d.path + ":" + std::to_string(d.line) + ":" +
                   std::to_string(d.col) + ": " +
                   (d.advisory ? "note" : "error") + ": [" + d.rule +
                   "] " + d.message + "\n";
        if (!d.note.empty())
            outText += "    note: " + d.note + "\n";
    }
    totals.notes = diags.size() - totals.errors;
    std::fwrite(outText.data(), 1, outText.size(), stdout);

    if (!sarifPath.empty()) {
        std::ofstream os(sarifPath,
                         std::ios::binary | std::ios::trunc);
        os << sarifReport(diags);
        if (!os.good()) {
            std::fprintf(stderr, "simlint: cannot write %s\n",
                         sarifPath.c_str());
            return 2;
        }
    }
    printSummary(totals, fixesApplied);
    return totals.errors == 0 ? 0 : 1;
}
