#include "sim/bench_cache.hh"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "common/error.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace last::sim
{

namespace
{

/** Canonical workload rank: position in allWorkloadNames(); unknown
 *  names sort after every known one, alphabetically. */
size_t
workloadRank(const std::string &name)
{
    static const std::vector<std::string> names =
        workloads::allWorkloadNames();
    for (size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return i;
    return names.size();
}

/** Round-trip-exact double formatting (integers stay integral, the
 *  rest print with max_digits10) — the same rule the JSON writers
 *  use, so cached statistics reconstruct bit-exactly. */
std::string
num(double v)
{
    return obs::jsonNumber(v);
}

std::string
sanitizeMessage(const std::string &s)
{
    // The message is the last field of a one-line record: newlines
    // would truncate it, so flatten them. Commas are fine (the reader
    // consumes the rest of the line).
    std::string out = s;
    for (char &c : out)
        if (c == '\n' || c == '\r')
            c = ' ';
    return out;
}

void
writeRow(std::ostream &os, const CachedRun &row)
{
    const AppResult &r = row.result;
    if (r.quarantined) {
        os << "quarantine," << row.key.workload << ','
           << isaName(row.key.isa) << ',' << row.key.seed << ','
           << row.key.knobDigest << ',' << r.errorKind << ','
           << sanitizeMessage(r.errorMessage) << '\n';
        return;
    }
    os << r.workload << ',' << isaName(r.isa);
    for (const StatField &f : kStatFields) {
        os << ',';
        visitStat(f, [&os](auto v) {
            if constexpr (std::is_same_v<decltype(v), double>)
                os << num(v);
            else
                os << v;
        }, r);
    }
    os << ',' << row.key.seed << ',' << row.key.knobDigest << '\n';
    for (const auto &l : r.launches)
        os << "launch," << l.kernel << ',' << l.cycles << ','
           << l.instsIssued << '\n';
    os << "end\n";
}

// --------------------------------------------------------------------
// Strict parsing machinery (v6). The whole stream is buffered so every
// line knows its byte offset; any malformation throws ConfigError
// naming the source and that offset — the satellite contract for torn
// input is "loud failure with path and byte offset", so none of these
// paths may fall back to std exceptions or partial success.
// --------------------------------------------------------------------

[[noreturn]] void
failCache(const std::string &source, const std::string &what,
          size_t offset)
{
    throw ConfigError("bench cache " + source + ": " + what +
                          " at byte " + std::to_string(offset),
                      __FILE__, __LINE__);
}

/** Line iterator over a buffered file that tracks the byte offset of
 *  each line and whether it carried its '\n' terminator (a missing
 *  one on the last line is the signature of a torn write). */
struct LineReader
{
    const std::string &s;
    size_t pos = 0;
    size_t lineOffset = 0;
    bool terminated = true;

    explicit LineReader(const std::string &text) : s(text) {}

    bool
    next(std::string &line)
    {
        if (pos >= s.size())
            return false;
        lineOffset = pos;
        size_t nl = s.find('\n', pos);
        if (nl == std::string::npos) {
            line = s.substr(pos);
            pos = s.size();
            terminated = false;
        } else {
            line = s.substr(pos, nl - pos);
            pos = nl + 1;
            terminated = true;
        }
        return true;
    }
};

/** Comma-separated field cursor for one line; all accessors throw
 *  ConfigError (via failCache) instead of leaking std::stoull's
 *  invalid_argument/out_of_range on garbage tokens. */
struct FieldCursor
{
    std::istringstream ls;
    const std::string &source;
    size_t offset;

    FieldCursor(const std::string &line, const std::string &src,
                size_t off)
        : ls(line), source(src), offset(off)
    {}

    std::string
    next(const char *field)
    {
        std::string tok;
        if (!std::getline(ls, tok, ','))
            failCache(source,
                      std::string("truncated cache row (missing field "
                                  "'") + field + "')",
                      offset);
        return tok;
    }

    uint64_t
    u64(const char *field)
    {
        std::string tok = next(field);
        try {
            if (tok.empty() || tok[0] == '-')
                throw std::invalid_argument("negative or empty");
            size_t used = 0;
            uint64_t v = std::stoull(tok, &used);
            if (used != tok.size())
                throw std::invalid_argument("trailing junk");
            return v;
        } catch (const std::exception &) {
            failCache(source,
                      std::string("field '") + field +
                          "' is not a u64 ('" + tok + "')",
                      offset);
        }
    }

    double
    f64(const char *field)
    {
        std::string tok = next(field);
        try {
            size_t used = 0;
            double v = std::stod(tok, &used);
            if (used != tok.size())
                throw std::invalid_argument("trailing junk");
            return v;
        } catch (const std::exception &) {
            failCache(source,
                      std::string("field '") + field +
                          "' is not a number ('" + tok + "')",
                      offset);
        }
    }

    /** A bool column holds exactly "0" or "1", so a strict parse
     *  followed by a write reproduces the bytes. */
    bool
    flag(const char *field)
    {
        std::string tok = next(field);
        if (tok != "0" && tok != "1")
            failCache(source,
                      std::string("field '") + field +
                          "' is not a bool ('" + tok + "')",
                      offset);
        return tok == "1";
    }

    void read(const char *field, uint64_t &v) { v = u64(field); }
    void read(const char *field, double &v) { v = f64(field); }
    void read(const char *field, bool &v) { v = flag(field); }

    std::string
    rest()
    {
        std::string tail;
        std::getline(ls, tail); // rest of line, commas and all
        return tail;
    }
};

IsaKind
parseIsaTag(const std::string &isa, const std::string &source,
            size_t offset)
{
    IsaKind out;
    if (isaFromName(isa, out))
        return out;
    failCache(source, "bad ISA tag '" + isa + "'", offset);
}

} // namespace

CacheKey
specCacheKey(const RunSpec &spec)
{
    CacheKey k;
    k.workload = spec.workload;
    k.isa = spec.isa;
    k.seed = spec.scale.seed;
    k.knobDigest = workloads::kernelParamsDigest(spec.scale);
    return k;
}

bool
cacheKeyLess(const CacheKey &a, const CacheKey &b)
{
    size_t ra = workloadRank(a.workload), rb = workloadRank(b.workload);
    if (ra != rb)
        return ra < rb;
    if (a.workload != b.workload)
        return a.workload < b.workload;
    if (a.isa != b.isa) {
        // AllIsas order (HSAIL < GCN3 < PTXL), like the canonical
        // matrix — a total order, so a GCN3 row and a PTXL row for
        // the same spec can never compare equivalent and alias.
        return unsigned(a.isa) < unsigned(b.isa);
    }
    if (a.seed != b.seed)
        return a.seed < b.seed;
    return a.knobDigest < b.knobDigest;
}

const CachedRun *
BenchCacheFile::find(const CacheKey &key) const
{
    for (const CachedRun &row : rows)
        if (row.key == key)
            return &row;
    return nullptr;
}

void
writeBenchCache(std::ostream &os, const BenchCacheFile &cache)
{
    std::vector<const CachedRun *> ordered;
    ordered.reserve(cache.rows.size());
    for (const CachedRun &row : cache.rows)
        ordered.push_back(&row);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const CachedRun *a, const CachedRun *b) {
                         return cacheKeyLess(a->key, b->key);
                     });
    os << "last-bench-cache v" << BenchCacheVersion
       << " scale=" << cache.scale << "\n";
    for (const CachedRun *row : ordered)
        writeRow(os, *row);
    os << "eof," << ordered.size() << "\n";
}

void
readBenchCacheStrict(std::istream &is, BenchCacheFile &out,
                     const std::string &source)
{
    out = BenchCacheFile{};
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    LineReader lr(text);
    std::string line;
    if (!lr.next(line))
        failCache(source, "empty file", 0);

    int ver = 0;
    double scale = 0;
    if (std::sscanf(line.c_str(), "last-bench-cache v%d scale=%lf",
                    &ver, &scale) != 2)
        failCache(source, "malformed header '" + line + "'", 0);
    if (ver != BenchCacheVersion) {
        // A version mismatch discards real simulation results, so it
        // must be loud, not a silent miss.
        failCache(source,
                  "has version " + std::to_string(ver) + " (current v" +
                      std::to_string(BenchCacheVersion) + ")",
                  0);
    }
    if (!lr.terminated)
        failCache(source, "unterminated header line (torn write?)", 0);
    out.scale = scale;

    bool sawEof = false;
    while (lr.next(line)) {
        const size_t off = lr.lineOffset;
        if (!lr.terminated)
            failCache(source, "unterminated final line (torn write?)",
                      off);
        if (line.empty())
            failCache(source, "blank line inside cache", off);

        if (line.compare(0, 4, "eof,") == 0) {
            FieldCursor fc(line, source, off);
            fc.next("eof");
            uint64_t count = fc.u64("row count");
            if (count != out.rows.size())
                failCache(source,
                          "eof trailer claims " + std::to_string(count) +
                              " rows but " +
                              std::to_string(out.rows.size()) +
                              " were present — truncated or torn file",
                          off);
            sawEof = true;
            if (lr.next(line))
                failCache(source, "trailing bytes after eof trailer",
                          lr.lineOffset);
            break;
        }

        CachedRun row;
        AppResult &r = row.result;
        FieldCursor fc(line, source, off);
        std::string first = fc.next("workload");
        if (first == "quarantine") {
            row.key.workload = fc.next("workload");
            row.key.isa =
                parseIsaTag(fc.next("isa"), source, off);
            row.key.seed = fc.u64("seed");
            row.key.knobDigest = fc.u64("knobs");
            r.workload = row.key.workload;
            r.isa = row.key.isa;
            r.quarantined = true;
            r.errorKind = fc.next("kind");
            r.errorMessage = fc.rest();
        } else {
            r.workload = first;
            r.isa = parseIsaTag(fc.next("isa"), source, off);
            for (const StatField &f : kStatFields)
                visitStat(f, [&](auto &v) { fc.read(f.name, v); }, r);
            row.key.workload = r.workload;
            row.key.isa = r.isa;
            row.key.seed = fc.u64("seed");
            row.key.knobDigest = fc.u64("knobs");

            // launch rows until "end"
            bool ended = false;
            while (lr.next(line)) {
                const size_t loff = lr.lineOffset;
                if (!lr.terminated)
                    failCache(source,
                              "unterminated final line (torn write?)",
                              loff);
                if (line == "end") {
                    ended = true;
                    break;
                }
                FieldCursor lc(line, source, loff);
                std::string tag = lc.next("tag");
                if (tag != "launch")
                    failCache(source,
                              "expected 'launch' or 'end', got '" +
                                  tag + "'",
                              loff);
                std::string kernel = lc.next("kernel");
                uint64_t cyc = lc.u64("cycles");
                uint64_t insts = lc.u64("insts");
                r.launches.push_back({kernel, cyc, insts});
            }
            if (!ended)
                failCache(source,
                          "truncated result row (missing 'end')", off);
        }

        if (out.find(row.key))
            failCache(source,
                      "duplicate row for " + row.key.workload + "/" +
                          isaName(row.key.isa) + " seed " +
                          std::to_string(row.key.seed),
                      off);
        out.rows.push_back(std::move(row));
    }

    if (!sawEof)
        failCache(source,
                  "missing eof trailer — truncated or pre-v6 file",
                  text.size());
}

bool
readBenchCache(std::istream &is, BenchCacheFile &out,
               const std::string &source)
{
    out = BenchCacheFile{};
    if (is.peek() == std::char_traits<char>::eof())
        return false; // absent or empty stream: a miss, not damage
    try {
        readBenchCacheStrict(is, out, source);
        return true;
    } catch (const SimError &e) {
        warn("bench cache %s rejected (%s); discarding %zu parsed "
             "rows — the sweep will re-simulate",
             source.c_str(), e.message().c_str(), out.rows.size());
        out = BenchCacheFile{};
        return false;
    }
}

size_t
dropQuarantinedRows(BenchCacheFile &cache, const std::string &source)
{
    size_t dropped = 0;
    std::vector<CachedRun> kept;
    kept.reserve(cache.rows.size());
    for (CachedRun &row : cache.rows) {
        if (row.result.quarantined) {
            warn("bench cache %s: dropping quarantined row %s/%s "
                 "(%s: %s) — that spec will be re-simulated",
                 source.c_str(), row.key.workload.c_str(),
                 isaName(row.key.isa), row.result.errorKind.c_str(),
                 row.result.errorMessage.c_str());
            ++dropped;
            continue;
        }
        kept.push_back(std::move(row));
    }
    cache.rows = std::move(kept);
    return dropped;
}

BenchCacheFile
mergeBenchCaches(const std::vector<BenchCacheFile> &parts)
{
    BenchCacheFile merged;
    bool first = true;
    for (const BenchCacheFile &part : parts) {
        if (first) {
            merged.scale = part.scale;
            first = false;
        } else {
            fatal_if(part.scale != merged.scale,
                     "cannot merge bench caches at different scales "
                     "(%g vs %g)",
                     part.scale, merged.scale);
        }
        for (const CachedRun &row : part.rows) {
            if (const CachedRun *have = merged.find(row.key)) {
                // Overlapping shards legitimately duplicate rows; a
                // deterministic simulator produces identical stats, so
                // anything else is a red flag worth shouting about.
                std::ostringstream a, b;
                writeRow(a, *have);
                writeRow(b, row);
                if (a.str() != b.str())
                    warn("merge: conflicting duplicate for %s/%s "
                         "(seed %llu); keeping the first occurrence",
                         row.key.workload.c_str(),
                         isaName(row.key.isa),
                         (unsigned long long)row.key.seed);
                continue;
            }
            merged.rows.push_back(row);
        }
    }
    return merged;
}

} // namespace last::sim
