#include "obs/trace.hh"

#include <array>

#include "arch/instruction.hh"
#include "obs/json.hh"

namespace last::obs
{

uint64_t
TraceStream::intern(const std::string &s)
{
    for (size_t i = 0; i < strings.size(); ++i)
        if (strings[i] == s)
            return i;
    strings.push_back(s);
    return strings.size() - 1;
}

TraceStream *
TraceSink::makeStream(const std::string &name, uint32_t tid)
{
    std::lock_guard<std::mutex> lock(mu);
    streams.emplace_back();
    TraceStream &s = streams.back();
    s.name_ = name;
    s.tid_ = tid;
    s.cap = cap;
    s.ev.reserve(std::min(cap, size_t(4096)));
    return &s;
}

size_t
TraceSink::numStreams() const
{
    std::lock_guard<std::mutex> lock(mu);
    return streams.size();
}

uint64_t
TraceSink::totalEvents() const
{
    std::lock_guard<std::mutex> lock(mu);
    uint64_t n = 0;
    for (const TraceStream &s : streams)
        n += s.ev.size();
    return n;
}

uint64_t
TraceSink::totalDropped() const
{
    std::lock_guard<std::mutex> lock(mu);
    uint64_t n = 0;
    for (const TraceStream &s : streams)
        n += s.droppedCount;
    return n;
}

namespace
{

/** Chrome event name + phase + arg labels for each kind. */
struct KindInfo
{
    const char *name;
    bool span; ///< true: "X" complete event; false: "i" instant
    const char *arg0Label;
    const char *arg1Label;
};

KindInfo
kindInfo(TraceKind k)
{
    switch (k) {
      case TraceKind::InstIssue:
        return {"inst", true, "slot", "pc"};
      case TraceKind::IbFlush:
        return {"ib_flush", false, "slot", "flushed"};
      case TraceKind::RsPush:
        return {"rs_push", false, "slot", "depth"};
      case TraceKind::RsPop:
        return {"rs_pop", false, "slot", "depth"};
      case TraceKind::DepStall:
        return {"dep_stall", true, "slot", "kind"};
      case TraceKind::WfStart:
        return {"wf_start", false, "slot", "wg"};
      case TraceKind::WfEnd:
        return {"wf_end", false, "slot", "wg"};
      case TraceKind::CacheMiss:
        return {"miss", true, "addr", "write"};
      case TraceKind::KernelDispatch:
        return {"kernel", true, "name", nullptr};
      case TraceKind::IdleSkip:
        return {"idle_skip", true, "skipped", nullptr};
      case TraceKind::Watchdog:
        return {"watchdog", false, "reason", nullptr};
    }
    return {"event", false, "arg0", "arg1"};
}

void
writeEvent(std::ostream &os, const TraceStream &s, const TraceEvent &e,
           bool &first)
{
    KindInfo info = kindInfo(e.kind);

    // A few kinds refine the generic mapping: InstIssue takes its name
    // from the issue class packed into arg1, DepStall from the stall
    // flavour, and the string-carrying kinds resolve their string id.
    std::string name = info.name;
    std::string args;
    switch (e.kind) {
      case TraceKind::InstIssue:
        name = arch::instClassName(arch::InstClass(e.arg1 & 0xf));
        args.append("\"slot\":").append(jsonNumber(double(e.arg0)))
            .append(",\"pc\":").append(jsonNumber(double(e.arg1 >> 4)));
        break;
      case TraceKind::DepStall:
        name = e.arg1 ? "waitcnt_stall" : "scoreboard_stall";
        args.append("\"slot\":").append(jsonNumber(double(e.arg0)));
        break;
      case TraceKind::KernelDispatch:
      case TraceKind::Watchdog:
        args.append("\"").append(info.arg0Label).append("\":\"")
            .append(jsonEscape(s.string(e.arg0))).append("\"");
        break;
      default:
        args.append("\"").append(info.arg0Label).append("\":")
            .append(jsonNumber(double(e.arg0)));
        if (info.arg1Label)
            args.append(",\"").append(info.arg1Label).append("\":")
                .append(jsonNumber(double(e.arg1)));
    }
    if (e.kind == TraceKind::KernelDispatch)
        name = "kernel " + s.string(e.arg0);

    if (!first)
        os << ",\n";
    first = false;
    os << "{\"name\":\"" << jsonEscape(name) << "\",\"ph\":\""
       << (info.span ? 'X' : 'i') << "\",\"pid\":1,\"tid\":" << s.tid()
       << ",\"ts\":" << e.ts;
    if (info.span)
        os << ",\"dur\":" << (e.dur ? e.dur : 1);
    else
        os << ",\"s\":\"t\"";
    os << ",\"args\":{" << args << "}}";
}

} // namespace

void
TraceSink::writeChromeTrace(std::ostream &os, const TraceMeta &meta) const
{
    std::lock_guard<std::mutex> lock(mu);

    os << "{\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{"
       << "\"schema\":\"last-trace-v1\""
       << ",\"workload\":\"" << jsonEscape(meta.workload) << "\""
       << ",\"isa\":\"" << jsonEscape(meta.isa) << "\""
       << ",\"scale\":" << jsonNumber(meta.scale)
       << ",\"seed\":" << jsonNumber(double(meta.seed))
       << ",\"fault_plan\":\"" << jsonEscape(meta.faultPlan) << "\""
       << ",\"time_unit\":\"1 ts = 1 GPU cycle\"},\n\"traceEvents\":[\n";

    bool first = true;

    // Metadata events: name the process and one viewer track per stream.
    std::string proc = meta.workload.empty() ? std::string("last")
                                             : meta.workload;
    if (!meta.isa.empty())
        proc += "/" + meta.isa;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
       << "\"args\":{\"name\":\"" << jsonEscape(proc) << "\"}}";
    first = false;
    for (const TraceStream &s : streams) {
        os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           << "\"tid\":" << s.tid() << ",\"args\":{\"name\":\""
           << jsonEscape(s.threadName()) << "\"}}";
        os << ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
           << "\"tid\":" << s.tid() << ",\"args\":{\"sort_index\":"
           << s.tid() << "}}";
    }

    for (const TraceStream &s : streams)
        for (const TraceEvent &e : s.ev)
            writeEvent(os, s, e, first);

    os << "\n]}\n";
}

} // namespace last::obs
