/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span brackets one call into a CMTL layer (elaborate, partition,
 * simulator construction, a measured or reference chunk). Spans nest
 * through an explicit stack: a span opened while another is open
 * records that one as its parent. Everything stays in memory until the
 * run ends, then writeChromeTrace() emits Chrome trace-event JSON
 * (complete "X" events), the format Perfetto and chrome://tracing
 * read.
 *
 * Timing and recording are separate: a SpanScope always measures its
 * own duration, so the untraced run times the same calls through the
 * same code, but only an enabled recorder stores spans.
 */
#ifndef CMTL_PERFBENCH_TRACE_H
#define CMTL_PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; //!< seconds since the recorder was created
        double end = 0.0;
        int parent = -1; //!< index into spans(), -1 for a root span
    };

    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    const std::vector<Span> &spans() const { return spans_; }

    /** Seconds since construction. */
    double now() const;

    /** Open a span under the innermost open span; -1 when disabled. */
    int open(const std::string &name);
    /** Close span @p id (must be the innermost open span). */
    void close(int id);

    /** Per span: duration minus the time its direct children cover. */
    std::vector<double> selfSeconds() const;
    /** Summed self time per span name. */
    std::map<std::string, double> selfSecondsByName() const;

    /**
     * Write every span as a Chrome trace-event document. @p other_json
     * is a JSON object embedded verbatim as "otherData" (the host
     * record). Returns false when the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path,
                          const std::string &other_json) const;

  private:
    using Clock = std::chrono::steady_clock;
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * RAII span: times its lifetime and, when the recorder is enabled,
 * records it. close() ends it early and returns the duration.
 */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, const std::string &name)
        : rec_(rec), id_(rec.open(name)), start_(rec.now())
    {
    }
    ~SpanScope() { close(); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    double
    close()
    {
        if (!closed_) {
            seconds_ = rec_.now() - start_;
            rec_.close(id_);
            closed_ = true;
        }
        return seconds_;
    }

  private:
    SpanRecorder &rec_;
    int id_;
    double start_;
    double seconds_ = 0.0;
    bool closed_ = false;
};

/** JSON string literal with quotes and escapes. */
std::string jsonQuote(const std::string &s);

} // namespace perfbench

#endif // CMTL_PERFBENCH_TRACE_H
