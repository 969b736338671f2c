#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int
SpanRecorder::open(const std::string &name)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.start = now();
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    if (!enabled_ || id < 0)
        return;
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("span closed out of order: " +
                               spans_.at(id).name);
    spans_[id].end = now();
    stack_.pop_back();
}

std::vector<double>
SpanRecorder::selfSeconds() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    // Children of one parent never overlap (one thread, strictly
    // nested), so subtracting each child's duration removes exactly
    // the time the children cover.
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            self[span.parent] -= span.end - span.start;
    }
    return self;
}

std::map<std::string, double>
SpanRecorder::selfSecondsByName() const
{
    std::vector<double> self = selfSeconds();
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path,
                               const std::string &other_json) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                    "\"traceEvents\":[\n",
                 other_json.c_str());
    std::vector<double> self = selfSeconds();
    std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":1,\"args\":{\"name\":\"perfbench\"}}");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     ",\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%d,\"self_us\":%.3f}}",
                     jsonQuote(s.name).c_str(), s.start * 1e6,
                     (s.end - s.start) * 1e6, i, s.parent,
                     self[i] * 1e6);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace perfbench
