// Spans of the traced run (--trace 1).
//
// A span is kept in memory for every call the benchmark makes into a
// module's public function: name, layer (the module), start, end, the
// enclosing span and the operation it belongs to. Operation spans also
// carry the scheduler counters read at their two boundaries, after
// quiescence. Spans are opened and closed on the benchmark's main
// thread only. With tracing off a span costs one branch.
#pragma once

#include "bench.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct op_counters
{
    double tasks = 0.0;
    double task_ns = 0.0;
    double overhead_ns = 0.0;
};

class span_log
{
public:
    static span_log& get() noexcept;

    void enable();
    // `read` waits for quiescence and reads the counters an operation
    // span records at its boundaries (zeros until it is set).
    void set_counter_reader(std::function<op_counters()> read);
    bool enabled() const noexcept { return enabled_; }

    std::size_t open(char const* name, char const* layer, bool operation);
    void close(std::size_t index);

    std::size_t size() const noexcept { return records_.size(); }

    // Span duration minus the part its child spans cover, summed per
    // layer, in seconds.
    std::map<std::string, double> self_seconds() const;

    // Spans, per-layer self times and `metrics` as one JSON document.
    bool write(std::string const& path, metric_map const& metrics) const;

private:
    struct record
    {
        char const* name = "";
        char const* layer = "";
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        std::int64_t parent = -1;
        std::uint64_t op = 0;
        bool operation = false;
        op_counters at_open;
        op_counters delta;
    };

    bool enabled_ = false;
    std::function<op_counters()> read_;
    std::vector<record> records_;
    std::vector<std::size_t> stack_;
    std::uint64_t next_op_ = 0;
};

// RAII span around one call into a module.
class span
{
public:
    span(char const* name, char const* layer, bool operation = false)
    {
        auto& log = span_log::get();
        if (log.enabled())
            index_ = log.open(name, layer, operation);
    }
    ~span()
    {
        if (index_ != npos)
            span_log::get().close(index_);
    }
    span(span const&) = delete;
    span& operator=(span const&) = delete;

private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t index_ = npos;
};

// RAII span of one benchmark operation (layer "bench").
class op_span : public span
{
public:
    explicit op_span(char const* name)
      : span(name, "bench", true)
    {
    }
};

}    // namespace perfbench
