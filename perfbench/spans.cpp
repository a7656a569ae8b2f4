#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {

    std::uint64_t now_ns() noexcept
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                steady::now().time_since_epoch())
                .count());
    }

}    // namespace

span_log& span_log::get() noexcept
{
    static span_log log;
    return log;
}

void span_log::enable()
{
    records_.reserve(1 << 16);
    enabled_ = true;
}

void span_log::set_counter_reader(std::function<op_counters()> read)
{
    read_ = std::move(read);
}

std::size_t span_log::open(char const* name, char const* layer, bool operation)
{
    record r;
    r.name = name;
    r.layer = layer;
    r.operation = operation;
    if (!stack_.empty())
    {
        r.parent = static_cast<std::int64_t>(stack_.back());
        r.op = records_[stack_.back()].op;
    }
    if (operation)
    {
        r.op = ++next_op_;
        if (read_)
            r.at_open = read_();
    }
    r.start_ns = now_ns();
    records_.push_back(r);
    stack_.push_back(records_.size() - 1);
    return records_.size() - 1;
}

void span_log::close(std::size_t index)
{
    record& r = records_[index];
    r.end_ns = now_ns();
    if (r.operation && read_)
    {
        op_counters const c = read_();
        r.delta = {c.tasks - r.at_open.tasks, c.task_ns - r.at_open.task_ns,
            c.overhead_ns - r.at_open.overhead_ns};
    }
    stack_.pop_back();
}

std::map<std::string, double> span_log::self_seconds() const
{
    std::vector<std::uint64_t> child_ns(records_.size(), 0);
    for (record const& r : records_)
        if (r.parent >= 0)
            child_ns[static_cast<std::size_t>(r.parent)] +=
                r.end_ns - r.start_ns;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < records_.size(); ++i)
    {
        record const& r = records_[i];
        self[r.layer] +=
            static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) * 1e-9;
    }
    return self;
}

bool span_log::write(std::string const& path, metric_map const& metrics) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n  \"metrics\": {");
    char const* sep = "\n";
    for (auto const& [name, m] : metrics)
    {
        std::fprintf(f, "%s    \"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
            sep, name.c_str(), m.value, m.unit.c_str());
        sep = ",\n";
    }
    std::fprintf(f, "\n  },\n  \"layer_self_s\": {");
    sep = "\n";
    for (auto const& [layer, s] : self_seconds())
    {
        std::fprintf(f, "%s    \"%s\": %.9f", sep, layer.c_str(), s);
        sep = ",\n";
    }
    std::fprintf(f, "\n  },\n  \"spans\": [");
    sep = "\n";
    for (record const& r : records_)
    {
        std::fprintf(f,
            "%s    {\"name\": \"%s\", \"layer\": \"%s\", \"start_ns\": %llu, "
            "\"end_ns\": %llu, \"parent\": %lld, \"op\": %llu",
            sep, r.name, r.layer, static_cast<unsigned long long>(r.start_ns),
            static_cast<unsigned long long>(r.end_ns),
            static_cast<long long>(r.parent),
            static_cast<unsigned long long>(r.op));
        if (r.operation)
            std::fprintf(f,
                ", \"tasks\": %.0f, \"task_ns\": %.0f, \"overhead_ns\": %.0f",
                r.delta.tasks, r.delta.task_ns, r.delta.overhead_ns);
        std::fprintf(f, "}");
        sep = ",\n";
    }
    std::fprintf(f, "\n  ]\n}\n");
    return std::fclose(f) == 0;
}

}    // namespace perfbench
