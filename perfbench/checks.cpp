#include "checks.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace tb = minihpx::taskbench;

namespace {

    std::string format(char const* fmt, auto... args)
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf), fmt, args...);
        return buf;
    }

    constexpr std::uint64_t mix64(std::uint64_t x) noexcept
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
        return x;
    }

}    // namespace

bool check_log::expect(std::string_view name, verdict const& v)
{
    if (!v)
    {
        ++passed_;
        return true;
    }
    failures_.push_back(std::string(name) + ": " + *v);
    return false;
}

void check_log::note_failure(std::string_view operation, std::string_view why)
{
    failed_operations_.push_back(std::string(operation) + ": " + std::string(why));
}

// ---- Task Bench ----------------------------------------------------------

graph_reference reference_graph(tb::graph_spec const& spec)
{
    unsigned const words = spec.payload_words;
    std::vector<std::uint64_t> prev(std::size_t(spec.width) * words);
    std::vector<std::uint64_t> cur(prev.size());
    graph_reference ref;
    for (unsigned t = 0; t != spec.steps; ++t)
    {
        for (unsigned x = 0; x != spec.width; ++x)
        {
            std::uint64_t acc = tb::point_hash(spec.seed, t, x);
            tb::dep_list const deps = tb::dependencies(spec, t, x);
            ref.edges += deps.count;
            for (unsigned i = 0; i != deps.count; ++i)
                acc ^= prev[std::size_t(deps.idx[i]) * words];
            for (unsigned w = 0; w != words; ++w)
                cur[std::size_t(x) * words + w] = acc + w;
        }
        prev.swap(cur);
    }
    // The executor's fold of the last timestep: avalanche every word,
    // then XOR.
    for (std::size_t i = 0; i != prev.size(); ++i)
    {
        std::uint64_t v = prev[i] + 0x9e3779b97f4a7c15ull * (i + 1);
        v ^= v >> 33;
        v *= 0xff51afd7ed558ccdull;
        v ^= v >> 33;
        ref.checksum ^= v;
    }
    return ref;
}

verdict check_graph(graph_reference const& expected, std::uint64_t checksum,
    std::uint64_t edges)
{
    if (checksum != expected.checksum)
        return format("checksum 0x%016llx, serial recomputation 0x%016llx",
            static_cast<unsigned long long>(checksum),
            static_cast<unsigned long long>(expected.checksum));
    if (edges != expected.edges)
        return format("%llu edges, serial recomputation %llu",
            static_cast<unsigned long long>(edges),
            static_cast<unsigned long long>(expected.edges));
    return std::nullopt;
}

// ---- Inncabs ---------------------------------------------------------------

std::uint64_t fib_iterative(int n)
{
    std::uint64_t a = 0, b = 1;
    for (int i = 0; i < n; ++i)
    {
        std::uint64_t const next = a + b;
        a = b;
        b = next;
    }
    return a;
}

std::uint64_t fib_tasks(int n)
{
    return n < 2 ? 0 : fib_iterative(n + 1) - 1;
}

verdict check_fib(int n, std::uint64_t value)
{
    std::uint64_t const expected = fib_iterative(n);
    if (value != expected)
        return format("fib(%d) returned %llu, F(%d) = %llu", n,
            static_cast<unsigned long long>(value), n,
            static_cast<unsigned long long>(expected));
    return std::nullopt;
}

multiset_hash hash_keys(std::span<std::uint32_t const> keys)
{
    multiset_hash h;
    for (std::uint32_t k : keys)
    {
        h.a += mix64(k);
        h.b += mix64(std::uint64_t(k) ^ 0x5851f42d4c957f2dull);
    }
    return h;
}

std::uint64_t sort_tasks(std::size_t n, std::size_t cutoff)
{
    if (n <= cutoff)
        return 0;
    std::size_t const half = n / 2;
    return 1 + sort_tasks(half, cutoff) + sort_tasks(n - half, cutoff);
}

verdict check_sorted(
    std::span<std::uint32_t const> out, multiset_hash const& input)
{
    auto const it = std::is_sorted_until(out.begin(), out.end());
    if (it != out.end())
        return format("out of order at index %zu of %zu",
            static_cast<std::size_t>(it - out.begin()), out.size());
    if (!(hash_keys(out) == input))
        return std::string("output is not a permutation of the input "
                           "(multiset hash differs)");
    return std::nullopt;
}

verdict check_matmul(std::vector<double> const& a,
    std::vector<double> const& b, std::vector<double> const& c,
    std::size_t n)
{
    if (a.size() != n * n || b.size() != n * n || c.size() != n * n)
        return std::string("matrix size mismatch");
    std::vector<double> bt(n * n);
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t j = 0; j < n; ++j)
            bt[j * n + k] = b[k * n + j];
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
        {
            double dot = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                dot += a[i * n + k] * bt[j * n + k];
            if (c[i * n + j] != dot)
                return format("C(%zu,%zu) = %.17g, ascending-k dot product "
                              "%.17g",
                    i, j, c[i * n + j], dot);
        }
    return std::nullopt;
}

// ---- remote ----------------------------------------------------------------

std::uint64_t chunk_digest(std::span<std::uint8_t const> bytes, unsigned i)
{
    std::size_t const begin = bytes.size() * i / remote_chunks;
    std::size_t const end = bytes.size() * (i + 1) / remote_chunks;
    std::uint64_t h = 0xcbf29ce484222325ull ^ mix64(i + 1);
    for (std::size_t k = begin; k < end; ++k)
    {
        h ^= bytes[k];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t combine_digests(
    std::size_t size, std::span<std::uint64_t const> chunks)
{
    std::uint64_t d = mix64(size);
    for (std::uint64_t h : chunks)
        d = mix64(d ^ h);
    return d;
}

std::uint64_t remote_digest(std::span<std::uint8_t const> payload)
{
    std::uint64_t chunks[remote_chunks];
    for (unsigned i = 0; i < remote_chunks; ++i)
        chunks[i] = chunk_digest(payload, i);
    return combine_digests(payload.size(), chunks);
}

verdict check_reply(std::uint64_t expected, std::uint64_t reply)
{
    if (reply != expected)
        return format("reply 0x%016llx, client computed 0x%016llx",
            static_cast<unsigned long long>(reply),
            static_cast<unsigned long long>(expected));
    return std::nullopt;
}

// ---- trace -------------------------------------------------------------------

verdict check_trace(
    trace_facts const& t, std::uint64_t expected_tasks, unsigned workers)
{
    if (!t.loaded)
        return "strict loader refused the trace: " + t.load_error;
    if (t.dropped != 0)
        return format("%llu events dropped",
            static_cast<unsigned long long>(t.dropped));
    if (t.tasks != expected_tasks)
        return format("%llu tasks in the trace, analytic count %llu",
            static_cast<unsigned long long>(t.tasks),
            static_cast<unsigned long long>(expected_tasks));
    if (t.tasks_ended != t.tasks)
        return format("%llu of %llu tasks end",
            static_cast<unsigned long long>(t.tasks_ended),
            static_cast<unsigned long long>(t.tasks));
    if (t.span_ns > t.makespan_ns)
        return format("span %llu ns exceeds makespan %llu ns",
            static_cast<unsigned long long>(t.span_ns),
            static_cast<unsigned long long>(t.makespan_ns));
    if (t.work_ns > std::uint64_t(workers) * t.makespan_ns)
        return format("work %llu ns exceeds %u workers x makespan %llu ns",
            static_cast<unsigned long long>(t.work_ns), workers,
            static_cast<unsigned long long>(t.makespan_ns));
    return std::nullopt;
}

// ---- runtime counters ----------------------------------------------------

verdict check_task_total(std::uint64_t expected, double counted)
{
    if (counted != static_cast<double>(expected))
        return format("counter reads %.0f tasks, analytic count %llu",
            counted, static_cast<unsigned long long>(expected));
    return std::nullopt;
}

verdict check_time_budget(double task_time_s, double overhead_s,
    unsigned workers, double wall_s)
{
    // Slack for the one clock read per worker that may straddle the
    // window edge: the overhead of the task that ended last before the
    // window opened is added after that task stops counting as alive.
    double const slack_s = 1e-4 * workers;
    if (task_time_s + overhead_s > workers * wall_s + slack_s)
        return format("task time %.6f s + overhead %.6f s exceeds %u "
                      "workers x wall %.6f s",
            task_time_s, overhead_s, workers, wall_s);
    return std::nullopt;
}

}    // namespace perfbench
