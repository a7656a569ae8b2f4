// Output checks. Every expected value here is computed by the benchmark
// on its own (serial recomputations, analytic counts, properties the
// method must have), never read from a stored copy of earlier output.
// Each checker returns nullopt when the output passes and the reason
// otherwise; selftest.cpp feeds every checker a corrupted output and
// requires the rejection.
#pragma once

#include <minihpx/taskbench/graph.hpp>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using verdict = std::optional<std::string>;

// Collects check outcomes and failed operations of one run.
class check_log
{
public:
    // Records one check; returns true when it passed.
    bool expect(std::string_view name, verdict const& v);
    void note_failure(std::string_view operation, std::string_view why);

    // Whether every check of an operation that did not fail passed;
    // failed operations are counted apart.
    bool ok() const noexcept { return failures_.empty(); }
    std::uint64_t passed() const noexcept { return passed_; }
    std::vector<std::string> const& failures() const noexcept
    {
        return failures_;
    }
    std::vector<std::string> const& failed_operations() const noexcept
    {
        return failed_operations_;
    }

private:
    std::uint64_t passed_ = 0;
    std::vector<std::string> failures_;
    std::vector<std::string> failed_operations_;
};

// ---- Task Bench ----------------------------------------------------------
struct graph_reference
{
    std::uint64_t checksum = 0;
    std::uint64_t edges = 0;
};

// Serial recomputation of a graph's payload checksum and edge count from
// taskbench::dependencies() and taskbench::point_hash().
graph_reference reference_graph(minihpx::taskbench::graph_spec const& spec);

verdict check_graph(graph_reference const& expected, std::uint64_t checksum,
    std::uint64_t edges);

// ---- Inncabs ---------------------------------------------------------------
std::uint64_t fib_iterative(int n);
// Tasks spawned by one fib(n) call made from outside a task: F(n+1) - 1.
std::uint64_t fib_tasks(int n);
verdict check_fib(int n, std::uint64_t value);

// Order-independent hash of a key multiset (two independent sums of
// mixed keys), so a permutation check costs one pass.
struct multiset_hash
{
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    bool operator==(multiset_hash const&) const = default;
};
multiset_hash hash_keys(std::span<std::uint32_t const> keys);

// Tasks one sort_bench::sort_task(n, cutoff) call spawns.
std::uint64_t sort_tasks(std::size_t n, std::size_t cutoff);
verdict check_sorted(
    std::span<std::uint32_t const> out, multiset_hash const& input);

// Every C(i,j) against the ascending-k dot product of row i of A and
// column j of B (both orders add the same products in the same order,
// so the comparison is exact).
verdict check_matmul(std::vector<double> const& a,
    std::vector<double> const& b, std::vector<double> const& c,
    std::size_t n);

// ---- remote ----------------------------------------------------------------
// The reply the remote handler computes with a fork/join over
// `remote_chunks` chunks; the client computes the same value serially.
inline constexpr unsigned remote_chunks = 4;
std::uint64_t chunk_digest(std::span<std::uint8_t const> bytes, unsigned i);
std::uint64_t combine_digests(
    std::size_t size, std::span<std::uint64_t const> chunks);
std::uint64_t remote_digest(std::span<std::uint8_t const> payload);
verdict check_reply(std::uint64_t expected, std::uint64_t reply);

// ---- trace -------------------------------------------------------------------
struct trace_facts
{
    bool loaded = false;    // strict loader accepted the file
    std::string load_error;
    std::uint64_t dropped = 0;
    std::uint64_t tasks = 0;
    std::uint64_t tasks_ended = 0;
    std::uint64_t span_ns = 0;
    std::uint64_t makespan_ns = 0;
    std::uint64_t work_ns = 0;
};
verdict check_trace(trace_facts const& t, std::uint64_t expected_tasks,
    unsigned workers);

// ---- runtime counters ----------------------------------------------------
verdict check_task_total(std::uint64_t expected, double counted);
// Task time plus scheduling overhead cannot exceed workers x wall.
verdict check_time_budget(double task_time_s, double overhead_s,
    unsigned workers, double wall_s);

// Feeds every checker a correct and a corrupted output; 0 when each
// accepts the first and rejects the second.
int run_selftest(std::string const& out_dir);

}    // namespace perfbench
