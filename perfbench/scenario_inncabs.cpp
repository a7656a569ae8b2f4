// inncabs: fib at the paper's n = 27 with empty bodies (every task
// suspends in get: the context-switch path), a parallel merge sort of
// seeded keys and a tiled 512 x 512 multiply (kernel-bound, coarse
// tasks: a runtime change should leave them flat).
#include "scenarios.hpp"
#include "spans.hpp"

#include <inncabs/fib.hpp>
#include <inncabs/matmul.hpp>
#include <inncabs/sort.hpp>
#include <minihpx/papi/papi_engine.hpp>
#include <minihpx/util/rng.hpp>

#include <algorithm>
#include <cstring>
#include <memory>

namespace perfbench {

namespace perf = minihpx::perf;
using minihpx::engine::minihpx_engine;
using fib = inncabs::fib_bench<minihpx_engine>;
using sorter = inncabs::sort_bench<minihpx_engine>;
using matmul = inncabs::matmul_bench<minihpx_engine>;

namespace {

    constexpr int fib_n = 27;
    constexpr std::size_t sort_n = std::size_t(1) << 21;
    constexpr std::size_t sort_cutoff = 2048;
    constexpr std::size_t matmul_n = 512;
    constexpr std::size_t matmul_tile = 64;
    constexpr unsigned matmul_per_round = 4;

    // Bytes a merge sort of n keys moves: the leaf sorts read and write
    // their keys once, every merge level reads both halves, writes the
    // scratch buffer and copies it back.
    double sort_bytes(std::size_t n)
    {
        if (n <= sort_cutoff)
            return 8.0 * static_cast<double>(n);
        std::size_t const half = n / 2;
        return sort_bytes(half) + sort_bytes(n - half) +
            16.0 * static_cast<double>(n);
    }

    class inncabs_scenario final : public scenario
    {
    public:
        using scenario::scenario;

        char const* name() const override { return "inncabs"; }

        void setup() override
        {
            minihpx::util::xoshiro256ss rng(ctx_.seed ^ 0x50e7ull);
            keys_.resize(sort_n);
            for (auto& k : keys_)
                k = static_cast<std::uint32_t>(rng());
            work_.resize(sort_n);
            scratch_.resize(sort_n);
            a_.resize(matmul_n * matmul_n);
            b_.resize(matmul_n * matmul_n);
            for (auto& x : a_)
                x = rng.uniform01() - 0.5;
            for (auto& x : b_)
                x = rng.uniform01() - 0.5;
            c_.assign(matmul_n * matmul_n, 0.0);
        }

        void round() override
        {
            if (!have_reference_)
            {
                keys_hash_ = hash_keys(keys_);
                have_reference_ = true;
                if (ctx_.trace)
                    measure_serial_baselines();
            }
            run_fib();
            run_sort();
            // A multiply takes a tenth of a sort: several per round give
            // matmul_s as many samples as the other two.
            for (unsigned i = 0; i < matmul_per_round; ++i)
                run_matmul();
        }

        void end_to_end(metric_map& out) const override
        {
            out["fib_s"] = {fib_s_.median(), "s"};
            out["sort_s"] = {sort_s_.median(), "s"};
            out["matmul_s"] = {matmul_s_.median(), "s"};
        }

        void per_layer(metric_map& out) const override
        {
            double const n = static_cast<double>(matmul_n);
            out["inncabs.sort_serial_s"] = {sort_serial_s_, "s"};
            out["inncabs.matmul_serial_s"] = {matmul_serial_s_, "s"};
            out["inncabs.sort_bytes"] = {sort_bytes(sort_n), "B"};
            out["inncabs.matmul_gflops"] = {
                2.0 * n * n * n / matmul_s_.median() * 1e-9, "GFLOP/s"};
            out["papi.dtlb_miss_rate"] = {dtlb_miss_rate_, "ratio"};
            out["papi.llc_miss_rate"] = {llc_miss_rate_, "ratio"};
        }

    private:
        void run_fib()
        {
            std::uint64_t value = 0;
            bool const ok = operation("inncabs.fib", [&] {
                op_span op("inncabs.fib");
                fib_s_.add(time_call([&] {
                    span sp("inncabs::fib_bench::run_task", "inncabs");
                    value = fib::run_task(fib_n, 0);
                }));
            });
            expected_tasks_ += fib_tasks(fib_n);
            if (ok)
                ctx_.checks.expect("fib", check_fib(fib_n, value));
        }

        void run_sort()
        {
            std::copy(keys_.begin(), keys_.end(), work_.begin());
            bool const ok = operation("inncabs.sort", [&] {
                op_span op("inncabs.sort");
                sort_s_.add(time_call([&] {
                    span sp("inncabs::sort_bench::sort_task", "inncabs");
                    sorter::sort_task(work_.data(), scratch_.data(), sort_n,
                        sort_cutoff);
                }));
            });
            expected_tasks_ += sort_tasks(sort_n, sort_cutoff);
            if (ok)
                ctx_.checks.expect("sort", check_sorted(work_, keys_hash_));
        }

        void run_matmul()
        {
            std::fill(c_.begin(), c_.end(), 0.0);
            std::unique_ptr<minihpx::papi::papi_engine> papi;
            if (ctx_.trace)
            {
                papi = std::make_unique<minihpx::papi::papi_engine>(
                    ctx_.workers);
                papi->install();
            }
            matmul::params const p{
                .n = matmul_n, .tile = matmul_tile, .band = 32};
            bool const ok = operation("inncabs.matmul", [&] {
                op_span op("inncabs.matmul");
                matmul_s_.add(time_call([&] {
                    span sp("inncabs::matmul_bench::multiply", "inncabs");
                    matmul::multiply(matmul::view{c_.data(), matmul_n},
                        matmul::view{a_.data(), matmul_n},
                        matmul::view{b_.data(), matmul_n}, p);
                }));
            });
            expected_tasks_ +=
                (matmul_n / matmul_tile) * (matmul_n / matmul_tile);
            if (papi)
            {
                papi->uninstall();
                read_miss_rates(*papi);
            }
            if (!ok)
                return;
            // The first product is checked entry by entry against the
            // benchmark's own dot products; later ones must equal it
            // bit for bit.
            if (verified_c_.empty())
            {
                if (ctx_.checks.expect(
                        "matmul", check_matmul(a_, b_, c_, matmul_n)))
                    verified_c_ = c_;
            }
            else
            {
                bool const same = std::memcmp(c_.data(), verified_c_.data(),
                                      c_.size() * sizeof(double)) == 0;
                ctx_.checks.expect("matmul",
                    same ? verdict{} :
                           verdict{"product differs from the checked one"});
            }
        }

        void read_miss_rates(minihpx::papi::papi_engine& papi)
        {
            // Through the registry, as a paper run would read them.
            perf::counter_registry registry;
            papi.register_counters(registry);
            std::string const total =
                perf::locality_instance(registry.local_locality());
            auto rate = [&](char const* what) {
                std::string const name = std::string("/arithmetics/divide@") +
                    "/papi" + total + "/" + what + "/misses,/papi" + total +
                    "/" + what + "/loads";
                auto h = registry.resolve(name);
                return h ? h.evaluate().get() : 0.0;
            };
            dtlb_miss_rate_ = rate("dtlb");
            llc_miss_rate_ = rate("llc");
        }

        void measure_serial_baselines()
        {
            std::copy(keys_.begin(), keys_.end(), work_.begin());
            {
                span sp("std::sort", "bench");
                sort_serial_s_ =
                    time_call([&] { std::sort(work_.begin(), work_.end()); });
            }
            std::vector<double> c(matmul_n * matmul_n, 0.0);
            {
                span sp("inncabs::matmul_bench::gemm_acc", "inncabs");
                matmul_serial_s_ = time_call([&] {
                    matmul::gemm_acc(matmul::view{c.data(), matmul_n},
                        matmul::view{a_.data(), matmul_n},
                        matmul::view{b_.data(), matmul_n}, matmul_n,
                        matmul_n, matmul_n);
                });
            }
        }

        std::vector<std::uint32_t> keys_, work_, scratch_;
        multiset_hash keys_hash_;
        std::vector<double> a_, b_, c_, verified_c_;
        bool have_reference_ = false;

        minihpx::util::sample_set fib_s_, sort_s_, matmul_s_;
        double sort_serial_s_ = 0.0;
        double matmul_serial_s_ = 0.0;
        double dtlb_miss_rate_ = 0.0;
        double llc_miss_rate_ = 0.0;
    };

}    // namespace

std::unique_ptr<scenario> make_inncabs(context& ctx)
{
    return std::make_unique<inncabs_scenario>(ctx);
}

}    // namespace perfbench
