/**
 * @file
 * Request bytes of the echo workloads: 64 bytes that are a pure
 * function of (key, seq), so a response is checked byte for byte from
 * its seq alone, and a response routed to the wrong client or request
 * fails the check.
 */

#ifndef LYNX_BENCH_PERF_ECHO_PAYLOAD_HH
#define LYNX_BENCH_PERF_ECHO_PAYLOAD_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "harness.hh"

namespace lynxperf {

constexpr std::size_t kEchoBytes = 64;

inline std::vector<std::uint8_t>
echoPayload(std::uint64_t key, std::uint64_t seq)
{
    std::vector<std::uint8_t> p(kEchoBytes);
    for (std::size_t w = 0; w < kEchoBytes / 8; ++w) {
        std::uint64_t word = mix(key ^ seq, w);
        std::memcpy(p.data() + 8 * w, &word, 8);
    }
    return p;
}

/**
 * The echo application's host work per request, outside the
 * simulation: copy a request into its response, over a pool of
 * generated requests, checking each copy. @return host us per request.
 */
inline double
echoAppHostUs(std::uint64_t key, bool &ok)
{
    constexpr std::uint64_t kPool = 4096;
    std::vector<std::vector<std::uint8_t>> reqs;
    reqs.reserve(kPool);
    for (std::uint64_t seq = 0; seq < kPool; ++seq)
        reqs.push_back(echoPayload(key, seq));
    std::vector<std::vector<std::uint8_t>> resps(kPool);
    Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < kPool; ++i)
        resps[i].assign(reqs[i].begin(), reqs[i].end());
    double us = secondsSince(t0) * 1e6 / static_cast<double>(kPool);
    for (std::uint64_t i = 0; i < kPool; ++i)
        ok = ok && resps[i] == echoPayload(key, i);
    return us;
}

} // namespace lynxperf

#endif // LYNX_BENCH_PERF_ECHO_PAYLOAD_HH
