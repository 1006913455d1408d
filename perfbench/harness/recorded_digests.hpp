// Per-point report digests of the simulator sweeps for kRecordedSeed,
// recorded from a serial run at the commit that introduced the benchmark.
// The simulated numbers are model outputs that must stay bit-identical
// unless a change sets out to alter the model; a run with this seed checks
// every sweep against these values instead of re-running it serially.
//
// Regenerate (only for a deliberate model change) with
//   .bench_build/perfbench --print-digests --seed 1
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kRecordedSeed = 1;

/// sim-fleet: 3 intensities x 7 policies, intensity-major.
inline const std::vector<std::uint64_t> kSimFleetDigests = {
    0x37e7aab507fb78c9ull, 0x3e67ec6859255b15ull, 0x9f498683dc2bfdf2ull,
    0x827feffead7f14b7ull, 0xb0cd3cab6cf89f8aull, 0xef86aefcd7eece17ull,
    0x191bae64107556a9ull, 0x43021dd7884623d9ull, 0x21bd6cf73625da44ull,
    0xd520cb542067f5dcull, 0x8169f7e59850fa0bull, 0x955059d0c905288cull,
    0xf23ef1ad3c8b0daeull, 0x3e3196a945954d20ull, 0x205757334c91beacull,
    0x22c67779edceb681ull, 0x9bb4e465ac38a336ull, 0x693426ca5d3adeadull,
    0xee122048fda6c081ull, 0xab4822723e522b6full, 0x118671a1c086f05full,
};

/// sim-accel: 8 update rates x 2 write policies, rate-major.
inline const std::vector<std::uint64_t> kSimAccelDigests = {
    0x2fcddbd364ed044cull, 0x2fcddbd364ed044cull,
    0x42ef5f42c6e72e34ull, 0x9b8efc54e6bbc878ull,
    0xf456106339fcd47eull, 0xaa6b09ba7e08e4ccull,
    0x5c4b883a94e6c29bull, 0x91c9932739ef20d8ull,
    0x1344211ced738e10ull, 0x006cc4d3a1a645c8ull,
    0x10af71a9831eb2f1ull, 0x3c20e8077733bf04ull,
    0x3c727bcde3057300ull, 0xe91ea5e87c4c2a4cull,
    0xc0994090207b66fdull, 0x603487ecde344245ull,
};

}  // namespace perfbench
