// Exhaustive check of the MLP tanh kernel: runs the backend rl::Mlp would
// select (DETERRENT_FORCE_ISA honored) over all 2^32 float bit patterns and
// compares every result, bit for bit, with the scalar fdlibm port the
// backends are built from. Where the host libm's tanhf is fdlibm's code
// (glibc up to 2.40; 2.41 made it correctly rounded) it also compares with
// std::tanh. NaN results are compared by their bits too.
//
//   ./tanh_sweep
//   for isa in scalar avx2 avx512; do DETERRENT_FORCE_ISA=$isa ./tanh_sweep; done
//
// Runs on every hardware thread. Prints one line and exits 1 on any mismatch.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>
#include <vector>

#include "rl/mlp_kernels.hpp"
#include "util/timer.hpp"

namespace {

#if defined(__GLIBC__) && (__GLIBC__ == 2 && __GLIBC_MINOR__ <= 40)
constexpr bool kLibmIsFdlibm = true;
#else
constexpr bool kLibmIsFdlibm = false;
#endif

using deterrent::rl::kernels::MlpKernelTable;

struct Mismatches {
  std::uint64_t vs_libm = 0;
  std::uint64_t vs_port = 0;
  std::uint32_t first_libm = 0;  ///< input bits of the first libm mismatch
  std::uint32_t first_port = 0;
};

std::uint32_t bits_of(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

/// Checks the bit patterns [begin, end) in blocks of 64 Ki.
Mismatches sweep(const MlpKernelTable& table, std::uint64_t begin, std::uint64_t end) {
  constexpr std::size_t kBlock = 1 << 16;
  std::vector<float> x(kBlock);
  std::vector<float> y(kBlock);
  Mismatches m;
  for (std::uint64_t base = begin; base < end; base += kBlock) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kBlock, end - base));
    for (std::size_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::uint32_t>(base + i);
      std::memcpy(&x[i], &u, sizeof u);
    }
    table.tanh(x.data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t got = bits_of(y[i]);
      if (kLibmIsFdlibm && got != bits_of(std::tanh(x[i])) && m.vs_libm++ == 0)
        m.first_libm = bits_of(x[i]);
      if (got != bits_of(deterrent::rl::kernels::tanh_fdlibm(x[i])) && m.vs_port++ == 0)
        m.first_port = bits_of(x[i]);
    }
  }
  return m;
}

bool check(const MlpKernelTable& table, unsigned threads) {
  constexpr std::uint64_t kAll = 1ULL << 32;
  deterrent::util::Stopwatch watch;
  std::vector<Mismatches> parts(threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      parts[t] = sweep(table, kAll * t / threads, kAll * (t + 1) / threads);
    });
  for (auto& w : workers) w.join();

  Mismatches total;
  for (const auto& p : parts) {
    if (total.vs_libm == 0) total.first_libm = p.first_libm;
    if (total.vs_port == 0) total.first_port = p.first_port;
    total.vs_libm += p.vs_libm;
    total.vs_port += p.vs_port;
  }
  std::printf("tanh_sweep %-7s %llu inputs: %llu mismatches vs fdlibm port, ",
              table.name, static_cast<unsigned long long>(kAll),
              static_cast<unsigned long long>(total.vs_port));
  if (kLibmIsFdlibm)
    std::printf("%llu vs std::tanh", static_cast<unsigned long long>(total.vs_libm));
  else
    std::printf("std::tanh not compared (host libm's tanhf is not fdlibm's)");
  std::printf(" (%.1f s, %u threads)\n", watch.elapsed_seconds(), threads);
  if (total.vs_libm != 0)
    std::printf("  first std::tanh mismatch at input bits 0x%08x\n", total.first_libm);
  if (total.vs_port != 0)
    std::printf("  first port mismatch at input bits 0x%08x\n", total.first_port);
  return total.vs_libm == 0 && total.vs_port == 0;
}

}  // namespace

int main() {
  try {
    const auto& table = deterrent::rl::kernels::select_mlp_kernels();
    return check(table, std::max(1u, std::thread::hardware_concurrency())) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tanh_sweep: %s\n", e.what());
    return 2;
  }
}
