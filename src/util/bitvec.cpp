#include "util/bitvec.hpp"

#include <bit>

namespace deterrent::util {

std::size_t BitVec::find_next(std::size_t from) const {
  if (from >= n_bits_) return n_bits_;
  std::size_t word = from >> 6;
  std::uint64_t w = words_[word] & (~0ULL << (from & 63));
  while (true) {
    if (w) {
      std::size_t bit = (word << 6) + static_cast<std::size_t>(std::countr_zero(w));
      return bit < n_bits_ ? bit : n_bits_;
    }
    if (++word >= words_.size()) return n_bits_;
    w = words_[word];
  }
}

std::vector<std::uint32_t> BitVec::to_indices() const {
  std::vector<std::uint32_t> out;
  out.reserve(count());
  // Word by word, lowest set bit first (bits past n_bits_ are always clear).
  for (std::size_t w = 0; w < words_.size(); ++w)
    for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
      out.push_back(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
  return out;
}

std::string BitVec::to_string() const {
  std::string s(n_bits_, '0');
  for (std::size_t i = 0; i < n_bits_; ++i)
    if (test(i)) s[i] = '1';
  return s;
}

}  // namespace deterrent::util
