#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/check.hpp"

namespace eclp::sim {
namespace {

bool is_pow2(u32 v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

void CacheSim::configure(const CacheConfig& cfg) {
  ECLP_CHECK_MSG(is_pow2(cfg.line_bytes),
                 "llc line_bytes must be a power of two, got "
                     << cfg.line_bytes);
  ECLP_CHECK_MSG(is_pow2(cfg.sets),
                 "llc sets must be a power of two, got " << cfg.sets);
  ECLP_CHECK_MSG(cfg.ways >= 1, "llc needs at least one way");
  line_shift_ = static_cast<u32>(std::countr_zero(cfg.line_bytes));
  ways_ = cfg.ways;
  set_mask_ = cfg.sets - 1;
  tags_.assign(static_cast<usize>(cfg.sets) * cfg.ways, 0);
  stamps_.assign(tags_.size(), 0);
  reset();
}

void CacheSim::reset() {
  tick_ = 0;
  next_dense_ = 0;
  hits_ = 0;
  misses_ = 0;
  std::fill(tags_.begin(), tags_.end(), u64{0});
  std::fill(stamps_.begin(), stamps_.end(), u64{0});
  std::fill(rename_.begin(), rename_.end(), std::pair<u64, u64>{0, 0});
  rename_count_ = 0;
}

u64 CacheSim::rename(u64 raw_line) {
  const u64 key = raw_line + 1;  // 0 marks an empty table slot
  if (rename_.empty()) rename_.assign(64, {0, 0});
  // Grow at 70% load, rehashing in slot order (rebuild is order-independent:
  // the stored dense ids are the lookup result, not the insertion order).
  if (rename_count_ * 10 >= rename_.size() * 7) {
    std::vector<std::pair<u64, u64>> old;
    old.swap(rename_);
    rename_.assign(old.size() * 2, {0, 0});
    for (const auto& [k, v] : old) {
      if (k == 0) continue;
      usize slot = static_cast<usize>(k * 0x9E3779B97F4A7C15ull) &
                   (rename_.size() - 1);
      while (rename_[slot].first != 0) slot = (slot + 1) & (rename_.size() - 1);
      rename_[slot] = {k, v};
    }
  }
  usize slot =
      static_cast<usize>(key * 0x9E3779B97F4A7C15ull) & (rename_.size() - 1);
  while (rename_[slot].first != 0) {
    if (rename_[slot].first == key) return rename_[slot].second;
    slot = (slot + 1) & (rename_.size() - 1);
  }
  rename_[slot] = {key, next_dense_};
  ++rename_count_;
  return next_dense_++;
}

bool CacheSim::access(std::uintptr_t addr) {
  // First-touch renaming: set index and tag depend only on the order in
  // which this block first touches distinct lines, never on absolute
  // addresses — see the header's determinism argument.
  const u64 dense = rename(static_cast<u64>(addr) >> line_shift_);
  const u64 tag = dense + 1;  // 0 = empty way
  const usize base = static_cast<usize>(dense & set_mask_) * ways_;
  ++tick_;
  usize victim = base;
  for (usize w = base; w < base + ways_; ++w) {
    if (tags_[w] == tag) {
      stamps_[w] = tick_;
      ++hits_;
      return true;
    }
    // Prefer an empty way; otherwise the stalest stamp, ties to lowest way.
    if (tags_[victim] != 0 && (tags_[w] == 0 || stamps_[w] < stamps_[victim]))
      victim = w;
  }
  tags_[victim] = tag;
  stamps_[victim] = tick_;
  ++misses_;
  return false;
}

CacheConfig parse_cache_config(const std::string& spec) {
  CacheConfig cfg;
  if (spec.empty() || spec == "off") return cfg;
  cfg.enabled = true;
  if (spec == "on" || spec == "default") return cfg;
  u32 vals[3] = {0, 0, 0};
  usize pos = 0;
  for (int i = 0; i < 3; ++i) {
    usize end = spec.find(':', pos);
    const std::string part =
        spec.substr(pos, end == std::string::npos ? end : end - pos);
    ECLP_CHECK_MSG(!part.empty() && ((i < 2) == (end != std::string::npos)),
                   "llc spec must be off, on, or LINE:WAYS:SETS, got '"
                       << spec << "'");
    u64 value = 0;
    for (char c : part) {
      ECLP_CHECK_MSG(c >= '0' && c <= '9',
                     "llc spec field must be numeric, got '" << part << "'");
      value = value * 10 + static_cast<u64>(c - '0');
      ECLP_CHECK_MSG(value <= std::numeric_limits<u32>::max(),
                     "llc spec field does not fit 32 bits in '" << spec
                                                                << "'");
    }
    vals[i] = static_cast<u32>(value);
    pos = end == std::string::npos ? spec.size() : end + 1;
  }
  cfg.line_bytes = vals[0];
  cfg.ways = vals[1];
  cfg.sets = vals[2];
  ECLP_CHECK_MSG(is_pow2(cfg.line_bytes) && is_pow2(cfg.sets) && cfg.ways >= 1,
                 "llc spec needs power-of-two line/sets and ways >= 1, got '"
                     << spec << "'");
  ECLP_CHECK_MSG(cfg.line_bytes <= kDevicePage,
                 "llc line may be at most " << kDevicePage
                                            << " bytes, got '" << spec << "'");
  ECLP_CHECK_MSG(u64{cfg.sets} * cfg.ways <= kMaxCacheEntries,
                 "llc sets x ways may be at most " << kMaxCacheEntries
                                                   << ", got '" << spec
                                                   << "'");
  return cfg;
}

std::string cache_config_label(const CacheConfig& cfg) {
  if (!cfg.enabled) return "off";
  return std::to_string(cfg.line_bytes) + ":" + std::to_string(cfg.ways) +
         ":" + std::to_string(cfg.sets);
}

}  // namespace eclp::sim
