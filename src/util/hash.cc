#include "util/hash.h"

#include <cstring>

namespace xarch {

namespace {

constexpr uint32_t kMd5K[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391};

constexpr int kMd5Shift[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                               7, 12, 17, 22, 5, 9,  14, 20, 5, 9,  14, 20,
                               5, 9,  14, 20, 5, 9,  14, 20, 4, 11, 16, 23,
                               4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                               6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
                               6, 10, 15, 21};

inline uint32_t RotL(uint32_t x, int c) { return (x << c) | (x >> (32 - c)); }

}  // namespace

Md5Hasher::Md5Hasher()
    : a_(0x67452301), b_(0xefcdab89), c_(0x98badcfe), d_(0x10325476) {}

void Md5Hasher::ProcessBlock(const uint8_t* block) {
  uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<uint32_t>(block[i * 4]) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 8) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 3]) << 24);
  }
  uint32_t a = a_, b = b_, c = c_, d = d_;
  auto step = [&](uint32_t f, int i, int g) {
    const uint32_t b_next = b + RotL(a + f + kMd5K[i] + m[g], kMd5Shift[i]);
    a = d;
    d = c;
    c = b;
    b = b_next;
  };
  // One loop per round with its auxiliary function inlined; unrolled, every
  // index, constant and shift is a compile-time constant.
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) step(d ^ (b & (c ^ d)), i, i);
#pragma GCC unroll 16
  for (int i = 16; i < 32; ++i) step(c ^ (d & (b ^ c)), i, (5 * i + 1) % 16);
#pragma GCC unroll 16
  for (int i = 32; i < 48; ++i) step(b ^ c ^ d, i, (3 * i + 5) % 16);
#pragma GCC unroll 16
  for (int i = 48; i < 64; ++i) step(c ^ (b | ~d), i, (7 * i) % 16);
  a_ += a;
  b_ += b;
  c_ += c;
  d_ += d;
}

void Md5Hasher::Update(std::string_view data) {
  length_ += data.size();
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t remaining = data.size();
  if (buffered_ > 0) {
    size_t take = std::min(remaining, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    remaining -= take;
    if (buffered_ == buffer_.size()) {
      ProcessBlock(buffer_.data());
      buffered_ = 0;
    }
  }
  while (remaining >= 64) {
    ProcessBlock(p);
    p += 64;
    remaining -= 64;
  }
  if (remaining > 0) {
    std::memcpy(buffer_.data(), p, remaining);
    buffered_ = remaining;
  }
}

Md5Digest Md5Hasher::Finish() {
  uint64_t bit_len = length_ * 8;
  // Padding: a single 0x80 byte, zeros, then the 64-bit length.
  uint8_t pad[72] = {0x80};
  size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  Update(std::string_view(reinterpret_cast<const char*>(pad), pad_len));
  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>((bit_len >> (8 * i)) & 0xff);
  }
  Update(std::string_view(reinterpret_cast<const char*>(len_bytes), 8));
  Md5Digest digest;
  uint32_t regs[4] = {a_, b_, c_, d_};
  for (int r = 0; r < 4; ++r) {
    for (int i = 0; i < 4; ++i) {
      digest.bytes[r * 4 + i] = static_cast<uint8_t>((regs[r] >> (8 * i)) & 0xff);
    }
  }
  return digest;
}

Md5Digest Md5(std::string_view data) {
  Md5Hasher hasher;
  hasher.Update(data);
  return hasher.Finish();
}

std::string Md5Digest::ToHex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

uint64_t Md5Digest::Low64() const {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  return v;
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

uint32_t StringInterner::Intern(std::string_view s) {
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(std::string_view(strings_.back()), id);
  return id;
}

void StringInterner::EncodeTo(std::string* out) const {
  auto put_u32 = [out](uint32_t v) {
    out->push_back(static_cast<char>(v & 0xff));
    out->push_back(static_cast<char>((v >> 8) & 0xff));
    out->push_back(static_cast<char>((v >> 16) & 0xff));
    out->push_back(static_cast<char>((v >> 24) & 0xff));
  };
  put_u32(static_cast<uint32_t>(strings_.size()));
  uint32_t offset = 0;
  put_u32(offset);
  for (const std::string& s : strings_) {
    offset += static_cast<uint32_t>(s.size());
    put_u32(offset);
  }
  for (const std::string& s : strings_) out->append(s);
}

}  // namespace xarch
